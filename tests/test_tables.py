import numpy as np
import pytest

from asmarket.pricing import AsPrices
from asmarket.tables import (
    _fmt,
    make_run_id,
    verify_manifest,
    write_prices,
    write_table,
)


def test_table_format(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, "abc123", ["a", "b"], [(1, 2.5), ("x", 1e-9)])
    lines = path.read_text().splitlines()
    assert lines[0] == "# run: abc123"
    assert lines[1] == "a,b"
    assert lines[2] == "1,2.5"
    assert lines[3] == "x,1e-09"


def isinstance_chain(v) -> str:
    """The cell formatting the type lookup replaced, kept as its oracle."""
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


@pytest.mark.parametrize("value", [
    True, np.True_, 3, np.int64(3), np.int32(3),
    0.1 + 0.2, -0.0, 1e-300, np.float64(1 / 3), np.float32(0.1),
    "g1",
], ids=repr)
def test_cell_format_matches_isinstance_chain(value):
    assert _fmt(value) == isinstance_chain(value)
    assert type(_fmt(value)) is str


def test_prices_header_frozen(tmp_path):
    prices = AsPrices(*(np.zeros(2) for _ in range(5)))
    path = tmp_path / "prices.csv"
    write_prices(path, "r", prices)
    header = path.read_text().splitlines()[1]
    assert header == (
        "hour,lambda_e_gbp_per_mwh,lambda_h_gbp_per_mws,lambda_pfr_gbp_per_mw,"
        "lambda_efr_gbp_per_mw,omega_loss_gbp_per_mw"
    )


def test_run_id_deterministic_and_flag_sensitive():
    a = make_run_id("sha", {"rule": "all"}, "0.1.0")
    assert a == make_run_id("sha", {"rule": "all"}, "0.1.0")
    assert a != make_run_id("sha", {"rule": "shapley"}, "0.1.0")
    assert a != make_run_id("other", {"rule": "all"}, "0.1.0")


def test_verify_manifest_detects_problems(tmp_path):
    (tmp_path / "good.csv").write_text("# run: rid\nh\n1\n")
    (tmp_path / "stale.csv").write_text("# run: other\nh\n1\n")
    manifest = {"run_id": "rid", "outputs": ["good.csv", "stale.csv", "gone.csv"]}
    problems = verify_manifest(manifest, tmp_path)
    assert any("stale.csv" in p for p in problems)
    assert any("gone.csv" in p for p in problems)
    assert not any("good.csv" in p for p in problems)


def test_verify_manifest_reports_an_empty_csv(tmp_path):
    (tmp_path / "empty.csv").write_text("")
    problems = verify_manifest({"run_id": "rid", "outputs": ["empty.csv"]}, tmp_path)
    assert problems == ["empty.csv: run id mismatch ('')"]
