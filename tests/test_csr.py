"""``lp.Csr`` against scipy's CSR matrix, and the package's import graph in a
fresh interpreter (``import_guard.py``)."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

import asmarket
from asmarket import lp, ucmodel
from asmarket.lp import Csr
from asmarket.scenario import gb_template
from asmarket.ucmodel import EndogenousMax, build_uc
from conftest import toy10_scenario


def assert_same_arrays(got: Csr, want: sparse.csr_matrix):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name


@pytest.mark.parametrize(
    "scenario, relaxed",
    [
        (lambda: toy10_scenario(6), False),
        (lambda: toy10_scenario(6), True),
        (lambda: gb_template(6), True),
        (lambda: gb_template(1), False),
    ],
    ids=["toy10-6h-mip", "toy10-6h-relaxed", "gb-6h-relaxed", "gb-1h-mip"],
)
def test_model_matrix_is_scipys_csr_of_its_triplets(monkeypatch, scenario, relaxed):
    seen = []
    build = Csr.from_triplets.__func__

    def spy(cls, rows, cols, values, shape):
        seen.append((np.array(rows), np.array(cols), np.array(values), shape))
        return build(cls, rows, cols, values, shape)

    monkeypatch.setattr(ucmodel.Csr, "from_triplets", classmethod(spy))
    model = build_uc(scenario(), EndogenousMax(), relaxed=relaxed)
    (rows, cols, values, shape), = seen
    assert_same_arrays(model.a, sparse.csr_matrix((values, (rows, cols)), shape=shape))


def random_triplets(rng, shape, nnz):
    """``nnz`` distinct (row, column) pairs in random order, some of them
    explicit zeros; rows 1, 4, 7, ... stay empty."""
    used = np.flatnonzero(np.arange(shape[0]) % 3 != 1)
    flat = rng.choice(len(used) * shape[1], nnz, replace=False)
    values = rng.normal(size=nnz)
    values[rng.random(nnz) < 0.1] = 0.0
    return used[flat // shape[1]], flat % shape[1], values


@pytest.mark.parametrize("shape, nnz", [((40, 30), 200), ((25, 60), 30), ((1, 5), 5), ((3, 4), 0)])
def test_triplets_and_product_match_scipy(shape, nnz):
    rng = np.random.default_rng(shape[0] * 1000 + nnz)
    rows, cols, values = random_triplets(rng, shape, nnz)
    a = Csr.from_triplets(rows, cols, values, shape)
    ref = sparse.csr_matrix((values, (rows, cols)), shape=shape)
    assert_same_arrays(a, ref)
    assert np.all(np.diff(a.indptr)[1::3] == 0)
    for _ in range(5):
        x = rng.normal(0.0, 1e3, shape[1])
        got, want = a @ x, ref @ x
        scale = np.maximum(abs(ref) @ np.abs(x), np.finfo(float).tiny)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_product_with_empty_rows_is_zero_there():
    a = Csr.from_triplets([0, 0, 3], [1, 2, 0], [2.0, -1.0, 4.0], (5, 3))
    assert np.array_equal(np.diff(a.indptr), [2, 0, 0, 1, 0])
    np.testing.assert_array_equal(a @ np.array([1.0, 10.0, 100.0]), [-80.0, 0.0, 0.0, 4.0, 0.0])


def test_dense_constructor_matches_scipy():
    rng = np.random.default_rng(3)
    dense = rng.normal(size=(7, 9))
    dense[rng.random(dense.shape) < 0.5] = 0.0
    dense[2] = 0.0
    assert_same_arrays(Csr.from_dense(dense), sparse.csr_matrix(dense))
    # the nucleolus oracle's coalition rows: 0/1 columns and an epsilon column
    members = ((np.arange(1, 8)[:, None] >> np.arange(3)) & 1).astype(float)
    stacked = np.column_stack([members, np.append(-np.ones(6), 0.0)])
    assert_same_arrays(Csr.from_dense(stacked), sparse.csr_matrix(stacked))


def test_duplicate_entries_are_refused():
    with pytest.raises(AssertionError, match="duplicate"):
        Csr.from_triplets([1, 0, 1], [2, 0, 2], [1.0, 2.0, 3.0], (2, 3))


def test_import_graph_in_a_fresh_interpreter():
    guard = Path(__file__).with_name("import_guard.py")
    src = str(Path(asmarket.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(guard)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_missing_extension_is_an_import_error(monkeypatch, tmp_path):
    # a scipy without the extension file: no fallback to scipy.optimize
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
    scipy = SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy)
    with pytest.raises(ImportError, match=r"scipy >= 1\.17") as err:
        lp._load_highs()
    assert str(tmp_path / "optimize" / "_highspy") in str(err.value)
    assert "scipy.optimize._highspy._core" not in sys.modules
