import dataclasses
import json
import re

import numpy as np
import pytest

from asmarket.cli import EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_OK, EXIT_VALIDATION, main
from asmarket import solve
from asmarket.scenario import LABEL_RULE, Scenario, gb_template, scenario_to_dict, write_scenario
from asmarket.solve import CONE_REL_TOL
from asmarket.tables import load_manifest, verify_manifest
from asmarket.ucmodel import EndogenousMax, build_uc
from conftest import binding_scenario, endog_scenario, hour_one_shutdown_scenario, toy10_scenario
from test_scenario import EMPTY_FLEET, WRONG_TYPES, wrong_type_doc


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "toy.json"
    write_scenario(endog_scenario(horizon=2), path)
    return path


class TestValidate:
    def test_valid(self, scenario_file, capsys):
        assert main(["validate", str(scenario_file)]) == EXIT_OK

    def test_broken_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1, "horizon_hours": 2}', encoding="utf-8")
        assert main(["validate", str(bad)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.strip()

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_INTERNAL

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(json.dumps({"schema_version": 1}).encode("utf-16"))  # starts ff fe
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and all(line.startswith("malformed scenario document: ") for line in lines)

    @pytest.mark.parametrize("case", ["demand-string", "cf-string", "p-max-string", "horizon-float", "id-comma", "id-empty"])
    def test_wrong_type_exits_validation(self, tmp_path, capsys, case):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(wrong_type_doc(case)), encoding="utf-8")
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert WRONG_TYPES[case][1] in capsys.readouterr().err
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert WRONG_TYPES[case][1] in capsys.readouterr().err

    def test_horizon_below_one_names_its_document_key(self, tmp_path, capsys):
        doc = scenario_to_dict(endog_scenario(horizon=2))
        doc["horizon_hours"] = 0
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines()[0] == "horizon_hours: must be >= 1 (got 0)"

    def test_empty_fleet_exits_validation(self, tmp_path, capsys):
        doc = scenario_to_dict(endog_scenario(horizon=2))
        for key in ("generators", "res_units", "storage_units"):
            doc[key] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [EMPTY_FLEET, "invalid scenario:", EMPTY_FLEET]


class TestRun:
    def run(self, scenario_file, out, extra=()):
        return main(["run", str(scenario_file), "--out", str(out), *extra])

    HEADERS = {
        "commitment.csv": "hour,unit_id,technology,on,start_up,start_gen,shut_down,charging,discharging",
        "dispatch.csv": "hour,unit_id,technology,p_mw,charge_mw,discharge_mw,soc_mwh,pfr_mw,efr_mw",
        "prices.csv": "hour,lambda_e_gbp_per_mwh,lambda_h_gbp_per_mws,lambda_pfr_gbp_per_mw,"
                      "lambda_efr_gbp_per_mw,omega_loss_gbp_per_mw",
        "duals.csv": "hour,unit_id,dual,value",
        "allocation_shapley.csv": "hour,unit_id,technology,phi_gbp",
        "allocation_shapley_by_technology.csv": "technology,phi_total_gbp",
        "audit_hourly.csv": "hour,p_loss_mw,as_market_gbp,inertia_revenue_gbp,pfr_revenue_gbp,"
                            "efr_revenue_gbp,omega_identity_residual_gbp",
        "audit_summary.csv": "quantity,value",
    }

    def test_full_pipeline(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert self.run(scenario_file, out, ["--rule", "all"]) == EXIT_OK
        manifest = load_manifest(out / "manifest.json")
        assert verify_manifest(manifest, out) == []
        names = set(manifest["outputs"])
        for required in (
            "commitment.csv", "dispatch.csv", "prices.csv", "duals.csv", "standalone_omega.csv",
            "audit_hourly.csv", "audit_summary.csv",
            "allocation_proportional.csv", "allocation_shapley.csv", "allocation_nucleolus.csv",
        ):
            assert required in names
        assert all(s["status"] == "ok" for s in manifest["stages"])
        # fixed column orders
        for name, header in self.HEADERS.items():
            assert (out / name).read_text().splitlines()[1] == header, name

    def test_rules_share_hourly_totals(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert self.run(scenario_file, out, ["--rule", "all"]) == EXIT_OK

        def totals(name):
            lines = (out / name).read_text().splitlines()[2:]
            acc = {}
            for line in lines:
                hour, _, _, phi = line.split(",")
                acc[hour] = acc.get(hour, 0.0) + float(phi)
            return acc

        base = totals("allocation_proportional.csv")
        for name in ("allocation_shapley.csv", "allocation_nucleolus.csv"):
            other = totals(name)
            assert set(other) == set(base)
            for hour in base:
                assert other[hour] == pytest.approx(base[hour], rel=1e-9, abs=1e-9)

    def test_hours_truncation(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert self.run(scenario_file, out, ["--hours", "1", "--rule", "shapley"]) == EXIT_OK
        header = (out / "standalone_omega.csv").read_text().splitlines()[1]
        assert header == "unit_id,technology,omega_h1_gbp"
        rows = (out / "standalone_omega.csv").read_text().splitlines()[2:]
        assert rows  # one row per dispatched unit

    def test_rerun_byte_identical(self, scenario_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert self.run(scenario_file, out1) == EXIT_OK
        assert self.run(scenario_file, out2) == EXIT_OK
        for f1 in sorted(out1.glob("*.csv")):
            f2 = out2 / f1.name
            assert f1.read_bytes() == f2.read_bytes(), f1.name
        m1 = load_manifest(out1 / "manifest.json")
        m2 = load_manifest(out2 / "manifest.json")
        for m in (m1, m2):
            m.pop("created_utc")
            for s in m["stages"]:
                s.pop("wall_s")
        assert m1 == m2

    def test_headline_row_is_priced_omega(self, scenario_file, tmp_path):
        # a unit dispatched at the hourly maximum in every hour has the
        # priced loss profile; its stand-alone row is p * omega of the price
        # stage, cell for cell, with omega the max-loss row multiplier of
        # duals.csv (prices.csv holds the stationarity formula's value)
        out = tmp_path / "out"
        assert self.run(scenario_file, out) == EXIT_OK
        table = lambda name: [line.split(",") for line in (out / name).read_text().splitlines()[2:]]
        p = {}
        for hour, uid, _, p_mw, _, discharge, *_ in table("dispatch.csv"):
            p.setdefault(uid, []).append(float(p_mw) + float(discharge))
        omega = [float(v) for _, uid, name, v in table("duals.csv") if (uid, name) == ("system", "omega_loss")]
        worst = np.max(list(p.values()), axis=0)
        headline = [uid for uid, inj in p.items() if np.array_equal(inj, worst)]
        assert headline and worst.all()
        rows = {row[0]: row[2:] for row in table("standalone_omega.csv")}
        for uid in headline:
            assert rows[uid] == [repr(pt * wt) for pt, wt in zip(p[uid], omega)], uid

    def test_a_run_validates_once(self, scenario_file, tmp_path, monkeypatch):
        # the MIP, the relaxed pricing and the stand-alone builds reuse the
        # loaded scenario, which was validated when it was constructed
        calls = []
        validate = Scenario.validate
        monkeypatch.setattr(Scenario, "validate", lambda self: calls.append(1) or validate(self))
        assert self.run(scenario_file, tmp_path / "out") == EXIT_OK
        assert len(calls) == 1

    def test_gb_rerun_byte_identical(self, tmp_path):
        # GB scale: the relaxed solves share one read-only array per class;
        # the second run passes --jobs 2, which must have no effect
        path = tmp_path / "gb.json"
        write_scenario(gb_template(1), path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert self.run(path, out1, ["--gap", "1e-2", "--jobs", "1"]) == EXIT_OK
        assert self.run(path, out2, ["--gap", "1e-2", "--jobs", "2"]) == EXIT_OK
        csvs = sorted(out1.glob("*.csv"))
        assert {f.name for f in csvs} == {f.name for f in out2.glob("*.csv")}
        assert len(csvs) >= 10
        for f1 in csvs:
            assert f1.read_bytes() == (out2 / f1.name).read_bytes(), f1.name

    def test_solver_stats_in_manifest(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert self.run(scenario_file, out, ["--rule", "shapley"]) == EXIT_OK
        stages = {s["name"]: s for s in load_manifest(out / "manifest.json")["stages"]}
        for name in ("uc_mip", "prices"):
            solver = stages[name]["solver"]
            assert set(solver) == {
                "nodes", "lp_iterations", "oa_rounds", "cuts", "rel_mip_gap", "stop_reason",
                "budget_exhausted", "final_cone_residual", "lp_columns",
            }
            assert 0.0 <= solver["final_cone_residual"] <= CONE_REL_TOL
            assert solver["lp_iterations"] >= 0
            assert solver["oa_rounds"] >= 1
            assert solver["cuts"] >= 2  # at least the v >= 0 facet of each hour
            assert solver["stop_reason"] == "converged"
            assert solver["budget_exhausted"] is False
        assert 0.0 <= stages["uc_mip"]["solver"]["rel_mip_gap"] <= 1e-6
        assert stages["prices"]["solver"]["nodes"] == 0
        standalone = stages["standalone"]["solver"]
        assert standalone["stop_reason"] == "converged"
        assert standalone["oa_rounds"] >= 1
        assert 0.0 <= standalone["final_cone_residual"] <= CONE_REL_TOL
        # no two units of endog_scenario are identical, so every LP has one block per unit
        per_unit = build_uc(endog_scenario(horizon=2), EndogenousMax(), relaxed=False).n_vars
        assert [stages[n]["solver"]["lp_columns"] for n in ("uc_mip", "prices", "standalone")] == [per_unit] * 3

    def test_infeasible_exit_code(self, tmp_path):
        path = tmp_path / "hard.json"
        write_scenario(binding_scenario(), path)
        out = tmp_path / "out"
        code = main(["run", str(path), "--out", str(out), "--loss-rule", "400"])
        assert code == EXIT_INFEASIBLE
        manifest = load_manifest(out / "manifest.json")
        assert any(s["status"] == "failed" for s in manifest["stages"])

    def test_fixed_loss_rule_value(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert self.run(scenario_file, out, ["--loss-rule", "100", "--rule", "nucleolus"]) == EXIT_OK
        # a fixed design prices at its own parameter, not the realized max
        other = tmp_path / "endo"
        assert self.run(scenario_file, other, ["--rule", "nucleolus"]) == EXIT_OK
        assert (out / "prices.csv").read_text().splitlines()[2:] != (
            other / "prices.csv"
        ).read_text().splitlines()[2:]

    def test_unsecurable_standalone_is_infeasible_exit(self, tmp_path):
        # the fixed 100 MW market itself prices fine, but the 400 MW unit's
        # own stand-alone market cannot be secured by this fleet
        path = tmp_path / "big_units.json"
        write_scenario(binding_scenario(), path)
        out = tmp_path / "out"
        code = main(["run", str(path), "--out", str(out), "--loss-rule", "100"])
        assert code == EXIT_INFEASIBLE
        manifest = load_manifest(out / "manifest.json")
        statuses = {s["name"]: s["status"] for s in manifest["stages"]}
        assert statuses["prices"] == "ok"
        assert statuses["standalone"] == "failed"

    def test_no_loss_eligible_unit_exits_validation(self, tmp_path, capsys):
        # the default endogenous rule needs a loss-eligible unit: the model
        # build refuses before any solve
        doc = scenario_to_dict(endog_scenario(horizon=2))
        for key in ("generators", "res_units", "storage_units"):
            for unit in doc[key]:
                unit["loss_eligible"] = False
        path = tmp_path / "no_eligible.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert self.run(path, out) == EXIT_VALIDATION
        assert capsys.readouterr().err == "EndogenousMax requires at least one loss-eligible unit\n"
        statuses = {s["name"]: s["status"] for s in load_manifest(out / "manifest.json")["stages"]}
        assert statuses == {"load": "ok", "uc_mip": "failed"}

    def test_profile_loss_rule_reads_the_scenario_cap(self, tmp_path):
        # a cap of 100 MW in every hour gives the outputs of --loss-rule 100,
        # line for line after each file's run id
        path = tmp_path / "cap.json"
        write_scenario(dataclasses.replace(endog_scenario(horizon=2), p_loss_cap_mw=(100.0, 100.0)), path)
        profile, constant = tmp_path / "profile", tmp_path / "constant"
        assert self.run(path, profile, ["--loss-rule", "profile", "--rule", "nucleolus"]) == EXIT_OK
        assert self.run(path, constant, ["--loss-rule", "100", "--rule", "nucleolus"]) == EXIT_OK
        for name in load_manifest(profile / "manifest.json")["outputs"][:-1]:
            assert (profile / name).read_text().splitlines()[1:] == (constant / name).read_text().splitlines()[1:], name

    def test_profile_loss_rule_without_cap(self, scenario_file, tmp_path, capsys):
        assert self.run(scenario_file, tmp_path / "out", ["--loss-rule", "profile"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "--loss-rule profile requires p_loss_cap_mw in the scenario\n"

    def test_non_numeric_loss_rule(self, scenario_file, tmp_path, capsys):
        assert self.run(scenario_file, tmp_path / "out", ["--loss-rule", "largest"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "--loss-rule must be 'endogenous', 'profile' or a MW value (got 'largest')\n"
        )

    def test_mip_budget_warning(self, tmp_path, capsys, monkeypatch):
        # with no node allowed the root's rounding incumbent is kept, short
        # of the default gap, and the run goes on from it
        monkeypatch.setattr(solve, "MAX_NODES", 0)
        path = tmp_path / "toy2.json"
        write_scenario(toy10_scenario(2), path)
        out = tmp_path / "out"
        assert self.run(path, out, ["--rule", "proportional"]) == EXIT_OK
        err = capsys.readouterr().err
        assert re.fullmatch(r"warning: MIP budget exhausted at gap \S+; results use the incumbent\n", err), err
        stages = {s["name"]: s for s in load_manifest(out / "manifest.json")["stages"]}
        assert stages["uc_mip"]["solver"]["stop_reason"] == "budget"
        assert stages["uc_mip"]["solver"]["budget_exhausted"] is True

    def test_hours_out_of_range(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert self.run(scenario_file, out, ["--hours", "99"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("value", ["nan", "inf", "-100"])
    def test_loss_rule_out_of_range(self, scenario_file, tmp_path, capsys, value):
        assert self.run(scenario_file, tmp_path / "out", ["--loss-rule", value]) == EXIT_VALIDATION
        assert "--loss-rule" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_gap_out_of_range(self, scenario_file, tmp_path, capsys, value):
        assert self.run(scenario_file, tmp_path / "out", ["--gap", value]) == EXIT_VALIDATION
        assert "--gap" in capsys.readouterr().err

    def test_out_naming_a_file(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "some.csv"
        out.write_text("kept\n")
        assert self.run(scenario_file, out) == EXIT_INTERNAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("cannot create output directory: ")
        assert out.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["some.csv", "toy.json"]  # no manifest

    def test_initially_on_unit_shut_down_at_hour_one(self, tmp_path):
        path = tmp_path / "shutdown.json"
        write_scenario(hour_one_shutdown_scenario(), path)
        assert json.loads(path.read_text())["generators"][1]["initially_on"] is True
        out = tmp_path / "out"
        assert self.run(path, out) == EXIT_OK
        assert (out / "commitment.csv").read_text().splitlines()[2:] == [
            "1,g1,thermal,1,1,1,0,0,0",
            "1,g2,thermal,0,0,0,1,0,0",
        ]

    def test_out_dir_from_env(self, scenario_file, tmp_path, monkeypatch):
        monkeypatch.setenv("ASMARKET_OUT_DIR", str(tmp_path / "envout"))
        assert main(["run", str(scenario_file), "--rule", "shapley"]) == EXIT_OK
        assert (tmp_path / "envout" / "manifest.json").exists()


class TestGame:
    def write_costs(self, tmp_path, rows, header=True):
        path = tmp_path / "costs.csv"
        lines = (["unit_id,omega_gbp"] if header else []) + [f"{u},{w}" for u, w in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_shapley_with_oracle(self, tmp_path, capsys):
        path = self.write_costs(tmp_path, [("a", 1.0), ("b", 2.0), ("c", 3.0)])
        assert main(["game", str(path), "--rule", "shapley", "--oracle"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "a,0.3333333333333333" in out
        dev = float(out.splitlines()[-1].split(":")[1])
        assert dev <= 1e-12

    def test_nucleolus_with_oracle_on_ties(self, tmp_path, capsys):
        # three tied players at 3 split the first 2.25; the largest pays the rest
        path = self.write_costs(tmp_path, [("a", 3.0), ("b", 3.0), ("c", 3.0), ("d", 6.0)])
        assert main(["game", str(path), "--rule", "nucleolus", "--oracle"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "a,0.75" in out and "b,0.75" in out and "c,0.75" in out and "d,3.75" in out
        dev = float(out.splitlines()[-1].split(":")[1])
        assert dev <= 1e-12

    def test_nucleolus_values(self, tmp_path, capsys):
        path = self.write_costs(tmp_path, [("a", 1.0), ("b", 2.0), ("c", 3.0)], header=False)
        assert main(["game", str(path), "--rule", "nucleolus"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "a,0.5" in out and "b,0.75" in out and "c,1.75" in out

    def test_proportional_values(self, tmp_path, capsys):
        path = self.write_costs(tmp_path, [("x", 4.0), ("y", 6.0), ("z", 10.0)])
        assert main(["game", str(path), "--rule", "proportional"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "x,2.0" in out and "y,3.0" in out and "z,5.0" in out

    def test_oracle_beyond_max_n(self, tmp_path, capsys):
        rows = [(f"u{i}", float(i + 1)) for i in range(10)]
        path = self.write_costs(tmp_path, rows)
        assert main(["game", str(path), "--rule", "nucleolus", "--oracle"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds max_n" in captured.err

    @pytest.mark.parametrize("rule, n", [("proportional", 3), ("shapley", 13)])
    def test_oracle_refusal_prints_no_allocation(self, tmp_path, capsys, rule, n):
        # no oracle for the rule, or too many players for it: nothing on stdout
        path = self.write_costs(tmp_path, [(f"u{i}", float(i + 1)) for i in range(n)])
        assert main(["game", str(path), "--rule", rule, "--oracle"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip()

    def test_all_zero_game_with_oracle(self, tmp_path, capsys):
        path = self.write_costs(tmp_path, [("a", 0.0), ("b", 0.0)])
        assert main(["game", str(path), "--rule", "nucleolus", "--oracle"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "a,0.0" in out and "b,0.0" in out
        assert float(out.splitlines()[-1].split(":")[1]) == 0.0

    @pytest.mark.parametrize("rule", ["nucleolus", "shapley", "proportional"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_cost_rejected(self, tmp_path, capsys, rule, bad):
        path = self.write_costs(tmp_path, [("a", 1.0), ("b", bad), ("c", 2.0)])
        assert main(["game", str(path), "--rule", rule]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "non-finite stand-alone cost for 'b'" in captured.err
        assert "phi_gbp" not in captured.out

    @pytest.mark.parametrize("rule", ["nucleolus", "shapley", "proportional"])
    def test_duplicate_id_rejected(self, tmp_path, capsys, rule):
        path = self.write_costs(tmp_path, [("a", 0.5), ("b", 2.0), ("a", 1.0)])
        assert main(["game", str(path), "--rule", rule]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "duplicate player id 'a'" in captured.err
        assert "phi_gbp" not in captured.out

    def test_unparsable_first_line_rejected(self, tmp_path, capsys):
        # only the exact header may stand before the data; a first row whose
        # omega does not parse is not taken for one
        path = tmp_path / "costs.csv"
        path.write_text("a,x\nb,2.0\nc,3.0\n", encoding="utf-8")
        assert main(["game", str(path), "--rule", "nucleolus"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "'a,x'" in captured.err
        assert "phi_gbp" not in captured.out

    def test_extra_field_rejected(self, tmp_path, capsys):
        path = self.write_costs(tmp_path, [("a", "1.0,junk"), ("b", 2.0), ("c", 3.0)])
        assert main(["game", str(path), "--rule", "nucleolus"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "'a,1.0,junk'" in captured.err
        assert "phi_gbp" not in captured.out

    @pytest.mark.parametrize("text, line", [
        (",1.0\nb,2.0\n", ",1.0"),
        ('a"b,1\nc,2\n', 'a"b,1'),
        ("a\0b,1\nc,2\n", "a\0b,1"),
    ], ids=["empty-id", "quote-in-id", "nul-in-id"])
    def test_unsafe_id_rejected(self, tmp_path, capsys, text, line):
        # a costs-file id keeps the scenario's label rule
        path = tmp_path / "costs.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["game", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"costs file id {LABEL_RULE}: {line!r}\n"
        assert captured.out == ""

    def test_byte_order_mark_accepted(self, tmp_path, capsys):
        path = tmp_path / "costs.csv"
        path.write_text("unit_id,omega_gbp\na,1.0\nb,3.0\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(["game", str(path), "--rule", "proportional"]) == EXIT_OK
        assert capsys.readouterr().out == "unit_id,phi_gbp\na,0.75\nb,2.25\n"

    def test_comments_only_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "costs.csv"
        path.write_text("# no rows\n\n# yet\n", encoding="utf-8")
        assert main(["game", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "costs file has no data rows\n"

    def test_missing_costs_file(self, tmp_path):
        assert main(["game", str(tmp_path / "none.csv"), "--rule", "shapley"]) == EXIT_INTERNAL
