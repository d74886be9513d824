import json
from dataclasses import replace

import pytest

from asmarket.cli import EXIT_VALIDATION, main
from asmarket.pricing import duality_audit
from asmarket.scenario import (
    Scenario,
    ScenarioError,
    ScenarioValidationError,
    SystemParams,
    gb_template,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_scenario,
)
from asmarket.solve import solve_relaxed
from asmarket.ucmodel import EndogenousMax, build_uc
from conftest import binding_scenario, toy10_scenario


def test_round_trip_identity(tmp_path):
    for sc in (binding_scenario(), toy10_scenario(horizon=6)):
        path = tmp_path / "sc.json"
        write_scenario(sc, path)
        assert load_scenario(path) == sc


def test_malformed_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_non_utf8_document_is_malformed(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(json.dumps(scenario_to_dict(binding_scenario())).encode("utf-16"))  # starts ff fe
    with pytest.raises(ScenarioError, match="^malformed scenario document: "):
        load_scenario(path)


def test_document_without_initially_on_loads_off():
    sc = toy10_scenario(horizon=6)
    doc = scenario_to_dict(sc)
    for g in doc["generators"]:
        del g["initially_on"]
    assert scenario_from_dict(doc) == sc
    doc["generators"][0]["initially_on"] = True
    assert scenario_from_dict(doc).generators[0] == replace(sc.generators[0], initially_on=True)


def test_validation_reports_every_violation(tmp_path):
    sc = toy10_scenario(horizon=4)
    doc = scenario_to_dict(sc)
    doc["storage_units"][1]["eta_charge"] = 1.3
    doc["generators"][0]["p_msg_mw"] = 9999.0
    doc["demand_mw"][2] = 0.0
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    diags = "\n".join(err.value.diagnostics)
    assert "storage_units[1].eta_charge" in diags
    assert "generators[0].p_msg_mw" in diags
    assert "demand_mw[2]" in diags


def test_all_zero_demand_rejected():
    sc = binding_scenario()
    doc = scenario_to_dict(sc)
    doc["demand_mw"] = [0.0] * sc.horizon
    doc["generators"] = []
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    assert any("demand" in d for d in err.value.diagnostics)


EMPTY_FLEET = "generators: the scenario has no units (generators, res_units and storage_units are all empty)"


def test_empty_fleet_rejected():
    with pytest.raises(ScenarioValidationError) as err:
        Scenario(params=SystemParams(), horizon=1, demand_mw=(10.0,))
    assert err.value.diagnostics == [EMPTY_FLEET]


def test_bess_pfr_and_phes_efr_mapping():
    sc = binding_scenario()
    doc = scenario_to_dict(sc)
    doc["storage_units"][0]["pfr_max_mw"] = 10.0  # BESS must not carry PFR
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    assert any("pfr_max_mw" in d for d in err.value.diagnostics)


def test_unknown_and_missing_fields(tmp_path):
    doc = scenario_to_dict(binding_scenario())
    doc["generators"][0].pop("p_max_mw")
    doc["generators"][1]["made_up"] = 1
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    diags = "\n".join(err.value.diagnostics)
    assert "generators[0].p_max_mw: missing" in diags
    assert "generators[1].made_up: unknown" in diags


def test_schema_version_enforced():
    doc = scenario_to_dict(binding_scenario())
    doc["schema_version"] = 99
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_truncated_slices_all_series():
    sc = toy10_scenario(horizon=24)
    cut = sc.truncated(5)
    assert cut.horizon == 5
    assert len(cut.demand_mw) == 5
    assert all(len(r.cf) == 5 for r in cut.res_units)
    assert cut.validate() == []


def test_invalid_scenario_cannot_be_constructed():
    sc = binding_scenario()
    with pytest.raises(ScenarioValidationError) as err:
        replace(sc, demand_mw=(500.0, 0.0, 560.0))
    assert err.value.diagnostics == ["demand_mw[1]: demand must be > 0 (got 0.0)"]


def test_a_price_pass_validates_once(tmp_path, monkeypatch):
    path = tmp_path / "sc.json"
    write_scenario(toy10_scenario(horizon=6), path)
    calls = []
    validate = Scenario.validate
    monkeypatch.setattr(Scenario, "validate", lambda self: calls.append(1) or validate(self))
    sc = load_scenario(path)
    dispatch, duals, _ = solve_relaxed(build_uc(sc, EndogenousMax(), relaxed=True))
    duality_audit(dispatch, duals, sc)
    assert len(calls) == 1


class TestGBTemplate:
    def test_system_params(self):
        params = gb_template(horizon=24).params
        assert params.f0_hz == 50.0
        assert params.rocof_max_hz_per_s == 1.0
        assert params.delta_f_max_hz == 0.8
        assert params.t_efr_s == 1.0
        assert params.t_pfr_s == 10.0

    def test_big_nuclear(self):
        sc = gb_template(horizon=24)
        big = [g for g in sc.generators if g.technology == "Big Nuclear"]
        assert len(big) == 1
        assert big[0].p_max_mw == 1800.0
        assert big[0].inertia_s == 5.0
        assert big[0].inertia_offer_gbp_per_mws == 1.0
        assert big[0].energy_offer_gbp_per_mwh == 78.0

    def test_ccgt_response_capacity(self):
        sc = gb_template(horizon=24)
        ccgt = [g for g in sc.generators if g.technology == "CCGT"]
        assert all(g.pfr_max_mw == 300.0 for g in ccgt)  # 30% of 1000
        assert all(g.p_msg_mw == 500.0 for g in ccgt)

    def test_bess_efr(self):
        sc = gb_template(horizon=24)
        units = [s for s in sc.storage_units if s.kind == "BESS"]
        assert all(s.efr_max_mw == 5.0 for s in units)  # 5% of 100
        assert all(s.efr_offer_gbp_per_mw == 10.0 for s in units)

    def test_installed_capacities(self):
        sc = gb_template(horizon=24)
        by_tech = {}
        for u in sc.all_units:
            by_tech[u.technology] = by_tech.get(u.technology, 0.0) + u.p_max_mw
        assert by_tech["Big Nuclear"] == 1800.0
        assert by_tech["Nuclear"] == 3200.0
        assert by_tech["CCGT"] == 25000.0
        assert by_tech["OCGT"] == 1000.0
        assert by_tech["Biomass"] == 3000.0
        assert by_tech["BECCS"] == 1000.0
        assert by_tech["Offshore Wind"] == 50400.0
        assert by_tech["Onshore Wind"] == 30000.0
        assert by_tech["Solar PV"] == 42000.0
        assert by_tech["PHES"] == 4800.0
        assert by_tech["BESS"] == 20000.0

    def test_demand_profile(self):
        sc = gb_template()
        assert sc.horizon == 168
        assert max(sc.demand_mw) == pytest.approx(62700.0)
        assert min(sc.demand_mw) > 0.0

    def test_validates_and_round_trips(self, tmp_path):
        sc = gb_template(horizon=24)
        assert sc.validate() == []
        path = tmp_path / "gb.json"
        write_scenario(sc, path)
        assert load_scenario(path) == sc


def _set(*path_and_value):
    """An edit of a scenario document: the value at the path of keys."""
    *path, key, value = path_and_value

    def edit(doc):
        for k in path:
            doc = doc[k]
        doc[key] = value

    edit.keys, edit.value = (*path, key), value
    return edit


# edit of the toy10 6 h document -> the diagnostic it must produce
WRONG_TYPES = {
    "demand-string": (_set("demand_mw", 1, "x"), "demand_mw[1]: must be a finite number (got 'x')"),
    "demand-nan": (_set("demand_mw", 0, float("nan")), "demand_mw[0]: must be a finite number"),
    "demand-not-a-list": (_set("demand_mw", 500.0), "demand_mw: must be a list of numbers"),
    "cf-string": (_set("res_units", 0, "cf", 2, "0.5"), "res_units[0].cf[2]: must be a finite number (got '0.5')"),
    "p-max-string": (_set("generators", 0, "p_max_mw", "big"), "generators[0].p_max_mw: must be a finite number"),
    "offer-inf": (_set("storage_units", 1, "energy_offer_gbp_per_mwh", float("inf")),
                  "storage_units[1].energy_offer_gbp_per_mwh: must be a finite number"),
    "p-max-bool": (_set("generators", 2, "p_max_mw", True), "generators[2].p_max_mw: must be a finite number"),
    "system-string": (_set("system", "f0_hz", "50"), "system.f0_hz: must be a finite number"),
    "min-up-float": (_set("generators", 0, "min_up_h", 1.5), "generators[0].min_up_h: must be an integer"),
    "horizon-float": (_set("horizon_hours", 6.7), "horizon_hours: must be an integer (got 6.7)"),
    "cap-string": (_set("p_loss_cap_mw", [100.0] * 5 + ["x"]), "p_loss_cap_mw[5]: must be a finite number"),
    "unit-not-an-object": (_set("storage_units", 0, 400.0), "storage_units[0]: must be an object"),
    # a truthy string would make the unit loss-eligible
    "loss-eligible-string": (_set("generators", 0, "loss_eligible", "no"),
                             "generators[0].loss_eligible: must be true or false (got 'no')"),
    "initially-on-int": (_set("generators", 0, "initially_on", 3),
                         "generators[0].initially_on: must be true or false (got 3)"),
    "id-number": (_set("generators", 1, "id", 5), "generators[1].id: must be a string (got 5)"),
    "technology-number": (_set("res_units", 0, "technology", 3), "res_units[0].technology: must be a string"),
    "kind-list": (_set("storage_units", 0, "kind", ["BESS"]), "storage_units[0].kind: must be a string"),
    # labels the unquoted output tables cannot hold
    "id-comma": (_set("generators", 1, "id", "g,1"),
                 '''generators[1].id: must be non-empty and printable, without ',' or '"' (got 'g,1')'''),
    "id-newline": (_set("storage_units", 0, "id", "b\n1"), "storage_units[0].id: must be non-empty and printable"),
    "technology-quote": (_set("res_units", 1, "technology", 'PV "rooftop"'),
                         "res_units[1].technology: must be non-empty and printable"),
    "technology-comma": (_set("generators", 0, "technology", "Gas, open cycle"),
                         "generators[0].technology: must be non-empty and printable"),
    # an empty label does not show in the joined scan of every label
    "id-empty": (_set("generators", 0, "id", ""),
                 '''generators[0].id: must be non-empty and printable, without ',' or '"' (got '')'''),
    "technology-empty": (_set("storage_units", 1, "technology", ""),
                         "storage_units[1].technology: must be non-empty and printable"),
}


def wrong_type_doc(case):
    doc = scenario_to_dict(toy10_scenario(horizon=6))
    WRONG_TYPES[case][0](doc)
    return doc


@pytest.mark.parametrize("case", list(WRONG_TYPES))
def test_wrong_type_is_a_validation_error(case):
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(wrong_type_doc(case))
    assert any(d.startswith(WRONG_TYPES[case][1]) for d in err.value.diagnostics), err.value.diagnostics


@pytest.mark.parametrize("case", ["loss-eligible-string", "id-number"])
def test_validate_rejects_non_numeric_field_types(tmp_path, capsys, case):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(wrong_type_doc(case)), encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    assert WRONG_TYPES[case][1] in capsys.readouterr().err


@pytest.mark.parametrize("index, e_ini", [(0, -1.0), (1, 240.5)], ids=["phes-below-e-min", "bess-above-e-max"])
def test_initial_energy_outside_the_energy_bounds_rejected(index, e_ini):
    doc = scenario_to_dict(toy10_scenario(horizon=6))
    doc["storage_units"][index]["e_ini_mwh"] = e_ini
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    assert err.value.diagnostics == [
        f"storage_units[{index}].e_ini_mwh: must satisfy e_min <= e_ini <= e_max (got {e_ini})"
    ]


def test_initial_energy_at_the_energy_bounds_accepted():
    sc = toy10_scenario(horizon=6)
    phes1, bess1 = sc.storage_units
    assert (phes1.e_min_mwh, bess1.e_max_mwh) == (0.0, 240.0)
    at_bounds = replace(sc, storage_units=(replace(phes1, e_ini_mwh=0.0), replace(bess1, e_ini_mwh=240.0)))
    assert at_bounds.validate() == []


def test_integers_stay_valid_numbers():
    doc = scenario_to_dict(toy10_scenario(horizon=6))
    doc["demand_mw"] = [int(d) for d in doc["demand_mw"]]
    doc["generators"][0]["p_max_mw"] = 150
    doc["res_units"][0]["cf"][0] = 0
    sc = scenario_from_dict(doc)
    assert sc.demand_mw == tuple(float(int(d)) for d in toy10_scenario(horizon=6).demand_mw)
    assert sc.generators[0].p_max_mw == 150.0


def _replaced(obj, keys, value):
    """``obj`` built through ``dataclasses.replace`` with the value at the
    document key path ``keys`` set to ``value``, a list as a tuple where
    ``obj`` is a series (a tuple, or None if optional)."""
    if not keys:
        return tuple(value) if isinstance(value, list) and (obj is None or isinstance(obj, tuple)) else value
    key, *rest = keys
    if isinstance(obj, tuple):
        return obj[:key] + (_replaced(obj[key], rest, value),) + obj[key + 1:]
    name = {"system": "params", "horizon_hours": "horizon"}.get(key, key)
    return replace(obj, **{name: _replaced(getattr(obj, name), rest, value)})


@pytest.mark.parametrize("case", [c for c in WRONG_TYPES if c != "unit-not-an-object"])
def test_built_scenario_gets_the_document_diagnostics(case):
    # a unit that is not an object is a document's structural error only
    with pytest.raises(ScenarioValidationError) as from_doc:
        scenario_from_dict(wrong_type_doc(case))
    edit = WRONG_TYPES[case][0]
    with pytest.raises(ScenarioValidationError) as built:
        _replaced(toy10_scenario(horizon=6), edit.keys, edit.value)
    assert built.value.diagnostics == from_doc.value.diagnostics


@pytest.mark.parametrize("changes, diagnostics", [
    ({"p_loss_cap_mw": (100.0,) * 5 + (float("nan"),)}, ["p_loss_cap_mw[5]: must be a finite number (got nan)"]),
    ({"horizon": 4.0}, ["horizon_hours: must be an integer (got 4.0)"]),
], ids=["cap-nan", "horizon-float"])
def test_built_scenario_type_checked(changes, diagnostics):
    with pytest.raises(ScenarioValidationError) as err:
        replace(toy10_scenario(horizon=6), **changes)
    assert err.value.diagnostics == diagnostics


@pytest.mark.parametrize("edit, diagnostics", [
    (_set("notes", "hand-edited"), ["notes: unknown field"]),
    (_set("res_units", 5), ["res_units: must be a list of objects (got 5)"]),
    (_set("storage_units", 0, "e_max", 1.0), ["storage_units[0].e_max: unknown field"]),
], ids=["unknown-top-level-key", "group-not-a-list", "unknown-unit-key"])
def test_structural_errors_reported_alone(edit, diagnostics):
    doc = wrong_type_doc("demand-string")  # a type error, not reported beside a structural one
    edit(doc)
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    assert err.value.diagnostics == diagnostics


def test_misspelt_unit_group_rejected():
    doc = scenario_to_dict(toy10_scenario(horizon=6))
    doc["generatorz"] = doc.pop("generators")
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    assert err.value.diagnostics == ["generatorz: unknown field"]


# edit of the toy10 6 h scenario (document key path, value) -> its exact diagnostics
RANGE_ERRORS = {
    "duplicate-id": (("generators", 1, "id"), "coal1", ["generators[1].id: duplicate unit id 'coal1'"]),
    "phes-efr": (("storage_units", 0, "efr_max_mw"), 10.0,
                 ["storage_units[0].efr_max_mw: PHES units must have efr_max = 0 (got 10.0)"]),
    "storage-kind": (("storage_units", 1, "kind"), "flywheel",
                     ["storage_units[1].kind: must be 'PHES' or 'BESS' (got 'flywheel')"]),
    "horizon-zero": (("horizon_hours",), 0, [
        "horizon_hours: must be >= 1 (got 0)",
        "demand_mw: length 6 does not match horizon 0",
        "res_units[0].cf: length 6 does not match horizon 0",
        "res_units[1].cf: length 6 does not match horizon 0",
    ]),
    "demand-length": (("demand_mw",), [1000.0] * 5, ["demand_mw: length 5 does not match horizon 6"]),
    "cap-length": (("p_loss_cap_mw",), [100.0] * 5, ["p_loss_cap_mw: length 5 does not match horizon 6"]),
    "cap-negative": (("p_loss_cap_mw",), [100.0] * 5 + [-1.0], ["p_loss_cap_mw[5]: must be >= 0 (got -1.0)"]),
    "cf-length": (("res_units", 0, "cf"), [0.5] * 7, ["res_units[0].cf: length 7 does not match horizon 6"]),
    "cf-range": (("res_units", 1, "cf", 2), 1.5, ["res_units[1].cf[2]: must lie in [0, 1] (got 1.5)"]),
    "efr-not-before-pfr": (("system", "t_efr_s"), 10.0, ["system.t_efr_s: must be < t_pfr_s (got 10.0 >= 10.0)"]),
    "deviation-not-below-f0": (("system", "delta_f_max_hz"), 50.0,
                               ["system.delta_f_max_hz: must be < f0_hz (got 50.0 >= 50.0)"]),
    "min-up-negative": (("generators", 2, "min_up_h"), -1,
                        ["generators[2].min_up_h: must be a non-negative integer (got -1)"]),
    "start-up-negative": (("generators", 3, "start_up_h"), -2,
                          ["generators[3].start_up_h: must be a non-negative integer (got -2)"]),
    "rocof-zero": (("system", "rocof_max_hz_per_s"), 0.0, ["system.rocof_max_hz_per_s: must be strictly positive (got 0.0)"]),
    "p-max-negative": (("generators", 4, "p_max_mw"), -1.0, [
        "generators[4].p_msg_mw: must satisfy 0 <= p_msg <= p_max (got 0.0, p_max -1.0)",
        "generators[4].p_max_mw: must be > 0 (got -1.0)",
        "generators[4].pfr_max_mw: must satisfy 0 <= pfr_max <= p_max (got 75.0)",
    ]),
    "efr-above-p-max": (("storage_units", 1, "efr_max_mw"), 500.0,
                        ["storage_units[1].efr_max_mw: must satisfy 0 <= efr_max <= p_max (got 500.0)"]),
}


@pytest.mark.parametrize("case", list(RANGE_ERRORS))
def test_range_diagnostics(case):
    keys, value, diagnostics = RANGE_ERRORS[case]
    with pytest.raises(ScenarioValidationError) as err:
        _replaced(toy10_scenario(horizon=6), keys, value)
    assert err.value.diagnostics == diagnostics


@pytest.mark.parametrize("hours", [0, 7])
def test_truncated_out_of_range(hours):
    with pytest.raises(ValueError, match=r"^hours must be in \[1, 6\]"):
        toy10_scenario(horizon=6).truncated(hours)


@pytest.mark.parametrize("doc", [[], "scenario", None])
def test_document_not_an_object(doc):
    with pytest.raises(ScenarioError, match="^scenario document must be a JSON object$"):
        scenario_from_dict(doc)
