"""The output checks accept real outputs and reject corrupted ones; the
seeded generator reproduces the reference instances.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import copy
import random
from dataclasses import replace

import numpy as np
import pytest

import checks
import workloads
from asmarket.allocation import AirportGame, shapley_airport
from asmarket.scenario import gb_template, scenario_to_dict


def test_seed_zero_reproduces_gb_template():
    assert workloads.scenario_doc("gb", 6, 0) == scenario_to_dict(gb_template(6))


def test_other_seeds_only_jitter_demand():
    base = workloads.scenario_doc("gb", 6, 0)
    for seed in (1, 2):
        doc = workloads.scenario_doc("gb", 6, seed)
        assert doc == workloads.scenario_doc("gb", 6, seed)
        assert {k: v for k, v in doc.items() if k != "demand_mw"} == \
            {k: v for k, v in base.items() if k != "demand_mw"}
        ratio = np.array(doc["demand_mw"]) / np.array(base["demand_mw"])
        assert np.all(np.abs(ratio - 1.0) <= workloads.DEMAND_JITTER) and np.any(ratio != 1.0)


# ---------------------------------------------------------------------------
# Real outputs pass


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """One ``asmarket run`` of the toy10-run workload, cut to three hours."""
    work = tmp_path_factory.mktemp("toy")
    doc = work / "scenario.json"
    workloads.write_doc(workloads.scenario_doc("toy10", 3, 0), doc)
    out = workloads.run_pass(workloads.WORKLOADS["toy10-run"], doc, work / "out")
    scenario = workloads.load_scenario(doc)
    checks.check_run(out, scenario)
    view = checks.read_run(out, scenario)
    return scenario, view, checks.price_stage(scenario, view)


@pytest.fixture(scope="module")
def toy_price(tmp_path_factory):
    work = tmp_path_factory.mktemp("price")
    doc = work / "scenario.json"
    workloads.write_doc(workloads.scenario_doc("toy10", 2, 0), doc)
    result = workloads.run_pass(workloads.WORKLOADS["gb-price"], doc, work / "out")
    checks.check_price(result)
    return result


@pytest.fixture
def view(toy_run):
    return toy_run[0], copy.deepcopy(toy_run[1])


@pytest.fixture
def relaxed(toy_run):
    return toy_run[2]


def _rejects(fn, *args, match: str):
    with pytest.raises(checks.CheckError, match=match):
        fn(*args)


# ---------------------------------------------------------------------------
# Each check rejects a corrupted output


def test_balance_rejects(view, relaxed):
    sc, v = view
    v.p["coal1"][0] += 1.0
    _rejects(checks.check_view, v, sc, relaxed, match="energy balance")


def _set_schedule(v, uid, on):
    on = np.array(on, dtype=float)
    prev = np.concatenate([[0.0], on[:-1]])
    v.on[uid] = on
    v.start_gen[uid] = np.maximum(on - prev, 0.0)
    v.start_up[uid] = v.start_gen[uid].copy()
    v.shut_down[uid] = np.maximum(prev - on, 0.0)
    v.p[uid] = np.zeros_like(on)
    v.pfr[uid] = np.zeros_like(on)


def test_transition_rejects(view):
    sc, v = view
    v.start_gen["coal1"][0] = 1 - v.start_gen["coal1"][0]
    _rejects(checks.check_commitment, sc, v, match="transition flags")


def test_min_up_rejects(view):
    sc, v = view  # coal1 must stay up 2 h once started
    _set_schedule(v, "coal1", [1, 0, 0])
    _rejects(checks.check_commitment, sc, v, match="minimum up time")


def test_min_down_rejects(view):
    sc, v = view  # coal1 must stay down 2 h once shut down; its up time is waived
    gens = tuple(replace(g, min_up_h=0) if g.id == "coal1" else g for g in sc.generators)
    _set_schedule(v, "coal1", [1, 0, 1])
    _rejects(checks.check_commitment, replace(sc, generators=gens), v, match="minimum down time")


def test_mode_exclusivity_rejects(view):
    sc, v = view
    v.charging["phes1"][0] = v.discharging["phes1"][0] = 1
    _rejects(checks.check_commitment, sc, v, match="charging and discharging")


def test_security_rejects(view):
    sc, v = view
    inertia, pfr, efr, loss = checks.run_aggregates(sc, v)
    _rejects(checks.check_security, sc.params, inertia, pfr * 0.0, efr, loss, match="nadir")
    _rejects(checks.check_security, sc.params, inertia * 0.1, pfr, efr, loss, match="RoCoF")


def test_objective_bound_rejects(view, relaxed):
    sc, v = view
    v.relaxed_cost = checks.run_cost(sc, v) * 1.01
    _rejects(checks.check_view, v, sc, relaxed, match="below the relaxed objective")


@pytest.mark.parametrize("column", ["omega_loss", "lambda_h", "lambda_pfr", "lambda_efr"])
def test_payment_identity_rejects(view, relaxed, column):
    sc, v = view
    inertia, pfr, efr = checks.price_aggregates(sc, relaxed)
    paid = dict(zip(["omega_loss", "lambda_h", "lambda_pfr", "lambda_efr"],
                    [relaxed.p_loss_mw, inertia, pfr, efr]))[column] * v.prices[column]
    hour = int(np.argmax(paid != 0.0))
    assert paid[hour] != 0.0
    v.prices[column][hour] *= 1.001
    _rejects(checks.check_view, v, sc, relaxed, match="p_loss\\*omega")


def test_price_stage_rejects(view, relaxed):
    sc, v = view
    v.audit["p_loss_mw"][0] += 1.0
    _rejects(checks.check_view, v, sc, relaxed, match="rebuilt price stage")


def test_headline_market_rejects(view):
    sc, v = view
    profiles = checks.loss_profiles(sc, v)
    assert checks.check_standalone(profiles, v.standalone, v.audit["as_market_gbp"]) >= 1
    worst = np.max(np.array([p for u, p in profiles.items() if u in v.standalone]), axis=0)
    setter = next(u for u in v.standalone if np.array_equal(profiles[u], worst))
    v.standalone[setter] = v.standalone[setter] * 1.001
    _rejects(checks.check_standalone, profiles, v.standalone, v.audit["as_market_gbp"],
             match="headline")


def test_equal_profiles_reject_unequal_rows():
    profiles = {"a": np.array([1.0, 2.0]), "b": np.array([1.0, 2.0]), "c": np.array([3.0, 3.0])}
    rows = {"a": np.array([5.0, 6.0]), "b": np.array([5.0, 6.1]), "c": np.array([9.0, 9.0])}
    _rejects(checks.check_standalone, profiles, rows, np.array([9.0, 9.0]), match="equal profiles")


def test_allocation_rejects(view, relaxed):
    sc, v = view
    v.allocations["nucleolus"][0]["coal1"] += 1.0
    _rejects(checks.check_view, v, sc, relaxed, match="sum to")


@pytest.mark.parametrize("rule, costs, phi, match", [
    ("proportional", {"a": 1.0, "b": 3.0}, {"a": 1.5, "b": 1.5}, "outside"),
    ("proportional", {"a": 2.0, "b": 2.0, "c": 4.0}, {"a": 0.5, "b": 1.5, "c": 2.0}, "equal costs"),
    ("nucleolus", {"a": 1.0, "b": 1.0, "c": 4.0}, {"a": 0.9, "b": 0.9, "c": 2.2}, "coalition cost"),
    ("shapley", {"a": 1.0, "b": 2.0, "c": 4.0}, {"a": 0.25, "b": 0.75, "c": 3.0}, "permutation"),
])
def test_allocation_properties_reject(rule, costs, phi, match):
    _rejects(checks.check_allocation, rule, [costs], [phi], match=match)


def test_permutation_shapley_matches_closed_form():
    rng = random.Random(7)
    for n in range(1, checks.SHAPLEY_PERMUTATION_MAX + 1):
        costs = {f"u{i}": float(rng.choice([1, 2, 3, rng.random() * 5])) for i in range(n)}
        game = AirportGame.from_costs(costs)
        ref = checks.shapley_by_permutations(game.costs)
        assert np.allclose(ref, shapley_airport(game).vector(game.ids), rtol=1e-12, atol=1e-12)


def test_price_checks_reject(toy_price):
    result = copy.deepcopy(toy_price)
    result.prices.omega_loss[0] *= 1.001
    _rejects(checks.check_price, result, match="p_loss\\*omega")
    result = copy.deepcopy(toy_price)
    next(iter(result.dispatch.gen_p.values()))[0] += 1.0
    _rejects(checks.check_price, result, match="energy balance")
    result = copy.deepcopy(toy_price)
    for arr in result.dispatch.gen_pfr.values():
        arr *= 0.0
    _rejects(checks.check_price, result, match="nadir")
