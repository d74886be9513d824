import dataclasses

import numpy as np
import pytest

from asmarket.scenario import Scenario, SystemParams, gb_template
from asmarket.solve import solve_relaxed
from asmarket.ucmodel import (
    EndogenousMax,
    FixedProfile,
    K_BALANCE,
    K_MAXLOSS,
    K_QSS,
    K_ROCOF,
    V_E0,
    V_EFRT,
    V_H,
    V_PFRT,
    V_PLOSS,
    V_Y,
    V_YCHA,
    V_YDIS,
    V_YSD,
    V_YSG,
    V_YST,
    ModelError,
    build_uc,
)
from conftest import binding_scenario, endog_scenario, gen, single_gen_scenario, toy10_scenario


def test_row_census_single_gen_single_hour():
    sc = single_gen_scenario(horizon=1)
    m = build_uc(sc, FixedProfile.constant(0.0, 1), relaxed=True)
    assert len(m.rows_of_kind(K_BALANCE)) == 1
    assert len(m.rows_of_kind(K_ROCOF)) == 1
    assert len(m.rows_of_kind(K_QSS)) == 1
    # one nadir cone: one column each of the aggregates it constrains
    assert all(len(m.cols[(kind, None)]) == 1 for kind in (V_H, V_EFRT, V_PFRT, V_PLOSS))


def test_fixed_profile_rhs_on_gb_template():
    sc = gb_template(horizon=6)
    m = build_uc(sc, FixedProfile.constant(1800.0, 6), relaxed=True)
    rows = m.rows_of_kind(K_MAXLOSS)
    assert len(rows) == 6
    assert all(r.rhs == 1800.0 and r.sense == ">=" for r in rows)


def test_endogenous_max_dominates_dispatch():
    sc = endog_scenario()
    m = build_uc(sc, EndogenousMax(), relaxed=True)
    dispatch, _, _ = solve_relaxed(m)
    for uid in sc.unit_ids():
        assert np.all(dispatch.p_loss_mw >= dispatch.dispatch_of(uid) - 1e-6)
    assert np.all(dispatch.p_loss_mw > 1.0)  # something is dispatched


def test_loss_profile_horizon_mismatch():
    sc = binding_scenario()
    with pytest.raises(ModelError):
        build_uc(sc, FixedProfile.constant(10.0, 99), relaxed=True)


def test_empty_fleet_rejected():
    sc = Scenario(params=SystemParams(), horizon=1, demand_mw=(10.0,))
    with pytest.raises(ModelError):
        build_uc(sc, FixedProfile.constant(0.0, 1), relaxed=True)


def test_endogenous_requires_eligible_unit():
    sc = single_gen_scenario()
    sc = Scenario(
        params=sc.params,
        horizon=sc.horizon,
        demand_mw=sc.demand_mw,
        generators=(gen("g1", 100.0, 0.0, 5.0, 50.0, 40.0),),
    )
    object.__setattr__(sc.generators[0], "loss_eligible", False)
    with pytest.raises(ModelError):
        build_uc(sc, EndogenousMax(), relaxed=True)


def test_relaxed_flag_controls_binaries():
    sc = binding_scenario()
    relaxed = build_uc(sc, EndogenousMax(), relaxed=True)
    mip = build_uc(sc, EndogenousMax(), relaxed=False)
    assert not relaxed.binary_indices
    assert mip.binary_indices
    # identical row structure either way
    assert [r.name for r in relaxed.rows] == [r.name for r in mip.rows]


@pytest.fixture(scope="module")
def toy10_builds():
    sc = toy10_scenario(6)
    return build_uc(sc, EndogenousMax(), relaxed=True), build_uc(sc, EndogenousMax(), relaxed=False)


def test_cols_partition_the_columns(toy10_builds):
    for m in toy10_builds:
        assert sorted(np.concatenate(list(m.cols.values()))) == list(range(m.n_vars))
        for (kind, _), idx in m.cols.items():
            assert len(idx) == (1 if kind == V_E0 else m.scenario.horizon)


def test_binary_and_branch_columns(toy10_builds):
    relaxed, mip = toy10_builds

    def cols_of(kinds):
        return sorted(int(i) for (kind, _), idx in mip.cols.items() if kind in kinds for i in idx)

    assert mip.binary_indices == cols_of({V_Y, V_YST, V_YSG, V_YSD, V_YCHA, V_YDIS})
    assert mip.branch_indices == cols_of({V_Y, V_YCHA, V_YDIS})
    assert not relaxed.binary_indices and not relaxed.branch_indices


def test_rows_in_row_bound_form(toy10_builds):
    for m in toy10_builds:
        sense = np.array([r.sense for r in m.rows])
        rhs = np.array([r.rhs for r in m.rows])
        eq = sense == "="
        n_eq = int(eq.sum())
        assert 0 < n_eq < len(eq) and (sense == ">=").any()
        assert eq[:n_eq].all()
        assert np.array_equal(np.isfinite(m.row_lower), eq)
        assert np.array_equal(m.row_lower[eq], m.b[eq])
        assert np.array_equal(m.b, np.where(sense == ">=", -rhs, rhs))
        assert m.a.shape == (len(m.rows), m.n_vars)


@pytest.mark.parametrize(
    "scenario, profiles",
    [
        (toy10_scenario(6), [(0.0, 120.5, 0.0, 300.0, 47.25, 0.0), (0.0,) * 6, (660.0,) * 6]),
        (gb_template(1), [(0.0,), (1000.0,), (1800.0,)]),
    ],
    ids=["toy10-6h", "gb-1h"],
)
def test_with_loss_profile_matches_fresh_build(scenario, profiles):
    base = build_uc(scenario, FixedProfile.constant(250.0, scenario.horizon), relaxed=True)
    base_b, base_rows = base.b.copy(), [dataclasses.replace(r) for r in base.rows]
    for p in profiles:
        rule = FixedProfile(p)
        got, ref = base.with_loss_profile(rule), build_uc(scenario, rule, relaxed=True)
        for name in ("c", "lb", "ub", "b", "row_lower"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
        for name in ("data", "indices", "indptr"):
            assert getattr(got.a, name).tobytes() == getattr(ref.a, name).tobytes(), name
        assert got.rows == ref.rows
        assert got.loss_rule == rule
        assert got.a is base.a and got.c is base.c and got.cols is base.cols
    assert base.b.tobytes() == base_b.tobytes()
    assert base.rows == base_rows


def test_with_loss_profile_rejects_other_rules(toy10_builds):
    relaxed, _ = toy10_builds  # built under EndogenousMax
    with pytest.raises(ModelError):
        relaxed.with_loss_profile(FixedProfile.constant(100.0, 6))
    base = build_uc(relaxed.scenario, FixedProfile.constant(0.0, 6), relaxed=True)
    for horizon in (5, 7):
        with pytest.raises(ModelError):
            base.with_loss_profile(FixedProfile.constant(100.0, horizon))
