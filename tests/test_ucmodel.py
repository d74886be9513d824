import numpy as np
import pytest

from asmarket.scenario import Scenario, gb_template
from asmarket.solve import _binaries, _branching, solve_mip, solve_relaxed
from asmarket.ucmodel import (
    EndogenousMax,
    FixedProfile,
    K_BALANCE,
    K_COMMIT,
    K_E0CAP,
    K_EDYN,
    K_EEND,
    K_EFRDEF,
    K_HDEF,
    K_MAXLOSS,
    K_MUTEX,
    K_PFRDEF,
    K_QSS,
    K_ROCOF,
    K_SGLINK,
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
from oracles import as_scipy, binary_columns, class_map


def test_row_census_single_gen_single_hour():
    sc = single_gen_scenario(horizon=1)
    m = build_uc(sc, FixedProfile.constant(0.0, 1), relaxed=True)
    assert len(m.rows[(K_BALANCE, None)]) == 1
    assert len(m.rows[(K_ROCOF, None)]) == 1
    assert len(m.rows[(K_QSS, None)]) == 1
    # one nadir cone: one column each of the aggregates it constrains
    assert all(len(m.cols[(kind, None)]) == 1 for kind in (V_H, V_EFRT, V_PFRT, V_PLOSS))


def test_fixed_profile_rhs_on_gb_template():
    sc = gb_template(horizon=6)
    m = build_uc(sc, FixedProfile.constant(1800.0, 6), relaxed=True)
    rows = m.rows[(K_MAXLOSS, None)]
    assert len(rows) == 6
    # p_loss >= 1800, held negated as -p_loss <= -1800
    assert np.all(m.b[rows] == -1800.0) and np.all(m.row_lower[rows] == -np.inf)
    assert np.all(as_scipy(m.a)[rows][:, m.cols[(V_PLOSS, None)]].toarray() == -np.eye(6))
    assert not any(kind == K_MAXLOSS for kind, unit in m.rows if unit is not None)


def test_endogenous_max_dominates_dispatch():
    sc = endog_scenario()
    m = build_uc(sc, EndogenousMax(), relaxed=True)
    dispatch, _, _ = solve_relaxed(m)
    for u in sc.all_units:
        assert np.all(dispatch.p_loss_mw >= dispatch.dispatch_of(u.id) - 1e-6)
    assert np.all(dispatch.p_loss_mw > 1.0)  # something is dispatched


def test_loss_profile_horizon_mismatch():
    sc = binding_scenario()
    with pytest.raises(ModelError):
        build_uc(sc, FixedProfile.constant(10.0, 99), relaxed=True)


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
    assert not binary_columns(relaxed)
    assert binary_columns(mip)
    # identical row structure either way
    assert rows_as_lists(relaxed) == rows_as_lists(mip)


def rows_as_lists(m) -> dict:
    return {key: idx.tolist() for key, idx in m.rows.items()}


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

    binary = cols_of({V_Y, V_YST, V_YSG, V_YSD, V_YCHA, V_YDIS})
    assert binary_columns(mip) == binary
    # solve_mip's branching policy, derived from the columns: the y, y_cha
    # and y_dis columns first, ties broken by the unit's p_max
    mask, weight = _branching(_binaries(mip), mip.n_vars)
    assert np.flatnonzero(mask).tolist() == cols_of({V_Y, V_YCHA, V_YDIS})
    p_max = {u.id: u.p_max_mw for u in mip.scenario.all_units}
    want = np.zeros(mip.n_vars)
    for (kind, unit), idx in mip.cols.items():
        if kind in {V_Y, V_YST, V_YSG, V_YSD, V_YCHA, V_YDIS}:
            want[idx] = p_max[unit]
    assert weight.tobytes() == want.tobytes()
    assert np.flatnonzero(weight).tolist() == binary
    assert not binary_columns(relaxed)
    with pytest.raises(ValueError):
        solve_mip(relaxed)  # a relaxed model is never branched on


EQUALITY_KINDS = {K_COMMIT, K_SGLINK, K_EDYN, K_BALANCE, K_HDEF, K_PFRDEF, K_EFRDEF}


def test_rows_in_row_bound_form(toy10_builds):
    fixed = build_uc(toy10_builds[0].scenario, FixedProfile.constant(120.5, 6), relaxed=True)
    for m in (*toy10_builds, fixed):
        eq_rows = np.concatenate([idx for (kind, _), idx in m.rows.items() if kind in EQUALITY_KINDS])
        n_eq = len(eq_rows)
        assert 0 < n_eq < len(m.b)
        # the equality kinds fill exactly the leading rows
        assert sorted(eq_rows) == list(range(n_eq))
        eq = np.arange(len(m.b)) < n_eq
        assert np.array_equal(np.isfinite(m.row_lower), eq)
        assert np.array_equal(m.row_lower[eq], m.b[eq])
        # the >= rows are held negated: b is minus their natural rhs
        sc, sys_rows = m.scenario, lambda kind: m.rows[(kind, None)]
        assert np.array_equal(m.b[sys_rows(K_ROCOF)], np.zeros(6)) and np.array_equal(m.b[sys_rows(K_QSS)], np.zeros(6))
        for s in sc.storage_units:
            assert m.b[m.rows[(K_EEND, s.id)]].tolist() == [-s.e_end_mwh]
            assert m.b[m.rows[(K_E0CAP, s.id)]].tolist() == [s.e_ini_mwh]
            assert np.array_equal(m.b[m.rows[(K_MUTEX, s.id)]], np.ones(6))
        assert np.array_equal(m.b[sys_rows(K_BALANCE)], sc.demand_mw)
        assert m.a.shape == (len(m.b), m.n_vars)
    assert np.array_equal(fixed.b[fixed.rows[(K_MAXLOSS, None)]], np.full(6, -120.5))
    # the >= rows of RoCoF and QSS are negated in a: -h + c p_loss <= 0
    assert np.all(as_scipy(fixed.a)[fixed.rows[(K_ROCOF, None)]][:, fixed.cols[(V_H, None)]].toarray() == -np.eye(6))
    relaxed, mip = toy10_builds
    assert rows_as_lists(relaxed) == rows_as_lists(mip)


@pytest.mark.parametrize("rule", [EndogenousMax(), FixedProfile.constant(1800.0, 6)], ids=["endogenous", "fixed"])
def test_rows_partition_the_rows(toy10_builds, rule):
    gb = build_uc(gb_template(6), rule, relaxed=True)
    for m in (*toy10_builds, gb):
        T = m.scenario.horizon
        assert sorted(np.concatenate(list(m.rows.values()))) == list(range(len(m.b)))
        classes = class_map(m)
        for index in (m.cols, m.rows):
            # a unit key is its class's first member
            assert all(unit is None or classes[unit][0] == unit for _, unit in index)
        for (kind, unit), idx in m.rows.items():
            # T rows in hour order (one block of a, so in build order), or one
            assert len(idx) == (1 if kind in (K_E0CAP, K_EEND) else T), (kind, unit)
            assert np.all(np.diff(idx) > 0)
        # row t of a system kind is hour t's: it holds p_loss at hour t
        for kind in (K_ROCOF, K_QSS):
            rows = as_scipy(m.a)[m.rows[(kind, None)]][:, m.cols[(V_PLOSS, None)]].toarray()
            assert np.array_equal(rows != 0, np.eye(T, dtype=bool))
    classes = class_map(gb)
    assert len(set(classes.values())) < len(classes)  # the GB model has classes


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
    base_b, base_rows = base.b.copy(), rows_as_lists(base)
    for p in profiles:
        rule = FixedProfile(p)
        got, ref = base.with_loss_profile(rule), build_uc(scenario, rule, relaxed=True)
        for name in ("c", "lb", "ub", "b", "row_lower"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
        for name in ("data", "indices", "indptr"):
            assert getattr(got.a, name).tobytes() == getattr(ref.a, name).tobytes(), name
        assert rows_as_lists(got) == rows_as_lists(ref)
        assert got.loss_rule == rule
        assert got.a is base.a and got.c is base.c and got.cols is base.cols and got.rows is base.rows
    assert base.b.tobytes() == base_b.tobytes()
    assert rows_as_lists(base) == base_rows


def test_with_loss_profile_rejects_other_rules(toy10_builds):
    relaxed, _ = toy10_builds  # built under EndogenousMax
    with pytest.raises(ModelError):
        relaxed.with_loss_profile(FixedProfile.constant(100.0, 6))
    base = build_uc(relaxed.scenario, FixedProfile.constant(0.0, 6), relaxed=True)
    for horizon in (5, 7):
        with pytest.raises(ModelError):
            base.with_loss_profile(FixedProfile.constant(100.0, horizon))
