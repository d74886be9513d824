"""The relaxation on class columns against its per-unit oracle.

``build_uc(relaxed=True)`` holds one column block per class of identical
units. Each fixture is also built with a unique technology label per unit
(``oracles.classes_of_one``), which gives the per-unit LP. The class solve is
lifted onto the per-unit arrays, and the lift must be an optimal primal-dual
pair there, within the solver's own tolerances.
"""
from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from asmarket import lp, solve
from asmarket.pricing import AUDIT_TOL, duality_audit
from asmarket.scenario import gb_template
from asmarket.solve import DUALITY_TOL, FEAS_TOL, solve_relaxed
from asmarket.ucmodel import (
    K_E0CAP,
    K_EEND,
    K_MAXLOSS,
    K_MDT,
    K_MUTEX,
    V_E,
    V_E0,
    V_EFRS,
    V_P,
    V_PCHA,
    V_PDIS,
    V_PFRG,
    V_PFRS,
    V_PRES,
    V_Y,
    V_YCHA,
    V_YDIS,
    V_YSD,
    V_YSG,
    V_YST,
    EndogenousMax,
    FixedProfile,
    build_uc,
)
from conftest import binding_scenario, toy10_scenario, with_initial_state
from oracles import as_scipy, class_map, classes_of_one


def tripled(sc):
    """Every unit of ``sc`` three times."""
    def copies(units):
        return tuple(replace(u, id=f"{u.id}_{k}") for u in units for k in (1, 2, 3))

    return replace(
        sc,
        generators=copies(sc.generators),
        res_units=copies(sc.res_units),
        storage_units=copies(sc.storage_units),
    )


def lp_solve(model):
    """The LP outcome and cut pool behind ``solve_relaxed(model)``."""
    pool = solve._CutPool(model)
    out = solve._oa_solve(pool, None, solve.SolveStats())
    assert out.status == lp.OPTIMAL
    return out, pool


def lift(model, oracle, out):
    """The class solution ``out`` of ``model`` on the per-unit ``oracle``:
    every member takes its class's values, and its class's per-unit row and
    bound duals divided by the class size."""
    classes = class_map(model)
    size = lambda unit: 1 if unit is None else len(classes[unit])
    rep = lambda unit: None if unit is None else classes[unit][0]
    x = np.empty(oracle.n_vars)
    lower, upper = np.empty(oracle.n_vars), np.empty(oracle.n_vars)
    for (kind, unit), idx in oracle.cols.items():
        src = model.cols[(kind, rep(unit))]
        x[idx] = out.x[src]
        lower[idx] = out.lower_marginals[src] / size(unit)
        upper[idx] = out.upper_marginals[src] / size(unit)
    rows = np.empty(len(oracle.b))
    for (kind, unit), idx in oracle.rows.items():
        rows[idx] = out.row_marginals[model.rows[(kind, rep(unit))]] / size(unit)
    return SimpleNamespace(
        x=x,
        row_marginals=np.concatenate([rows, out.row_marginals[len(model.b):]]),
        lower_marginals=lower,
        upper_marginals=upper,
    )


def shifted_loss(model, t, eps):
    """``model`` with every max-loss row of hour ``t`` asking ``eps`` MW more."""
    b = model.b.copy()
    hour_t = [int(idx[t]) for (kind, _), idx in model.rows.items() if kind == K_MAXLOSS]
    b[hour_t] -= eps  # p_loss >= L + eps and p <= p_loss - eps, both held as <=
    return replace(model, b=b)


FIXTURES = {
    "toy10x3-endogenous": (lambda: tripled(toy10_scenario(6)), EndogenousMax()),
    "gb6-endogenous": (lambda: gb_template(6), EndogenousMax()),
    "gb6-1800": (lambda: gb_template(6), FixedProfile.constant(1800.0, 6)),
    "gb1-1000": (lambda: gb_template(1), FixedProfile.constant(1000.0, 1)),
}


@pytest.fixture(scope="module", params=list(FIXTURES))
def pair(request):
    """The class model and the per-unit oracle of one fixture, each solved."""
    make, rule = FIXTURES[request.param]
    sc = make()
    model = build_uc(sc, rule, relaxed=True)
    oracle = build_uc(classes_of_one(sc), rule, relaxed=True)
    assert model.n_vars < oracle.n_vars
    return SimpleNamespace(
        sc=sc, model=model, oracle=oracle, solved=solve_relaxed(model), oracle_solved=solve_relaxed(oracle)
    )


def test_objective_matches_oracle(pair):
    assert pair.solved[0].objective == pytest.approx(pair.oracle_solved[0].objective, rel=1e-9)


def test_lift_is_optimal_on_oracle_arrays(pair):
    model, oracle = pair.model, pair.oracle
    out, pool = lp_solve(model)
    lifted = lift(model, oracle, out)
    # the same cuts on the oracle's columns; both pools start from the v >= 0 facets
    T = pair.sc.horizon
    oracle_pool = solve._CutPool(oracle)
    oracle_pool.add(pool.t[T:], pool.a1[T:], pool.a2[T:])
    solve._verify_feasibility(oracle, lifted.x, FEAS_TOL)
    objective = float(oracle.c @ lifted.x)
    scale = max(1.0, abs(objective))
    assert objective == pytest.approx(out.objective, rel=1e-9)
    assert abs(solve._dual_objective(oracle, lifted) - objective) <= DUALITY_TOL * scale
    assert solve._max_cs_residual(oracle_pool, lifted) <= DUALITY_TOL * scale
    # dual feasibility: the lifted multipliers price every column at its cost
    a = sparse.vstack([as_scipy(oracle.a), as_scipy(oracle_pool.rows)], format="csr")
    reduced_cost = oracle.c - a.T @ lifted.row_marginals - lifted.lower_marginals - lifted.upper_marginals
    assert np.max(np.abs(reduced_cost)) <= DUALITY_TOL * max(1.0, np.max(np.abs(oracle.c)))


def test_lifted_duals_pass_the_audit(pair):
    model = pair.model
    dispatch, duals, _ = pair.solved
    assert duality_audit(dispatch, duals, pair.sc).identity_residual_rel <= AUDIT_TOL
    for members in set(class_map(model).values()):
        for table in (duals.psi_max_y, duals.psi_mdt, duals.psi_cf, duals.psi_max_ydis, duals.psi_ini):
            if members[0] in table:
                assert all(np.array_equal(table[uid], table[members[0]]) for uid in members)


def test_omega_inside_its_brackets(pair):
    # V is convex in the loss asked for, so one-sided difference quotients
    # bound omega from both sides for any step; the class model has the
    # per-unit model's value function
    model = pair.model
    dispatch, duals, _ = pair.solved
    oracle_dispatch, oracle_duals, _ = pair.oracle_solved
    total = dispatch.p_loss_mw @ duals.omega_loss
    assert total == pytest.approx(oracle_dispatch.p_loss_mw @ oracle_duals.omega_loss, rel=1e-7)
    eps = 1.0
    noise = 1e-9 * max(1.0, abs(dispatch.objective)) / eps
    for t in range(pair.sc.horizon):
        up = solve_relaxed(shifted_loss(model, t, eps))[0].objective
        down = solve_relaxed(shifted_loss(model, t, -eps))[0].objective
        left, right = (dispatch.objective - down) / eps, (up - dispatch.objective) / eps
        assert left - noise <= duals.omega_loss[t] <= right + noise, (t, left, right)


def test_initial_state_splits_a_class():
    sc = with_initial_state(tripled(binding_scenario()), on={"g1_1"})
    model = build_uc(sc, FixedProfile.constant(100.0, 3), relaxed=True)
    classes = class_map(model)
    assert classes["g1_1"] == ("g1_1",)
    assert classes["g1_3"] == ("g1_2", "g1_3")
    assert classes["b1_2"] == ("b1_1", "b1_2", "b1_3")
    oracle = build_uc(classes_of_one(sc), FixedProfile.constant(100.0, 3), relaxed=True)
    assert solve_relaxed(model)[0].objective == pytest.approx(solve_relaxed(oracle)[0].objective, rel=1e-9)


def test_gb6_class_model_size():
    sc = gb_template(6)
    model = build_uc(sc, EndogenousMax(), relaxed=True)
    assert model.n_vars == 344
    assert len(set(class_map(model).values())) == 11
    # the mixed-integer form keeps one block per unit
    assert build_uc(sc, EndogenousMax(), relaxed=False).n_vars == 12_272


@pytest.mark.parametrize("rule", [EndogenousMax(), FixedProfile.constant(300.0, 6)], ids=["endogenous", "fixed"])
def test_toy10_relaxation_is_the_per_unit_lp(rule):
    # toy10 has no two identical units: its arrays are the oracle's, bit for bit
    sc = toy10_scenario(6)
    got, want = build_uc(sc, rule, relaxed=True), build_uc(classes_of_one(sc), rule, relaxed=True)
    for name in ("c", "lb", "ub", "b", "row_lower"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("data", "indices", "indptr"):
        assert getattr(got.a, name).tobytes() == getattr(want.a, name).tobytes(), name
    for index in ("rows", "cols"):
        got_index, want_index = getattr(got, index), getattr(want, index)
        assert {k: v.tolist() for k, v in got_index.items()} == {k: v.tolist() for k, v in want_index.items()}


# ---------------------------------------------------------------------------
# The lift reads each class once: its members share one read-only array per
# field, equal bit for bit to reading every member's columns on its own.

# field: (units it covers, column kind or row kind, and for bound duals the
# bound it prices)
DISPATCH_KINDS = {
    "gen_p": ("generators", V_P), "gen_pfr": ("generators", V_PFRG),
    "gen_commit": ("generators", V_Y), "res_p": ("res_units", V_PRES),
    "sto_charge": ("storage_units", V_PCHA), "sto_discharge": ("storage_units", V_PDIS),
    "sto_cha_mode": ("storage_units", V_YCHA), "sto_dis_mode": ("storage_units", V_YDIS),
    "sto_soc": ("storage_units", V_E), "sto_pfr": ("storage_units", V_PFRS),
    "sto_efr": ("storage_units", V_EFRS), "sto_e0": ("storage_units", V_E0),
}
BOUND_DUALS = {
    "psi_max_y": ("generators", V_Y, "ub"), "psi_max_yst": ("generators", V_YST, "ub"),
    "psi_max_ysg": ("generators", V_YSG, "ub"), "psi_max_ysd": ("generators", V_YSD, "ub"),
    "psi_cf": ("res_units", V_PRES, "ub"), "psi_e_min": ("storage_units", V_E, "lb"),
    "psi_e_max": ("storage_units", V_E, "ub"), "psi_max_ycha": ("storage_units", V_YCHA, "ub"),
    "psi_max_ydis": ("storage_units", V_YDIS, "ub"),
}
ROW_DUALS = {
    "psi_mdt": ("generators", K_MDT), "psi_mutex": ("storage_units", K_MUTEX),
    "psi_ini": ("storage_units", K_E0CAP), "psi_end": ("storage_units", K_EEND),
}

LIFT_FIXTURES = {
    "gb1-1000": (lambda: gb_template(1), FixedProfile.constant(1000.0, 1)),
    "gb6-endogenous": (lambda: gb_template(6), EndogenousMax()),
    "toy10x3-endogenous": (lambda: tripled(toy10_scenario(6)), EndogenousMax()),
}


@pytest.fixture(scope="module", params=list(LIFT_FIXTURES))
def lifted_solve(request):
    """A class model, ``solve_relaxed`` on it, and the LP outcome behind that."""
    make, rule = LIFT_FIXTURES[request.param]
    sc = make()
    model = build_uc(sc, rule, relaxed=True)
    dispatch, duals, _ = solve_relaxed(model)
    out, _ = lp_solve(model)
    assert dispatch.objective == out.objective  # the same deterministic solve
    return SimpleNamespace(sc=sc, model=model, dispatch=dispatch, duals=duals, out=out)


def per_unit_tables(s):
    """Every per-unit field of the returned dispatch and duals, by name."""
    return {name: getattr(s.dispatch, name) for name in DISPATCH_KINDS} | {
        name: getattr(s.duals, name) for name in [*BOUND_DUALS, *ROW_DUALS]
    }


def test_lift_reads_every_member_by_the_rule(lifted_solve):
    # today's rule, unit by unit: x at the class's columns, and each dual of
    # the class's columns or rows divided by the class size
    s = lifted_solve
    model, out = s.model, s.out
    psi = {
        "ub": np.where(np.isfinite(model.ub), -out.upper_marginals, 0.0),
        "lb": np.where(np.isfinite(model.lb), out.lower_marginals, 0.0),
    }

    classes = class_map(model)

    def rule(name, uid):
        rep, n = classes[uid][0], len(classes[uid])
        if name == "sto_e0":
            return float(out.x[model.vid(V_E0, rep, 0)])
        if name in DISPATCH_KINDS:
            return out.x[model.cols[(DISPATCH_KINDS[name][1], rep)]]
        if name in BOUND_DUALS:
            _, kind, bound = BOUND_DUALS[name]
            return psi[bound][model.cols[(kind, rep)]] / n
        # the class's rows by hour (one row for psi_ini and psi_end)
        mu = -out.row_marginals[model.rows[(ROW_DUALS[name][1], rep)]] / n
        return mu[0] if name in ("psi_ini", "psi_end") else mu

    groups = DISPATCH_KINDS | BOUND_DUALS | ROW_DUALS
    for name, got in per_unit_tables(s).items():
        units = getattr(s.sc, groups[name][0])
        assert list(got) == [u.id for u in units], name  # every unit, in scenario order
        for uid, value in got.items():
            assert np.asarray(value).tobytes() == np.asarray(rule(name, uid)).tobytes(), (name, uid)


def test_aggregates_are_unit_by_unit_sums(lifted_solve):
    sc, d = lifted_solve.sc, lifted_solve.dispatch
    T = sc.horizon
    inertia, pfr_g, pfr_s, efr = np.zeros(T), np.zeros(T), np.zeros(T), np.zeros(T)
    for g in sc.generators:
        inertia += g.inertia_s * g.p_max_mw * d.gen_commit[g.id]
        pfr_g += d.gen_pfr[g.id]
    for s in sc.storage_units:
        if s.inertia_s > 0:
            inertia += s.inertia_s * s.p_max_mw * (d.sto_cha_mode[s.id] + d.sto_dis_mode[s.id])
        pfr_s += d.sto_pfr[s.id]
        efr += d.sto_efr[s.id]
    assert d.inertia_mws.tobytes() == inertia.tobytes()
    assert d.pfr_mw.tobytes() == (pfr_g + pfr_s).tobytes()
    assert d.efr_mw.tobytes() == efr.tobytes()


def test_members_share_one_read_only_array(lifted_solve):
    classes = class_map(lifted_solve.model)
    shared = 0
    for name, table in per_unit_tables(lifted_solve).items():
        for uid, value in table.items():
            members = classes[uid]
            assert value is table[members[0]], (name, uid)
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, (name, uid)
                shared += len(members) > 1
    assert shared > 0
    value = lifted_solve.duals.psi_max_y[lifted_solve.sc.generators[0].id]
    with pytest.raises(ValueError):
        value[0] = 1.0
    with pytest.raises(ValueError):
        lifted_solve.dispatch.sto_soc[lifted_solve.sc.storage_units[-1].id] += 1.0


# ---------------------------------------------------------------------------
# The class map: units equal in every field but ``id``, and nothing else


def reference_classes(sc):
    """Each unit's class, grouped on a copy of the unit with its id blanked."""
    classes = {}
    for units in (sc.generators, sc.res_units, sc.storage_units):
        by_key = {}
        for u in units:
            by_key.setdefault(replace(u, id=""), []).append(u.id)
        classes.update((uid, tuple(members)) for members in by_key.values() for uid in members)
    return classes


# phes_2's 1600 MWh is its e_ini: it stays in its class
@pytest.mark.parametrize("state", [
    {},
    {"on": {"ccgt_3"}, "e0": {"bess_7": 10.0, "phes_2": 1600.0}},
], ids=["cold", "initial-state"])
def test_class_map_matches_the_reference_key(state):
    sc = with_initial_state(gb_template(6), **state)
    classes = class_map(build_uc(sc, EndogenousMax(), relaxed=True))
    assert classes == reference_classes(sc)
    for uid, members in classes.items():
        assert members is classes[members[0]], uid  # one tuple per class


def test_one_changed_field_splits_a_member_off():
    sc = gb_template(1)
    storage = list(sc.storage_units)
    k = next(i for i, u in enumerate(storage) if u.id == "bess_17")
    storage[k] = replace(storage[k], efr_max_mw=storage[k].efr_max_mw / 2)
    sc = replace(sc, storage_units=tuple(storage))
    classes = class_map(build_uc(sc, FixedProfile.constant(1000.0, 1), relaxed=True))
    assert classes == reference_classes(sc)
    assert classes["bess_17"] == ("bess_17",)
    assert len(classes["bess_1"]) == 199 and "bess_17" not in classes["bess_1"]


def test_class_tables_are_the_models_record():
    # the mixed-integer build: classes of one, in scenario order
    sc = gb_template(1)
    mip = build_uc(sc, EndogenousMax(), relaxed=False)
    groups = (sc.generators, sc.res_units, sc.storage_units)
    for table, units in zip(mip.class_tables, groups):
        ids = tuple(u.id for u in units)
        assert table.ids == ids and table.specs == units
        assert table.members == tuple((uid,) for uid in ids)
        assert table.sizes.tolist() == [1.0] * len(ids) and table.pos == tuple(range(len(ids)))
    # the relaxed build: the reference classes, each headed by its spec
    model = build_uc(sc, FixedProfile.constant(1000.0, 1), relaxed=True)
    assert class_map(model) == reference_classes(sc)
    for table in model.class_tables:
        assert [u.id for u in table.specs] == [members[0] for members in table.members]
        assert table.sizes.tolist() == [len(members) for members in table.members]
    # a re-targeted model shares its tables
    retargeted = model.with_loss_profile(FixedProfile.constant(1800.0, 1))
    assert retargeted.class_tables is model.class_tables
