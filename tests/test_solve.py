import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from asmarket import lp, solve
from asmarket.frequency import nadir_residual, nadir_terms
from asmarket.scenario import RESSpec, Scenario, SystemParams, gb_template
from asmarket.solve import (
    CONE_REL_TOL,
    FEAS_TOL,
    InfeasibleError,
    SolverError,
    solve_fixed_binaries,
    solve_mip,
    solve_relaxed,
)
from asmarket.ucmodel import (
    V_E0,
    V_EFRT,
    V_H,
    V_PFRT,
    V_PLOSS,
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
from conftest import bess, binding_scenario, gen, hour_one_shutdown_scenario, single_gen_scenario, toy10_scenario
from oracles import as_scipy, enumerate_commitments


def plain_gen_scenario(horizon=2, demand=60.0):
    # no inertia/PFR offers: commitment is costless, prices are pure energy
    return Scenario(
        params=SystemParams(),
        horizon=horizon,
        demand_mw=(demand,) * horizon,
        generators=(gen("g1", 100.0, 0.0, 5.0, 50.0, 40.0, 0.0, 0.0),),
    )


class TestRelaxed:
    def test_marginal_price_equals_offer(self):
        sc = plain_gen_scenario()
        m = build_uc(sc, FixedProfile.constant(0.0, 2), relaxed=True)
        dispatch, duals, stats = solve_relaxed(m)
        assert dispatch.gen_p["g1"] == pytest.approx([60.0, 60.0])
        assert duals.lambda_e == pytest.approx([40.0, 40.0])
        assert stats.rel_duality_gap <= 1e-6

    def test_rocof_only_binding(self):
        # free PFR and a slack nadir leave RoCoF as the only binding AS row
        params = SystemParams(delta_f_max_hz=40.0)
        sc = Scenario(
            params=params,
            horizon=1,
            demand_mw=(300.0,),
            generators=(gen("g1", 1000.0, 0.0, 5.0, 1000.0, 40.0, 0.5, 0.0),),
        )
        m = build_uc(sc, FixedProfile.constant(100.0, 1), relaxed=True)
        _, duals, _ = solve_relaxed(m)
        assert duals.mu_rocof[0] > 1e-6
        assert duals.mu_qss[0] == pytest.approx(0.0, abs=1e-9)
        for mu in (duals.mu_nadir_1, duals.mu_nadir_2, duals.mu_nadir_3):
            assert mu[0] == pytest.approx(0.0, abs=1e-9)

    def test_strong_duality_and_cs(self):
        m = build_uc(binding_scenario(), FixedProfile.constant(100.0, 3), relaxed=True)
        dispatch, duals, stats = solve_relaxed(m)
        assert stats.rel_duality_gap <= 1e-6
        assert stats.max_cs_residual <= 1e-6 * max(1.0, abs(dispatch.objective))

    def test_multipliers_sign_correct(self):
        m = build_uc(binding_scenario(), FixedProfile.constant(100.0, 3), relaxed=True)
        _, duals, _ = solve_relaxed(m)
        for arr in (duals.mu_rocof, duals.mu_qss, duals.omega_loss, duals.mu_nadir_3):
            assert np.all(arr >= -1e-9)
        # dual cone membership of the nadir triple
        assert np.all(
            np.hypot(duals.mu_nadir_1, duals.mu_nadir_2) <= duals.mu_nadir_3 + 1e-9
        )
        for d in (duals.psi_max_y, duals.psi_mdt, duals.psi_e_max, duals.psi_mutex):
            for arr in d.values():
                assert np.all(np.asarray(arr) >= -1e-9)

    def test_aggregates_equal_defining_sums(self):
        m = build_uc(binding_scenario(), FixedProfile.constant(100.0, 3), relaxed=True)
        dispatch, _, _ = solve_relaxed(m)
        sc = binding_scenario()
        h = sum(
            g.inertia_s * g.p_max_mw * dispatch.gen_commit[g.id] for g in sc.generators
        )
        assert dispatch.inertia_mws == pytest.approx(h, abs=0.0)
        pfr = sum(dispatch.gen_pfr[g.id] for g in sc.generators) + sum(
            dispatch.sto_pfr[s.id] for s in sc.storage_units
        )
        assert dispatch.pfr_mw == pytest.approx(pfr, abs=0.0)

    def test_qss_holds(self):
        m = build_uc(binding_scenario(), FixedProfile.constant(100.0, 3), relaxed=True)
        dispatch, _, _ = solve_relaxed(m)
        assert np.all(dispatch.efr_mw + dispatch.pfr_mw >= dispatch.p_loss_mw - 1e-6)

    def test_objective_monotone_in_loss_cap(self):
        objs = []
        for loss in (60.0, 80.0, 100.0, 110.0):
            m = build_uc(binding_scenario(), FixedProfile.constant(loss, 3), relaxed=True)
            dispatch, _, _ = solve_relaxed(m)
            objs.append(dispatch.objective)
        assert all(b >= a - 1e-9 * max(1, abs(a)) for a, b in zip(objs, objs[1:]))

    def test_requires_relaxed_model(self):
        m = build_uc(binding_scenario(), EndogenousMax(), relaxed=False)
        with pytest.raises(ValueError):
            solve_relaxed(m)

    def test_converged_stop_is_reported(self):
        m = build_uc(binding_scenario(), FixedProfile.constant(100.0, 3), relaxed=True)
        _, _, stats = solve_relaxed(m)
        assert stats.stop_reason == "converged"
        assert stats.oa_rounds >= 1
        assert 0.0 <= stats.final_cone_residual <= CONE_REL_TOL

    def test_grace_acceptance_is_reported(self, monkeypatch):
        # a violation inside FEAS_TOL on every round: only the grace rule stops the loop
        def within_feas_tol(model, x):
            scaled = np.zeros(model.scenario.horizon)
            scaled[0] = FEAS_TOL / 2
            return np.zeros_like(scaled), np.zeros_like(scaled), scaled

        monkeypatch.setattr(solve, "_cone_violations", within_feas_tol)
        m = build_uc(binding_scenario(), FixedProfile.constant(100.0, 3), relaxed=True)
        _, _, stats = solve_relaxed(m)
        assert stats.stop_reason == "graced"
        assert stats.oa_rounds == 51
        assert CONE_REL_TOL < stats.final_cone_residual <= FEAS_TOL

        m = build_uc(binding_scenario(), FixedProfile.constant(100.0, 3), relaxed=False)
        _, _, stats = solve_mip(m)
        assert stats.stop_reason == "graced"
        assert CONE_REL_TOL < stats.final_cone_residual <= FEAS_TOL


class TestInfeasibility:
    def test_infeasible_loss_names_max_loss(self):
        # toy10 cannot secure a 5 GW loss in any hour: one hour's max-loss row,
        # its RoCoF row and its inertia aggregation are already infeasible
        m = build_uc(toy10_scenario(6), FixedProfile.constant(5000.0, 6), relaxed=True)
        with pytest.raises(InfeasibleError) as err:
            solve_relaxed(m)
        assert err.value.certificate == "max loss"
        assert err.value.by_class == {"max loss": 1, "RoCoF": 1, "inertia_aggregation": 1}

    @pytest.mark.parametrize("relaxed", [True, False], ids=["relaxed", "mip"])
    def test_doubled_demand_names_energy_balance(self, relaxed):
        # the IIS joins one balance row to the security rows; a binary mode
        # row is in it too but does not take the blame
        sc = toy10_scenario(6)
        sc = dataclasses.replace(sc, demand_mw=tuple(2.0 * d for d in sc.demand_mw))
        m = build_uc(sc, FixedProfile.constant(300.0, 6), relaxed=relaxed)
        with pytest.raises(InfeasibleError) as err:
            (solve_relaxed if relaxed else solve_mip)(m)
        assert err.value.certificate == "energy balance"
        assert err.value.by_class["energy balance"] == 1
        assert err.value.by_class["storage_mode_exclusion"] == 1


class TestVerifyFeasibility:
    @pytest.fixture(scope="class")
    def solved(self):
        model = build_uc(toy10_scenario(6), FixedProfile.constant(300.0, 6), relaxed=True)
        out = lp.solve_lp(lp.LpSession(model.c, model.a, model.row_lower, model.b, model.lb, model.ub))
        assert out.status == lp.OPTIMAL
        return model, out.x

    def test_accepts_solved_point(self, solved):
        model, x = solved
        solve._verify_feasibility(model, x, 1e-6)

    def test_rejects_point_off_equality_row(self, solved):
        model, x = solved
        x = x.copy()
        x[model.vid(V_PRES, "wind1", 0)] -= 1.0  # wind enters no row but balance[0]
        with pytest.raises(SolverError, match=r"balance\[0\]"):
            solve._verify_feasibility(model, x, 1e-6)

    def test_names_a_unit_row_by_unit_and_hour(self, solved):
        # e0 enters its e_dyn row at hour 0 (scaled by 1) and its e_ini cap
        # (scaled by e_ini), so the energy-dynamics row is the worst
        model, x = solved
        x = x.copy()
        x[model.vid(V_E0, "bess1", 0)] += 1000.0
        with pytest.raises(SolverError, match=r"row storage_energy_dynamics\[bess1,0\] violated"):
            solve._verify_feasibility(model, x, 1e-6)

    def test_rejects_point_below_ge_row(self, solved):
        # max_loss[0] is p_loss >= 300, held negated as -p_loss <= -300; a
        # smaller p_loss only loosens the RoCoF and QSS rows
        model, x = solved
        x = x.copy()
        x[model.vid(V_PLOSS, None, 0)] -= 1.0
        with pytest.raises(SolverError, match=r"max_loss\[0\]"):
            solve._verify_feasibility(model, x, 1e-6)


class TestCutPool:
    CONE = (V_H, V_EFRT, V_PFRT, V_PLOSS)  # the order of nadir_terms' arguments

    @pytest.fixture(scope="class")
    def model(self):
        return build_uc(toy10_scenario(6), EndogenousMax(), relaxed=True)

    def test_rows_are_the_cut_terms(self, model):
        # a1*u1 + a2*u2 - v at random points, for the v >= 0 facets and for
        # random unit directions, against the cone terms of frequency.py
        rng = np.random.default_rng(11)
        T = model.scenario.horizon
        pool = solve._CutPool(model)
        angle = rng.uniform(0.0, 2.0 * np.pi, 60)
        pool.add(rng.integers(0, T, 60), np.cos(angle), np.sin(angle))
        rows = as_scipy(pool.rows)
        assert rows.shape == (T + 60, model.n_vars)
        assert np.array_equal(pool.t[:T], np.arange(T)) and not pool.a1[:T].any() and not pool.a2[:T].any()
        assert np.all(np.diff(rows.indptr) == 4)
        cone_cols = [model.cols[(kind, None)] for kind in self.CONE]
        for k, t in enumerate(pool.t):
            assert sorted(rows.indices[4 * k: 4 * k + 4]) == sorted(int(c[t]) for c in cone_cols)
        for _ in range(20):
            x = rng.normal(0.0, 1e3, model.n_vars)
            got = rows @ x
            scale = abs(rows) @ np.abs(x)
            for k, t in enumerate(pool.t):
                u1, u2, v = nadir_terms(*(x[c[t]] for c in cone_cols), model.scenario.params)
                want = pool.a1[k] * u1 + pool.a2[k] * u2 - v
                assert abs(got[k] - want) <= 1e-12 * scale[k], (k, got[k], want)

    def test_cone_violations_match_nadir_residual(self, model):
        # scaled residuals bit for bit against frequency.nadir_residual, hour by hour
        rng = np.random.default_rng(12)
        params = model.scenario.params
        cone_cols = [model.cols[(kind, None)] for kind in self.CONE]
        for _ in range(2000):
            x = rng.normal(0.0, 1e3, model.n_vars)
            u1, u2, scaled = solve._cone_violations(model, x)
            for t in range(model.scenario.horizon):
                point = [x[c[t]] for c in cone_cols]
                w1, w2, v = nadir_terms(*point, params)
                assert (u1[t], u2[t]) == (w1, w2)
                assert scaled[t] == nadir_residual(*point, params) / max(1.0, abs(v), math.hypot(w1, w2))

    def test_cut_multipliers_match_a_loop(self):
        # mu_nadir_1/2/3 bit for bit against adding each cut's multiplier in cut order
        model = build_uc(gb_template(6), EndogenousMax(), relaxed=True)
        pool, stats = solve._CutPool(model), solve.SolveStats()
        out = solve._solve_root(pool, stats)
        duals = solve._duals_from(pool, out)
        assert len(pool.t) > model.scenario.horizon
        mu = np.zeros((3, model.scenario.horizon))
        for t, a1, a2, m in zip(pool.t, pool.a1, pool.a2, out.row_marginals[len(model.b):]):
            nu = -m
            mu[0][t] += nu * a1
            mu[1][t] += nu * a2
            mu[2][t] += nu
        for got, want in zip((duals.mu_nadir_1, duals.mu_nadir_2, duals.mu_nadir_3), mu):
            assert got.tobytes() == want.tobytes()
        assert np.any(mu[2] > 0)


class TestWarmStart:
    @pytest.mark.parametrize(
        "scenario, loss",
        [
            (binding_scenario, lambda: FixedProfile.constant(100.0, 3)),
            (lambda: toy10_scenario(6), EndogenousMax),
        ],
        ids=["binding", "toy10-6h"],
    )
    def test_final_lp_solved_cold_gives_same_objective(self, monkeypatch, scenario, loss):
        # the warm OA rounds must end where a cold solve of base rows + all
        # cuts ends; duals of this degenerate LP need not be unique, so only
        # the objective is compared
        model = build_uc(scenario(), loss(), relaxed=True)
        real = solve._oa_solve
        seen = []

        def spy(pool, *rest):
            seen.append(pool)
            return real(pool, *rest)

        monkeypatch.setattr(solve, "_oa_solve", spy)
        dispatch, _, stats = solve_relaxed(model)
        pool = seen[-1]
        assert stats.cuts == len(pool.t) > model.scenario.horizon  # more than the v >= 0 cuts
        eq = np.isfinite(model.row_lower)
        cold = linprog(
            model.c,
            A_ub=sparse.vstack([as_scipy(model.a)[~eq], as_scipy(pool.rows)]),
            b_ub=np.concatenate([model.b[~eq], np.zeros(len(pool.t))]),
            A_eq=as_scipy(model.a)[eq],
            b_eq=model.b[eq],
            bounds=np.column_stack([model.lb, model.ub]),
            method="highs",
            options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9},
        )
        assert cold.status == 0
        assert dispatch.objective == pytest.approx(cold.fun, rel=1e-9)


class TestMip:
    def test_unconstrained_dispatch(self):
        sc = plain_gen_scenario(horizon=2, demand=60.0)
        m = build_uc(sc, FixedProfile.constant(0.0, 2), relaxed=False)
        schedule, dispatch, stats = solve_mip(m)
        assert dispatch.gen_p["g1"] == pytest.approx([60.0, 60.0])
        assert dispatch.objective == pytest.approx(2 * 60.0 * 40.0)
        assert stats.rel_mip_gap <= 1e-6

    def test_infeasible_names_energy_balance(self):
        sc = plain_gen_scenario(horizon=1, demand=60.0)
        sc = Scenario(
            params=sc.params, horizon=1, demand_mw=(500.0,), generators=sc.generators
        )
        m = build_uc(sc, FixedProfile.constant(0.0, 1), relaxed=False)
        with pytest.raises(InfeasibleError) as err:
            solve_mip(m)
        assert err.value.certificate == "energy balance"

    def test_matches_enumeration_small(self):
        # 1 generator, 2 hours: 8 binaries
        sc = single_gen_scenario(horizon=2, demand=60.0)
        m = build_uc(sc, FixedProfile.constant(0.0, 2), relaxed=False)
        _, dispatch, _ = solve_mip(m)
        best, _ = enumerate_commitments(m)
        assert dispatch.objective == pytest.approx(best, rel=1e-6)

    def test_relaxation_bounds_mip(self):
        sc = binding_scenario()
        mip_model = build_uc(sc, FixedProfile.constant(100.0, 3), relaxed=False)
        rel_model = build_uc(sc, FixedProfile.constant(100.0, 3), relaxed=True)
        _, mip_dispatch, _ = solve_mip(mip_model)
        rel_dispatch, _, _ = solve_relaxed(rel_model)
        assert rel_dispatch.objective <= mip_dispatch.objective + 1e-6

    def test_transition_identity_and_mutex(self):
        sc = binding_scenario()
        m = build_uc(sc, FixedProfile.constant(100.0, 3), relaxed=False)
        schedule, _, _ = solve_mip(m)
        for g in sc.generators:
            prev = 0
            for t in range(sc.horizon):
                assert (
                    schedule.gen_on[g.id][t]
                    == prev + schedule.gen_start_gen[g.id][t] - schedule.gen_shut_down[g.id][t]
                )
                prev = schedule.gen_on[g.id][t]
        for s in sc.storage_units:
            assert np.all(schedule.sto_charging[s.id] + schedule.sto_discharging[s.id] <= 1)

    def test_budget_flagging(self, monkeypatch):
        monkeypatch.setattr(solve, "MAX_NODES", 1)
        sc = binding_scenario()
        m = build_uc(sc, FixedProfile.constant(100.0, 3), relaxed=False)
        schedule, dispatch, stats = solve_mip(m)
        assert stats.budget_exhausted
        assert stats.stop_reason == "budget"
        assert dispatch.objective > 0  # heuristic incumbent returned

    def test_zero_node_budget_flagging(self, monkeypatch):
        monkeypatch.setattr(solve, "MAX_NODES", 0)
        sc = binding_scenario()
        m = build_uc(sc, FixedProfile.constant(100.0, 3), relaxed=False)
        _, dispatch, stats = solve_mip(m)
        assert stats.budget_exhausted
        assert stats.stop_reason == "budget"
        assert stats.nodes == 0
        assert dispatch.objective > 0  # heuristic incumbent returned

    def test_binaries_resolved_cold_give_same_objective(self):
        # the search shares one warm session across nodes; its commitment,
        # solved cold on a fresh session, must give the same dispatch cost
        sc = toy10_scenario(6)
        m = build_uc(sc, EndogenousMax(), relaxed=False)
        schedule, dispatch, stats = solve_mip(m)
        values = {}
        for kind, series in (
            (V_Y, schedule.gen_on),
            (V_YST, schedule.gen_start_up),
            (V_YSG, schedule.gen_start_gen),
            (V_YSD, schedule.gen_shut_down),
            (V_YCHA, schedule.sto_charging),
            (V_YDIS, schedule.sto_discharging),
        ):
            for unit, bits in series.items():
                for t, bit in enumerate(bits):
                    values[m.vid(kind, unit, t)] = int(bit)
        assert set(values) == set(m.binary_indices)
        cold, _ = solve_fixed_binaries(m, values)
        assert dispatch.objective == pytest.approx(cold, rel=1e-9)
        assert stats.rel_mip_gap <= 1e-6
        relaxed, _, _ = solve_relaxed(build_uc(sc, EndogenousMax(), relaxed=True))
        assert dispatch.objective >= relaxed.objective

    def test_polish_failure_raises(self, monkeypatch):
        sc = binding_scenario()
        m = build_uc(sc, FixedProfile.constant(100.0, 3), relaxed=False)
        real = solve._oa_solve
        calls = []

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(solve, "_oa_solve", counting)
        solve_mip(m)
        polish_call = len(calls)  # the polish is the last OA solve
        assert set(calls[-1]) == set(m.binary_indices)

        def failing_polish(*args):
            calls.append(args[1])
            out = real(*args)
            if len(calls) == polish_call:
                out.status, out.message = lp.ITERATION_LIMIT, "iteration limit reached"
            return out

        calls.clear()
        monkeypatch.setattr(solve, "_oa_solve", failing_polish)
        with pytest.raises(SolverError, match="polish") as err:
            solve_mip(m)
        assert not isinstance(err.value, InfeasibleError)
        assert "iteration limit reached" in str(err.value)

    def test_polished_point_is_verified(self, monkeypatch):
        # the polish's point is checked against every row like a relaxed
        # solve's: moved below max_loss[0] (p_loss >= 100), it is refused
        sc = binding_scenario()
        m = build_uc(sc, FixedProfile.constant(100.0, 3), relaxed=False)
        real = solve._oa_solve

        def shifted_polish(pool, patch, stats):
            out = real(pool, patch, stats)
            if patch is not None and set(patch) == set(m.binary_indices):
                out.x = out.x.copy()
                out.x[m.vid(V_PLOSS, None, 0)] -= 1.0
            return out

        monkeypatch.setattr(solve, "_oa_solve", shifted_polish)
        with pytest.raises(SolverError, match=r"row max_loss\[0\] violated"):
            solve_mip(m)

    @pytest.mark.parametrize("rel_gap", [math.nan, math.inf, -math.inf, -1.0, -1e-12])
    def test_invalid_rel_gap_raises(self, rel_gap):
        m = build_uc(binding_scenario(), FixedProfile.constant(100.0, 3), relaxed=False)
        with pytest.raises(ValueError, match="rel_gap must be finite and non-negative"):
            solve_mip(m, rel_gap=rel_gap)

    @staticmethod
    def node_first_lps(monkeypatch, model):
        """``solve_mip(model)`` with every branch-and-bound node's first LP
        recorded as (its outcome, whether a cut row follows it before any
        other LP). Nodes are the only callers of ``LpSession.restore``."""
        log = []
        real_restore, real_solve, real_add = lp.LpSession.restore, lp.solve_lp, solve._CutPool.add

        def restore(session, basis):
            log.append(("node", None))
            real_restore(session, basis)

        def solve_lp(session):
            out = real_solve(session)
            log.append(("lp", out))
            return out

        def add(pool, *cuts):
            log.append(("cut", None))
            real_add(pool, *cuts)

        monkeypatch.setattr(lp.LpSession, "restore", restore)
        monkeypatch.setattr(lp, "solve_lp", solve_lp)
        monkeypatch.setattr(solve._CutPool, "add", add)
        result = solve_mip(model)
        firsts = [
            (log[i + 1][1], i + 2 < len(log) and log[i + 2][0] == "cut")
            for i, (event, _) in enumerate(log) if event == "node"
        ]
        return result, firsts

    @staticmethod
    def is_fractional(model, out):
        return bool(solve._fractional(model, out.x, solve._dangling_yst(model)))

    @pytest.mark.parametrize("scenario, loss", [
        (binding_scenario, lambda: FixedProfile.constant(100.0, 3)),
        (lambda: toy10_scenario(6), EndogenousMax),
    ], ids=["binding", "toy10-6h"])
    def test_fractional_node_adds_no_cut(self, monkeypatch, scenario, loss):
        # a node whose first LP point is fractional is branched on at once:
        # the node loop adds no cut row after that LP
        m = build_uc(scenario(), loss(), relaxed=False)
        _, firsts = self.node_first_lps(monkeypatch, m)
        cut_after_fractional = [
            cut for out, cut in firsts if out.status == lp.OPTIMAL and self.is_fractional(m, out)
        ]
        assert cut_after_fractional, "no node with a fractional first point"
        assert not any(cut_after_fractional)

    def test_integral_node_outside_cone_matches_enumeration(self, monkeypatch):
        # toy10's first hour with only ocgt1, the PHES and the RES at 75 MW:
        # one node's first LP point is integral but outside the nadir cone
        sc = toy10_scenario(1)
        sc = dataclasses.replace(
            sc, demand_mw=(75.0,), generators=sc.generators[4:5], storage_units=sc.storage_units[:1]
        )
        m = build_uc(sc, EndogenousMax(), relaxed=False)
        (_, dispatch, stats), firsts = self.node_first_lps(monkeypatch, m)
        assert any(cut and not self.is_fractional(m, out) for out, cut in firsts if out.status == lp.OPTIMAL)
        best, _ = enumerate_commitments(m)
        assert dispatch.objective == pytest.approx(best, rel=1e-6)
        assert stats.rel_mip_gap <= 1e-6
        assert stats.final_cone_residual <= CONE_REL_TOL

    def test_gb_one_hour_stops_at_the_root(self):
        # at gap 1e-2 the rounding heuristic's incumbent closes the gap
        # before the first node
        m = build_uc(gb_template(1), EndogenousMax(), relaxed=False)
        _, _, stats = solve_mip(m, rel_gap=1e-2)
        assert stats.nodes == 0
        assert stats.stop_reason == "converged"
        assert stats.rel_mip_gap <= 1e-2

    def test_start_up_lead_time(self):
        sc = Scenario(
            params=SystemParams(),
            horizon=3,
            demand_mw=(40.0, 60.0, 90.0),
            generators=(
                gen("base", 100.0, 0.0, 5.0, 50.0, 40.0, 0.0, 0.0),
                gen("slow", 80.0, 20.0, 5.0, 30.0, 20.0, 0.0, 0.0, 0, 0, 2),
            ),
        )
        m = build_uc(sc, FixedProfile.constant(0.0, 3), relaxed=False)
        schedule, dispatch, _ = solve_mip(m)
        on = schedule.gen_on["slow"]
        # cold start: the 2 hour lead keeps the cheap slow unit off until t=2
        assert on[0] == 0 and on[1] == 0 and on[2] == 1
        assert schedule.gen_start_up["slow"][0] == 1

    def test_initial_state_allows_hour_one_shutdown(self):
        m = build_uc(hour_one_shutdown_scenario(), FixedProfile.constant(0.0, 1), relaxed=False)
        schedule, _, _ = solve_mip(m)
        assert schedule.gen_on["g2"][0] == 0
        assert schedule.gen_shut_down["g2"][0] == 1


    def test_schedule_checks_name_unit_and_hour(self):
        m = build_uc(binding_scenario(), FixedProfile.constant(100.0, 3), relaxed=False)
        x = np.zeros(m.n_vars)
        # g2 is on at hour 0 and g1 at hour 2, neither after a start: the
        # first unit is named, at its first broken hour
        x[m.vid(V_Y, "g2", 0)] = x[m.vid(V_Y, "g1", 2)] = 1.0
        with pytest.raises(SolverError, match=r"^commitment transition identity violated for g1 at t=2$"):
            solve._commitment_from_x(m, x)
        x = np.zeros(m.n_vars)
        for t in (1, 2):
            x[m.vid(V_YCHA, "b1", t)] = x[m.vid(V_YDIS, "b1", t)] = 1.0
        with pytest.raises(SolverError, match=r"^charge/discharge exclusivity violated for b1 at t=1$"):
            solve._commitment_from_x(m, x)
        # within rounding of a consistent pattern: g1 starts at hour 1 and
        # stops at hour 2, b1 charges
        for t in (1, 2):
            x[m.vid(V_YDIS, "b1", t)] = 1e-9
        for kind, t in ((V_Y, 1), (V_YSG, 1), (V_YSD, 2)):
            x[m.vid(kind, "g1", t)] = 1.0 - 1e-9
        schedule = solve._commitment_from_x(m, x)
        assert schedule.gen_on["g1"].tolist() == [0, 1, 0]
        assert schedule.gen_shut_down["g1"].tolist() == [0, 0, 1]
        assert schedule.sto_charging["b1"].tolist() == [0, 1, 1]
        assert schedule.sto_discharging["b1"].tolist() == [0, 0, 0]

    @pytest.mark.parametrize("on, lead, min_up_down", itertools.product((False, True), (0, 1), (0, 2)))
    def test_one_generator_matches_enumeration(self, on, lead, min_up_down):
        # every pre-horizon state, lead time and minimum up/down time of one
        # generator over 2 h: 8 binaries, enumerated. Solar can carry hour 1
        # alone, so the generator shuts down there unless its minimum up
        # time keeps it on; a cold start with a lead time is infeasible.
        unit = gen("g1", 100.0, 30.0, 5.0, 50.0, 40.0, 0.5, 2.0, min_up_down, min_up_down, lead)
        sc = Scenario(
            params=SystemParams(),
            horizon=2,
            demand_mw=(60.0, 40.0),
            generators=(dataclasses.replace(unit, initially_on=on),),
            res_units=(RESSpec("solar", 100.0, (0.2, 1.0), 0.0),),
        )
        self.assert_matches_enumeration(build_uc(sc, FixedProfile.constant(0.0, 2), relaxed=False))

    @pytest.mark.parametrize("scenario", [
        hour_one_shutdown_scenario,
        lambda: Scenario(  # no generators
            params=SystemParams(),
            horizon=2,
            demand_mw=(50.0, 50.0),
            res_units=(RESSpec("wind", 100.0, (0.9, 0.3), 0.0),),
            storage_units=(bess("b1", 40.0, 80.0, 0.0, 1.0, 0.0),),
        ),
    ], ids=["hour-one-shutdown", "no-generators"])
    def test_small_fleets_match_enumeration(self, scenario):
        sc = scenario()
        self.assert_matches_enumeration(build_uc(sc, FixedProfile.constant(0.0, sc.horizon), relaxed=False))

    @staticmethod
    def assert_matches_enumeration(m):
        best, _ = enumerate_commitments(m)
        if best is None:
            with pytest.raises(InfeasibleError):
                solve_mip(m)
        else:
            _, dispatch, _ = solve_mip(m)
            assert dispatch.objective == pytest.approx(best, rel=1e-6)


class TestStorage:
    def arbitrage_scenario(self, e_end=0.0):
        import dataclasses

        battery = bess("bat", 50.0, 100.0, 0.0, 1.0, 0.0, e_frac=0.0)
        battery = dataclasses.replace(battery, e_end_mwh=e_end, efr_max_mw=0.0)
        return Scenario(
            params=SystemParams(),
            horizon=3,
            demand_mw=(150.0, 280.0, 280.0),
            generators=(
                gen("cheap", 200.0, 0.0, 5.0, 80.0, 20.0, 0.0, 0.0),
                gen("dear", 200.0, 0.0, 5.0, 80.0, 100.0, 0.0, 0.0),
            ),
            storage_units=(battery,),
        )

    def test_price_arbitrage_and_soc_dynamics(self):
        sc = self.arbitrage_scenario()
        m = build_uc(sc, FixedProfile.constant(0.0, 3), relaxed=False)
        _, dispatch, _ = solve_mip(m)
        charge = dispatch.sto_charge["bat"]
        discharge = dispatch.sto_discharge["bat"]
        assert charge[0] == pytest.approx(50.0, abs=1e-6)  # fill on the cheap hour
        assert discharge[1] + discharge[2] > 10.0
        # energy balance of the storage account
        soc = dispatch.sto_soc["bat"]
        prev = dispatch.sto_e0["bat"]
        for t in range(3):
            expected = prev + 0.92 * charge[t] - discharge[t] / 0.92
            assert soc[t] == pytest.approx(expected, abs=1e-6)
            prev = soc[t]
        assert dispatch.sto_e0["bat"] == pytest.approx(0.0, abs=1e-6)

    def test_final_energy_enforced(self):
        sc = self.arbitrage_scenario(e_end=40.0)
        m = build_uc(sc, FixedProfile.constant(0.0, 3), relaxed=False)
        _, dispatch, _ = solve_mip(m)
        assert dispatch.sto_soc["bat"][-1] >= 40.0 - 1e-6

    def test_phes_pfr_margin_while_charging(self):
        # only the pumped unit can deliver PFR; on hours where it must charge
        # (for its final energy target) the headroom is capped by the
        # charging power, so meeting q-s-s forces charge >= loss
        import dataclasses

        from conftest import phes

        ph = phes("ph", 100.0, 200.0, 50.0, 45.0, 0.5, 1.0, e_frac=0.0)
        ph = dataclasses.replace(ph, e_end_mwh=80.0)
        sc = Scenario(
            params=SystemParams(),
            horizon=2,
            demand_mw=(500.0, 500.0),
            generators=(gen("base", 1000.0, 0.0, 10.0, 0.0, 30.0, 0.2, 0.0),),
            storage_units=(ph,),
        )
        m = build_uc(sc, FixedProfile.constant(40.0, 2), relaxed=False)
        schedule, dispatch, _ = solve_mip(m)
        charge = dispatch.sto_charge["ph"]
        assert charge.sum() * 0.87 >= 80.0 - 1e-6  # final energy reached
        for t in range(2):
            margin = (
                schedule.sto_discharging["ph"][t] * 100.0
                - dispatch.sto_discharge["ph"][t]
                + charge[t]
            )
            assert dispatch.sto_pfr["ph"][t] <= margin + 1e-6
            assert dispatch.sto_pfr["ph"][t] >= 40.0 - 1e-6  # q-s-s needs the PHES
            if schedule.sto_charging["ph"][t]:
                assert charge[t] >= 40.0 - 1e-6


class TestFixedBinaries:
    def test_infeasible_pattern_returns_none(self):
        sc = single_gen_scenario(horizon=1, demand=60.0)
        m = build_uc(sc, FixedProfile.constant(0.0, 1), relaxed=False)
        all_off = {idx: 0 for idx in m.binary_indices}
        assert solve_fixed_binaries(m, all_off) is None
