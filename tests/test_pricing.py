import dataclasses
import logging
import math

import numpy as np
import pytest

from asmarket import pricing, solve
from asmarket.cli import _realized_loss_profile
from asmarket.pricing import (
    AUDIT_TOL,
    DISPATCH_TOL,
    AuditError,
    StandaloneError,
    StationarityError,
    as_prices_from_duals,
    duality_audit,
    standalone_markets,
    system_costs,
)
from asmarket.scenario import Scenario, SystemParams, gb_template
from asmarket.solve import DualRecoveryError, DualSolution, SolverError, solve_mip, solve_omega, solve_relaxed
from asmarket.ucmodel import EndogenousMax, FixedProfile, build_uc
from conftest import binding_scenario, endog_scenario, free_pfr_scenario, gen, toy10_scenario, with_initial_state
from oracles import audit_by_unit, breakdown_differences

GB = SystemParams()


def zero_duals(T: int) -> DualSolution:
    z = lambda: np.zeros(T)
    return DualSolution(
        lambda_e=z(), lambda_h=z(), lambda_pfr=z(), lambda_efr=z(),
        mu_rocof=z(), mu_nadir_1=z(), mu_nadir_2=z(), mu_nadir_3=z(),
        mu_qss=z(), omega_loss=z(),
        psi_max_y={}, psi_max_yst={}, psi_max_ysg={}, psi_max_ysd={}, psi_mdt={},
        psi_cf={}, psi_e_min={}, psi_e_max={}, psi_max_ycha={}, psi_max_ydis={},
        psi_mutex={}, psi_ini={}, psi_end={},
        initial_rhs_term=0.0, as_payment_rhs=0.0, dual_objective=0.0,
    )


class TestPriceFormulas:
    def test_all_slack_gives_zero_prices(self):
        prices = as_prices_from_duals(zero_duals(4), GB)
        for name in ("lambda_h", "lambda_pfr", "lambda_efr", "omega_loss"):
            assert getattr(prices, name) == pytest.approx(np.zeros(4))

    def test_rocof_only_reduction(self):
        duals = zero_duals(2)
        duals.mu_rocof[:] = 0.002
        duals.lambda_h[:] = 0.002
        duals.omega_loss[:] = 0.002 * GB.f0_hz / (2 * GB.rocof_max_hz_per_s)
        prices = as_prices_from_duals(duals, GB)
        assert prices.lambda_h == pytest.approx([0.002, 0.002])
        assert prices.omega_loss == pytest.approx([0.05, 0.05])
        assert prices.lambda_pfr == pytest.approx([0.0, 0.0])

    def test_inconsistent_duals_rejected(self):
        duals = zero_duals(2)
        duals.mu_rocof[:] = 0.5
        duals.lambda_h[:] = 0.0  # should be 0.5
        with pytest.raises(StationarityError):
            as_prices_from_duals(duals, GB)

    def test_solved_instance_satisfies_omega_identity(self):
        sc = binding_scenario()
        m = build_uc(sc, FixedProfile.constant(100.0, 3), relaxed=True)
        dispatch, duals, _ = solve_relaxed(m)
        prices = as_prices_from_duals(duals, sc.params)
        lhs = dispatch.p_loss_mw * prices.omega_loss
        rhs = (
            prices.lambda_h * dispatch.inertia_mws
            + prices.lambda_pfr * dispatch.pfr_mw
            + prices.lambda_efr * dispatch.efr_mw
        )
        assert np.all(np.abs(lhs - rhs) <= 1e-6 * np.maximum(1.0, np.abs(lhs)))


class TestDualityAudit:
    def test_zero_as_instance(self):
        sc = Scenario(
            params=GB, horizon=2, demand_mw=(60.0, 70.0),
            generators=(gen("g1", 100.0, 0.0, 5.0, 50.0, 40.0, 0.0, 0.0),),
        )
        m = build_uc(sc, FixedProfile.constant(0.0, 2), relaxed=True)
        dispatch, duals, _ = solve_relaxed(m)
        breakdown = duality_audit(dispatch, duals, sc)
        assert breakdown.as_payments == pytest.approx(0.0, abs=1e-9)
        assert breakdown.energy_payments == pytest.approx(
            breakdown.system_costs + breakdown.thermal_profits + breakdown.omitted_terms,
            rel=1e-9, abs=1e-9,
        )

    def test_identity_on_binding_instance(self):
        sc = binding_scenario()
        m = build_uc(sc, FixedProfile.constant(100.0, 3), relaxed=True)
        dispatch, duals, _ = solve_relaxed(m)
        breakdown = duality_audit(dispatch, duals, sc)
        assert breakdown.identity_residual_rel <= 1e-5
        assert breakdown.as_payments > 0
        assert system_costs(sc, dispatch) == pytest.approx(dispatch.objective, rel=1e-9)

    def test_homogeneity_in_offers(self):
        sc = binding_scenario()

        def scaled(s, k):
            def su(u):
                return dataclasses.replace(
                    u,
                    energy_offer_gbp_per_mwh=k * u.energy_offer_gbp_per_mwh,
                    inertia_offer_gbp_per_mws=k * u.inertia_offer_gbp_per_mws,
                    pfr_offer_gbp_per_mw=k * u.pfr_offer_gbp_per_mw,
                    **(
                        {"efr_offer_gbp_per_mw": k * u.efr_offer_gbp_per_mw}
                        if hasattr(u, "efr_offer_gbp_per_mw")
                        else {}
                    ),
                )
            return dataclasses.replace(
                s,
                generators=tuple(su(g) for g in s.generators),
                storage_units=tuple(su(x) for x in s.storage_units),
            )

        results = []
        for k in (1.0, 2.0):
            m = build_uc(scaled(sc, k), FixedProfile.constant(100.0, 3), relaxed=True)
            dispatch, duals, _ = solve_relaxed(m)
            results.append(duality_audit(dispatch, duals, scaled(sc, k)))
        a, b = results
        assert b.energy_payments + b.as_payments == pytest.approx(
            2 * (a.energy_payments + a.as_payments), rel=1e-6
        )
        assert b.system_costs == pytest.approx(2 * a.system_costs, rel=1e-6)

    def test_endogenous_regime_balances_without_as_block(self):
        # homogeneous loss rows: the AS cost folds into the energy price and
        # the payment identity balances with a zero AS block
        from asmarket.scenario import gb_template

        sc = gb_template(horizon=3)
        m = build_uc(sc, EndogenousMax(), relaxed=True)
        dispatch, duals, _ = solve_relaxed(m)
        breakdown = duality_audit(dispatch, duals, sc)
        assert breakdown.as_payments == 0.0
        assert breakdown.as_market.sum() > 0  # the market itself is priced
        assert breakdown.identity_residual_rel <= 1e-5

    @pytest.mark.parametrize("case", ["storage_e0", "gen_on"])
    def test_initial_state_is_read_from_the_scenario(self, case):
        # the identity's initial-state constants are the scenario's
        # initially_on and e_ini_mwh, which the model was built from
        if case == "storage_e0":
            sc, rule = toy10_scenario(6), EndogenousMax()
            sc = with_initial_state(sc, e0={s.id: s.e_ini_mwh / 2 for s in sc.storage_units})
        else:
            # g1 runs into hour 0 at a no-load cost; running it less at hour 0
            # and more at hour 1 needs a start-up at hour 0, which its
            # min-down-time row forbids while it is on
            sc = Scenario(
                params=GB, horizon=2, demand_mw=(10.0, 80.0),
                generators=(
                    gen("g1", 100.0, 0.0, 5.0, 0.0, 40.0, 1.0, 0.0, 0, 1, 1),
                    gen("g2", 100.0, 0.0, 0.0, 0.0, 200.0),
                ),
            )
            rule, sc = FixedProfile.constant(0.0, 2), with_initial_state(sc, on={"g1"})
        dispatch, duals, _ = solve_relaxed(build_uc(sc, rule, relaxed=True))
        if case == "storage_e0":
            assert any(duals.psi_ini[s.id] > 0 for s in sc.storage_units)
        else:
            assert duals.psi_mdt["g1"][0] > 0
        assert duality_audit(dispatch, duals, sc).identity_residual_rel <= AUDIT_TOL

    def test_corrupted_duals_fail_audit(self):
        sc = binding_scenario()
        m = build_uc(sc, FixedProfile.constant(100.0, 3), relaxed=True)
        dispatch, duals, _ = solve_relaxed(m)
        for uid in duals.psi_max_y:
            duals.psi_max_y[uid] = np.zeros_like(duals.psi_max_y[uid])
        with pytest.raises(AuditError):
            duality_audit(dispatch, duals, sc)


AUDIT_CASES = {
    "toy10-6h-endogenous": lambda: (toy10_scenario(6), EndogenousMax()),
    "binding-fixed-100MW": lambda: (binding_scenario(), FixedProfile.constant(100.0, 3)),
    "generators-only": lambda: (free_pfr_scenario(), EndogenousMax()),  # no RES, no storage
    "gb-6h-endogenous": lambda: (gb_template(6), EndogenousMax()),
    # classes split by their initial state; the storage terms' order shows here
    "gb-6h-initial-state": lambda: (with_initial_state(
        gb_template(6), on={"ccgt_3", "nuclear_1"}, e0={"bess_7": 10.0, "phes_2": 1600.0}), EndogenousMax()),
}


@pytest.fixture(scope="module", params=list(AUDIT_CASES))
def audited(request):
    sc, rule = AUDIT_CASES[request.param]()
    dispatch, duals, _ = solve_relaxed(build_uc(sc, rule, relaxed=True))
    return sc, dispatch, duals, duality_audit(dispatch, duals, sc)


class TestAuditTerms:
    def test_matches_the_per_unit_oracle_bit_for_bit(self, audited):
        sc, dispatch, duals, breakdown = audited
        assert breakdown_differences(breakdown, audit_by_unit(dispatch, duals, sc)) == []

    def test_technology_revenues_add_up(self, audited):
        sc, _, _, breakdown = audited
        techs = breakdown.by_technology
        assert list(techs) == list(dict.fromkeys(u.technology for u in sc.all_units))
        for kind in ("inertia", "pfr", "efr"):
            total = sum(b[f"{kind}_revenue"] for b in techs.values())
            assert total == pytest.approx(getattr(breakdown, f"{kind}_revenue").sum(), rel=1e-9)
        energy = sum(b["energy_revenue"] for b in techs.values())
        assert energy == pytest.approx(breakdown.energy_payments, rel=1e-9)
        for b in techs.values():
            assert b["as_revenue"] == b["inertia_revenue"] + b["pfr_revenue"] + b["efr_revenue"]


class TestStandalone:
    def block_i(self, sc, loss_rule=None):
        rule = loss_rule or EndogenousMax()
        m = build_uc(sc, rule, relaxed=False)
        schedule, dispatch, _ = solve_mip(m)
        return schedule, dispatch

    def test_undispatched_unit_has_no_entries(self):
        sc = free_pfr_scenario()
        block = self.block_i(sc, FixedProfile.constant(0.0, sc.horizon))
        sa = standalone_markets(sc, block)
        # "mid" is priced out by "big"; it carries no dispatched hours
        assert not sa.dispatched["mid"].any()
        assert sa.omegas["mid"] == pytest.approx(np.zeros(sc.horizon))
        assert sa.per_hour(0) == [("big", pytest.approx(sa.omegas["big"][0]))]

    def test_small_covered_loss_is_free(self):
        # free inertia and PFR headroom cover the mid unit's outage
        sc = free_pfr_scenario()
        sc = dataclasses.replace(
            sc,
            generators=(
                sc.generators[0],
                dataclasses.replace(sc.generators[1], energy_offer_gbp_per_mwh=25.0),
            ),
        )
        block = self.block_i(sc, FixedProfile.constant(0.0, sc.horizon))
        _, dispatch = block
        assert dispatch.gen_p["mid"][0] > 0  # now dispatched
        sa = standalone_markets(sc, block)
        assert sa.omegas["mid"] == pytest.approx(np.zeros(sc.horizon), abs=1e-9)

    def test_largest_unit_matches_headline_market(self):
        sc = endog_scenario()
        block = self.block_i(sc)
        _, dispatch = block
        sa = standalone_markets(sc, block)
        worst = np.zeros(sc.horizon)
        for uid in sc.unit_ids():
            worst = np.maximum(worst, dispatch.dispatch_of(uid))
        top = max(sa.omegas, key=lambda uid: sa.omegas[uid].sum())
        assert dispatch.dispatch_of(top) == pytest.approx(worst, abs=1e-6)
        # headline: relaxed solve at the realized worst-unit loss profile
        m = build_uc(sc, FixedProfile(tuple(worst)), relaxed=True)
        rel_dispatch, duals, _ = solve_relaxed(m)
        breakdown = duality_audit(rel_dispatch, duals, sc)
        assert sa.omegas[top] == pytest.approx(breakdown.as_market, rel=1e-6, abs=1e-6)

    def test_monotone_dominance(self):
        sc = endog_scenario()
        block = self.block_i(sc)
        _, dispatch = block
        sa = standalone_markets(sc, block)
        ids = list(sa.omegas)
        for i in ids:
            for j in ids:
                if np.all(dispatch.dispatch_of(i) >= dispatch.dispatch_of(j) - 1e-9):
                    assert np.all(sa.omegas[i] >= sa.omegas[j] - 1e-7)

    def test_infeasible_standalone_reports_unit(self):
        # block (i) without AS lets g1 run at 400 MW; securing that outage
        # needs 10 GWs of inertia the fleet does not have
        sc = binding_scenario()
        block = self.block_i(sc, FixedProfile.constant(0.0, sc.horizon))
        with pytest.raises(StandaloneError) as err:
            standalone_markets(sc, block)
        assert err.value.unit_id == "g1"

    @staticmethod
    def loss_profiles(sc, dispatch):
        """The loss profiles standalone_markets solves for, by unit."""
        profiles = {}
        for unit in sc.all_units:
            if unit.loss_eligible:
                prof = np.maximum(dispatch.dispatch_of(unit.id), 0.0)
                prof[prof <= DISPATCH_TOL] = 0.0
                profiles[unit.id] = prof
        return profiles

    def test_equal_profiles_share_one_solve(self, monkeypatch):
        sc = endog_scenario()
        block = self.block_i(sc)
        _, dispatch = block
        calls = []

        def counting(model, *args, **kwargs):
            calls.append(model.loss_rule.p_mw)
            return solve_omega(model, *args, **kwargs)

        monkeypatch.setattr(pricing, "solve_omega", counting)
        sa = standalone_markets(sc, block)
        profiles = self.loss_profiles(sc, dispatch)
        # g1, g2 and g3 are dispatched identically
        assert profiles["g1"].any()
        assert profiles["g1"].tobytes() == profiles["g2"].tobytes() == profiles["g3"].tobytes()
        distinct = {p.tobytes() for p in profiles.values() if p.any()}
        assert len(calls) == len(distinct)
        assert len(set(calls)) == len(calls)
        # each unit matches its own stand-alone solve exactly
        for uid, prof in profiles.items():
            ref = np.zeros(sc.horizon)
            if prof.any():
                m = build_uc(sc, FixedProfile(tuple(prof)), relaxed=True)
                _, duals, _ = solve_relaxed(m)
                ref = prof * duals.omega_loss
            assert sa.omegas[uid] == pytest.approx(ref, abs=0.0)
        ids = list(sa.omegas)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                assert not np.shares_memory(sa.omegas[a], sa.omegas[b])

    def test_one_build_per_call(self, monkeypatch):
        sc = endog_scenario()
        block = self.block_i(sc)
        builds = []

        def counting(*args, **kwargs):
            builds.append(args)
            return build_uc(*args, **kwargs)

        monkeypatch.setattr(pricing, "build_uc", counting)
        sa = standalone_markets(sc, block)
        distinct = {p.tobytes() for p in self.loss_profiles(sc, block[1]).values() if p.any()}
        assert len(distinct) > 1
        assert len(builds) == 1
        assert sa.stats.oa_rounds >= len(distinct)

    @staticmethod
    def priced(sc, profile):
        """The price stage's ``(model, omega_loss, stats)`` at ``profile``."""
        model = build_uc(sc, FixedProfile(tuple(profile)), relaxed=True)
        _, duals, stats = solve_relaxed(model)
        return model, duals.omega_loss, stats

    @pytest.mark.parametrize("headline", [True, False], ids=["headline", "no-unit-profile"])
    def test_priced_solve_reused(self, monkeypatch, headline):
        # the headline profile takes the price stage's solve; every other
        # profile re-targets the priced model, and nothing is built
        sc = endog_scenario()
        block = self.block_i(sc)
        plain = standalone_markets(sc, block)
        profile = _realized_loss_profile(sc, block[1]) if headline else (100.0,) * sc.horizon
        priced = self.priced(sc, profile)
        key = np.array(profile).tobytes()
        distinct = {p.tobytes() for p in self.loss_profiles(sc, block[1]).values() if p.any()}
        assert (key in distinct) is headline
        calls, builds = [], []

        def counting(model):
            calls.append(model.loss_rule.p_mw)
            return solve_omega(model)

        monkeypatch.setattr(pricing, "solve_omega", counting)
        monkeypatch.setattr(pricing, "build_uc", lambda *a, **k: builds.append(a) or build_uc(*a, **k))
        sa = standalone_markets(sc, block, priced=priced)
        assert builds == []
        assert len(calls) == len(distinct) - headline
        assert key not in {np.array(p).tobytes() for p in calls}
        assert list(sa.omegas) == list(plain.omegas)
        for uid, omega in sa.omegas.items():
            assert omega.tobytes() == plain.omegas[uid].tobytes(), uid
            assert sa.dispatched[uid].tobytes() == plain.dispatched[uid].tobytes(), uid
        assert sa.stats == plain.stats

    def test_gb_shared_model_matches_fresh_builds(self):
        # every distinct GB profile re-targets one model, so a write to the
        # shared model would show in a later profile's result
        sc = gb_template(1)
        schedule, dispatch, _ = solve_mip(build_uc(sc, EndogenousMax(), relaxed=False), rel_gap=1e-2)
        sa = standalone_markets(sc, (schedule, dispatch))
        omega_of, solved = {}, []
        for uid, prof in self.loss_profiles(sc, dispatch).items():
            if not prof.any():
                assert not sa.omegas[uid].any()
                continue
            if prof.tobytes() not in omega_of:
                _, duals, stats = solve_relaxed(build_uc(sc, FixedProfile(tuple(prof)), relaxed=True))
                omega_of[prof.tobytes()] = duals.omega_loss
                solved.append(stats)
            np.testing.assert_array_equal(sa.omegas[uid], prof * omega_of[prof.tobytes()])
        assert len(omega_of) > 1
        for counter in ("lp_iterations", "oa_rounds", "cuts"):
            assert getattr(sa.stats, counter) == sum(getattr(s, counter) for s in solved)
        assert sa.stats.final_cone_residual == max(s.final_cone_residual for s in solved)

    def test_zero_clamp_logged(self, caplog, monkeypatch):
        sc = endog_scenario()
        block = self.block_i(sc)
        monkeypatch.setattr(pricing, "ZERO_CLAMP", 0.5)
        with caplog.at_level(logging.DEBUG, logger="asmarket.pricing"):
            sa = standalone_markets(sc, block)
        assert sa.dispatched["g4"][0]
        assert sa.omegas["g4"][0] == 0.0
        clamped = [r.getMessage() for r in caplog.records if "zero-clamp" in r.getMessage()]
        assert any("unit g4 hour 0 value 354.0" in msg for msg in clamped)

    def test_technology_labels_carried(self):
        sc = endog_scenario()
        block = self.block_i(sc)
        sa = standalone_markets(sc, block)
        assert sa.technology["b1"] == "BESS"
        assert sa.technology["g1"] == "thermal"


class TestSolveOmega:
    """``solve_omega`` is ``solve_relaxed`` without the per-unit lift."""

    @staticmethod
    @pytest.fixture(scope="class", params=["toy10-6h", "gb-1h"])
    def instance(request):
        sc = toy10_scenario(6) if request.param == "toy10-6h" else gb_template(1)
        schedule, dispatch, _ = solve_mip(build_uc(sc, EndogenousMax(), relaxed=False), rel_gap=1e-2)
        profiles = {p.tobytes(): p for p in TestStandalone.loss_profiles(sc, dispatch).values() if p.any()}
        return sc, (schedule, dispatch), list(profiles.values())

    def test_matches_solve_relaxed_on_every_profile(self, instance):
        sc, _, profiles = instance
        assert len(profiles) > 1
        base = build_uc(sc, FixedProfile.constant(0.0, sc.horizon), relaxed=True)
        for prof in profiles:
            model = base.with_loss_profile(FixedProfile(tuple(prof)))
            omega, stats = solve_omega(model)
            _, duals, relaxed_stats = solve_relaxed(model)
            assert omega.tobytes() == duals.omega_loss.tobytes()
            assert stats == relaxed_stats

    FAILED_CHECKS = {
        # every row counts as violated
        "feasibility": ("_verify_feasibility", lambda real: lambda model, x, tol: real(model, x, -1.0),
                        SolverError, "violated"),
        "complementary-slackness": ("_max_cs_residual", lambda real: lambda pool, out: math.inf,
                                    DualRecoveryError, "complementary-slackness"),
        "duality-gap": ("_dual_objective",
                        lambda real: lambda model, out: real(model, out) + 1.0 + abs(out.objective),
                        DualRecoveryError, "duality gap"),
    }

    @pytest.mark.parametrize("check", list(FAILED_CHECKS))
    def test_failed_check_raises(self, monkeypatch, check):
        name, patched, error, match = self.FAILED_CHECKS[check]
        sc = endog_scenario()
        block = TestStandalone().block_i(sc)
        prof = TestStandalone.loss_profiles(sc, block[1])["g1"]
        model = build_uc(sc, FixedProfile(tuple(prof)), relaxed=True)
        priced = TestStandalone.priced(sc, _realized_loss_profile(sc, block[1]))
        monkeypatch.setattr(solve, name, patched(getattr(solve, name)))
        with pytest.raises(error, match=match):
            solve_omega(model)
        with pytest.raises(error, match=match):
            standalone_markets(sc, block)
        with pytest.raises(error, match=match):
            standalone_markets(sc, block, priced=priced)
