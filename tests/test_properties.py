"""Randomised property nets over the solver chain.

Instances are drawn so the frequency-security physics can hold (inertia at
least 25x the secured loss once everything is committed, EFR able to blunt
the nadir quadratic), then every solve is checked for the full contract:
duality gap, complementarity, sign correctness, price stationarity and the
hourly AS-market identity.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from asmarket.allocation import RULES, allocate_hourly
from asmarket.pricing import AUDIT_TOL, as_prices_from_duals, duality_audit, standalone_markets
from asmarket.scenario import RESSpec, Scenario, SystemParams
from asmarket.solve import InfeasibleError, solve_mip, solve_relaxed
from asmarket.ucmodel import EndogenousMax, FixedProfile, build_uc
from conftest import bess, gen, phes
from oracles import binary_columns, classes_of_one, enumerate_commitments


def random_scenario(rng) -> tuple[Scenario, float]:
    horizon = int(rng.integers(1, 4))
    n_gen = int(rng.integers(2, 5))
    gens = []
    for k in range(n_gen):
        p_max = float(rng.integers(10, 50) * 10)
        p_msg = float(rng.choice([0.0, 0.2, 0.4])) * p_max
        h = float(rng.uniform(4.0, 7.0))
        pfr = float(rng.uniform(0.2, 0.5)) * p_max
        gens.append(
            gen(
                f"g{k}", p_max, p_msg, h, pfr,
                lam_e=float(rng.uniform(20, 120)),
                lam_h=float(rng.uniform(0.2, 3.0)),
                lam_pfr=float(rng.uniform(0.5, 6.0)),
                mut=int(rng.integers(0, 2)),
                mdt=int(rng.integers(0, 2)),
            )
        )
    cap = sum(g.p_max_mw for g in gens)
    h_total = sum(g.inertia_s * g.p_max_mw for g in gens)
    res = ()
    if rng.random() < 0.5:
        cf = tuple(float(rng.uniform(0.1, 0.9)) for _ in range(horizon))
        res = (RESSpec("w0", float(rng.integers(5, 20) * 10), cf, float(rng.uniform(2, 15)),
                       technology="wind"),)
    storage = []
    efr_cap = 0.0
    if rng.random() < 0.7:
        p = float(rng.integers(5, 15) * 10)
        storage.append(
            bess("b0", p, 2 * p, p, float(rng.uniform(30, 70)), float(rng.uniform(2, 12)))
        )
        efr_cap = p
    if rng.random() < 0.4:
        p = float(rng.integers(5, 12) * 10)
        storage.append(
            phes("ph0", p, 4 * p, 0.4 * p, float(rng.uniform(35, 75)),
                 float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.5, 5.0)))
        )
        h_total += 5.0 * p
    demand = tuple(float(rng.uniform(0.35, 0.6) * cap) for _ in range(horizon))
    # a loss the fleet can secure: RoCoF caps at h_total/25 and the EFR fleet
    # can absorb most of the nadir quadratic
    loss = float(rng.uniform(0.2, 0.8) * min(h_total / 25.0, efr_cap + 0.2 * cap))
    sc = Scenario(
        params=SystemParams(),
        horizon=horizon,
        demand_mw=demand,
        generators=tuple(gens),
        res_units=res,
        storage_units=tuple(storage),
    )
    return sc, loss


def test_relaxed_contract_random_instances():
    rng = np.random.default_rng(123456)
    solved = 0
    attempts = 60
    for _ in range(attempts):
        sc, loss = random_scenario(rng)
        model = build_uc(sc, FixedProfile.constant(loss, sc.horizon), relaxed=True)
        try:
            dispatch, duals, stats = solve_relaxed(model)
        except InfeasibleError:
            continue
        solved += 1
        scale = max(1.0, abs(dispatch.objective))
        assert stats.rel_duality_gap <= 1e-6
        assert stats.max_cs_residual <= 1e-6 * scale
        # sign correctness and dual cone membership
        for arr in (duals.mu_rocof, duals.mu_qss, duals.omega_loss):
            assert np.all(arr >= -1e-9)
        assert np.all(np.hypot(duals.mu_nadir_1, duals.mu_nadir_2) <= duals.mu_nadir_3 + 1e-9)
        # stationarity formulas, the hourly AS identity, and the audit
        prices = as_prices_from_duals(duals, sc.params)
        market = dispatch.p_loss_mw * prices.omega_loss
        revenue = (
            prices.lambda_h * dispatch.inertia_mws
            + prices.lambda_pfr * dispatch.pfr_mw
            + prices.lambda_efr * dispatch.efr_mw
        )
        assert np.all(np.abs(market - revenue) <= 1e-6 * np.maximum(1.0, np.abs(market)))
        breakdown = duality_audit(dispatch, duals, sc)
        assert breakdown.identity_residual_rel <= 1e-5
        # q-s-s and the loss floor hold at the returned point
        assert np.all(dispatch.efr_mw + dispatch.pfr_mw >= dispatch.p_loss_mw - 1e-6)
        assert np.all(dispatch.p_loss_mw >= loss - 1e-6)
    assert solved >= attempts * 0.6, f"only {solved}/{attempts} random instances solved"


def small_mip_instance(rng) -> object:
    """Random instance with at most 10 binaries (enumerable)."""
    kind = rng.integers(0, 3)
    if kind == 0:
        # one generator, two hours, random commitment times
        sc = Scenario(
            params=SystemParams(),
            horizon=2,
            demand_mw=(float(rng.uniform(20, 90)), float(rng.uniform(20, 90))),
            generators=(
                gen("g0", 100.0, float(rng.choice([0.0, 30.0])), 5.0, 40.0,
                    float(rng.uniform(20, 80)), 0.5, 2.0,
                    mut=int(rng.integers(0, 3)), mdt=int(rng.integers(0, 3)),
                    st=int(rng.integers(0, 2))),
            ),
        )
        loss = 0.0
    elif kind == 1:
        # two generators, one hour, binding AS
        sc = Scenario(
            params=SystemParams(),
            horizon=1,
            demand_mw=(float(rng.uniform(90, 150)),),
            generators=(
                gen("a", 100.0, 30.0, 5.0, 40.0, float(rng.uniform(30, 60)), 1.0, 3.0),
                gen("b", 80.0, 20.0, 5.0, 32.0, float(rng.uniform(50, 90)), 1.5, 4.0),
            ),
        )
        loss = float(rng.uniform(0.0, 18.0))
    else:
        # generator plus a battery, one hour
        sc = Scenario(
            params=SystemParams(),
            horizon=1,
            demand_mw=(float(rng.uniform(40, 90)),),
            generators=(gen("g", 100.0, 0.0, 5.0, 40.0, float(rng.uniform(30, 70)), 1.0, 3.0),),
            storage_units=(bess("bat", 30.0, 60.0, 30.0, 45.0, 6.0),),
        )
        loss = float(rng.uniform(0.0, 25.0))
    return build_uc(sc, FixedProfile.constant(loss, sc.horizon), relaxed=False)


def test_mip_matches_enumeration_random_instances():
    rng = np.random.default_rng(777)
    agreements = 0
    for _ in range(12):
        model = small_mip_instance(rng)
        assert len(binary_columns(model)) <= 10
        best, _ = enumerate_commitments(model)
        try:
            _, dispatch, _ = solve_mip(model)
        except InfeasibleError:
            assert best is None  # both routes must agree on infeasibility
            continue
        assert best is not None
        assert dispatch.objective == pytest.approx(best, rel=1e-6, abs=1e-6)
        agreements += 1
    assert agreements >= 6


def duplicated_fleet(rng) -> Scenario:
    """2-4 classes of 1-3 identical units over 2-4 hours: thermal classes with
    inertia and PFR, and a last class of batteries for EFR, sized so the
    largest unit's loss can usually be secured. Each class has its own
    technology label, so no two classes merge."""
    horizon = int(rng.integers(2, 5))
    n_classes = int(rng.integers(2, 5))
    gens, storage = [], []
    for k in range(n_classes):
        members = int(rng.integers(1, 4))
        if k == n_classes - 1:
            p = 20.0 + 60.0 * rng.random()
            unit = bess(f"b{k}", p, 2 * p, p, 30.0 + 40.0 * rng.random(), 2.0 + 10.0 * rng.random(),
                        tech=f"class{k}")
            storage += [replace(unit, id=f"b{k}_{m}") for m in range(members)]
            continue
        p_max = 50.0 + 150.0 * rng.random()
        unit = gen(
            f"g{k}", p_max, 0.2 * rng.random() * p_max, 4.0 + 3.0 * rng.random(), 0.5 * p_max,
            lam_e=20.0 + 100.0 * rng.random(), lam_h=0.2 + 2.8 * rng.random(),
            lam_pfr=0.5 + 5.5 * rng.random(), mut=int(rng.integers(0, 2)), mdt=int(rng.integers(0, 2)),
            tech=f"class{k}",
        )
        gens += [replace(unit, id=f"g{k}_{m}") for m in range(members)]
    cap = sum(g.p_max_mw for g in gens)
    demand = tuple(cap * (0.15 + 0.2 * rng.random()) for _ in range(horizon))
    return Scenario(
        params=SystemParams(), horizon=horizon, demand_mw=demand,
        generators=tuple(gens), storage_units=tuple(storage),
    )


def test_pipeline_on_duplicated_fleets():
    """Class model against the per-unit oracle, then the payment identity and
    the hourly allocations over the stand-alone markets of its dispatch."""
    rng = np.random.default_rng(2013)
    solved = 0
    for _ in range(25):
        sc = duplicated_fleet(rng)
        try:
            dispatch, duals, _ = solve_relaxed(build_uc(sc, EndogenousMax(), relaxed=True))
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_relaxed(build_uc(classes_of_one(sc), EndogenousMax(), relaxed=True))
            continue
        oracle, _, _ = solve_relaxed(build_uc(classes_of_one(sc), EndogenousMax(), relaxed=True))
        assert dispatch.objective == pytest.approx(oracle.objective, rel=1e-9)
        assert duality_audit(dispatch, duals, sc).identity_residual_rel <= AUDIT_TOL
        # every stand-alone loss is at most the secured loss, so each is securable
        standalone = standalone_markets(sc, (None, dispatch))
        for rule in RULES:
            for t, alloc in enumerate(allocate_hourly(standalone, rule).per_hour):
                largest = max((w for _, w in standalone.per_hour(t)), default=0.0)
                assert sum(alloc.phi.values()) == pytest.approx(largest, rel=1e-9, abs=1e-9)
        solved += 1
    assert solved >= 15
