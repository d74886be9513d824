"""Acceptance gate: one test per primary criterion, each printing a
PASS/FAIL line (visible with -s; pytest -v also reports one line per
criterion). Tolerances and budgets are asserted, not just reported.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from asmarket.allocation import (
    AirportGame,
    allocate_hourly,
    core_check,
    nucleolus,
    nucleolus_lp_oracle,
    proportional,
    shapley_airport,
    shapley_bruteforce,
)
from asmarket.frequency import nadir_feasible, nadir_feasible_product, nadir_residual, nadir_terms
from asmarket.pricing import duality_audit, standalone_markets
from asmarket.scenario import Scenario, SystemParams
from asmarket.solve import solve_mip, solve_relaxed
from asmarket.ucmodel import EndogenousMax, FixedProfile, build_uc
from conftest import bess, gen, single_gen_scenario, toy10_scenario
from oracles import binary_columns, enumerate_commitments

GB = SystemParams()


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def random_game(rng, n_max: int) -> AirportGame:
    n = int(rng.integers(1, n_max + 1))
    kind = rng.random()
    if kind < 0.5:
        vals = rng.uniform(0.0, 10.0, n)
    elif kind < 0.8:
        vals = rng.exponential(2.0, n)
    else:
        vals = np.round(rng.uniform(0.0, 5.0, n), 1)  # many ties
    if n > 1 and rng.random() < 0.35:
        i, j = rng.integers(0, n, 2)
        vals[i] = vals[j]
    if not vals.max() > 0:
        vals[0] = 1.0
    return AirportGame.from_costs({f"u{i}": float(v) for i, v in enumerate(vals)})


def test_criterion_shapley_oracle_equivalence():
    """Closed-form airport Shapley vs full enumeration: >=1000 games, n<=12,
    max elementwise error <= 1e-12, under 60 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        g = random_game(rng, 12)
        a = shapley_airport(g)
        b = shapley_bruteforce(g)
        worst = max(worst, max(abs(a.phi[u] - b.phi[u]) for u in a.phi))
    elapsed = time.perf_counter() - t0
    report(
        "Shapley oracle equivalence",
        worst <= 1e-12 and elapsed < 60.0,
        f"max err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_nucleolus_oracle_equivalence():
    """Airport recursion vs lexicographic-LP nucleolus: >=1000 games, n<=8,
    error <= 1e-7, under 5 min."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(4096)
    worst = 0.0
    for _ in range(1000):
        g = random_game(rng, 8)
        a = nucleolus(g)
        b = nucleolus_lp_oracle(g)
        worst = max(worst, max(abs(a.phi[u] - b.phi[u]) for u in a.phi))
    elapsed = time.perf_counter() - t0
    report(
        "nucleolus oracle equivalence",
        worst <= 1e-7 and elapsed < 300.0,
        f"max err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_fixed_point_vectors():
    """[1,2,3] -> Shapley [1/3,5/6,11/6], nucleolus [0.5,0.75,1.75]; plus the
    two-player closed forms for both rules."""
    g = AirportGame.from_costs({"a": 1.0, "b": 2.0, "c": 3.0})
    sv = [shapley_airport(g).phi[u] for u in ("a", "b", "c")]
    nu = [nucleolus(g).phi[u] for u in ("a", "b", "c")]
    ok = np.allclose(sv, [1 / 3, 5 / 6, 11 / 6], atol=1e-12) and np.allclose(
        nu, [0.5, 0.75, 1.75], atol=1e-12
    )
    rng = np.random.default_rng(7)
    for _ in range(50):
        w1, w2 = sorted(rng.uniform(0.1, 9.0, 2))
        g2 = AirportGame.from_costs({"s": float(w1), "l": float(w2)})
        expect = {"s": w1 / 2, "l": w2 - w1 / 2}
        for rule in (shapley_airport, nucleolus):
            got = rule(g2).phi
            ok = ok and all(abs(got[k] - expect[k]) <= 1e-12 for k in expect)
    report("fixed-point vectors", ok)


def test_criterion_core_suite():
    """Shapley and nucleolus satisfy efficiency, individual and coalitional
    rationality on enumerated games (n <= 12); proportional exhibits a
    coalitional-rationality violation on a constructed instance."""
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(300):
        g = random_game(rng, 12)
        if g.total == 0:
            continue
        for rule in (shapley_airport, nucleolus):
            rep = core_check(rule(g), g)
            ok = ok and rep.passed
    bad = AirportGame.from_costs({"s1": 1.0, "s2": 1.0, "s3": 1.0, "big": 100.0})
    rep = core_check(proportional(bad), bad)
    ok = ok and not rep.passed and rep.worst_coalition_excess > 0
    report("core suite", ok, f"proportional worst excess {rep.worst_coalition_excess:.3f}")


def test_criterion_duality_audit():
    """10-unit, 24-hour toy: strong-duality identity within 1e-5 relative and
    hourly Omega identity within 1e-6 relative, under 2 minutes."""
    t0 = time.perf_counter()
    sc = toy10_scenario(horizon=24)
    model = build_uc(sc, FixedProfile.constant(250.0, 24), relaxed=True)
    dispatch, duals, stats = solve_relaxed(model)
    breakdown = duality_audit(dispatch, duals, sc)
    omega_rel = breakdown.omega_identity_residual / np.maximum(1.0, np.abs(breakdown.as_market))
    elapsed = time.perf_counter() - t0
    ok = (
        breakdown.identity_residual_rel <= 1e-5
        and float(omega_rel.max()) <= 1e-6
        and breakdown.as_payments > 0
        and elapsed < 120.0
    )
    report(
        "duality audit",
        ok,
        f"identity {breakdown.identity_residual_rel:.2e}, omega {omega_rel.max():.2e}, {elapsed:.1f}s",
    )


def test_criterion_cone_equivalence():
    """Nadir cone membership agrees with the algebraic product form on 1e5
    samples (outside a 1e-9 boundary band); the GB point (EFR=0, PFR=1800,
    p_loss=1800) flips at H = 281250 +/- 1 MWs."""
    rng = np.random.default_rng(314159)
    disagreements = 0
    checked = 0
    for _ in range(100_000):
        h = rng.uniform(0.0, 4.0e5)
        efr = rng.uniform(0.0, 4000.0)
        pfr = rng.uniform(0.0, 5000.0)
        p = rng.uniform(0.0, 3000.0)
        u1, u2, v = nadir_terms(h, efr, pfr, p, GB)
        scale = max(1.0, abs(v), math.hypot(u1, u2))
        if abs(nadir_residual(h, efr, pfr, p, GB)) <= 1e-9 * scale:
            continue
        checked += 1
        if nadir_feasible(h, efr, pfr, p, GB) != nadir_feasible_product(h, efr, pfr, p, GB):
            disagreements += 1
    flip_ok = nadir_feasible(281_251.0, 0.0, 1800.0, 1800.0, GB) and not nadir_feasible(
        281_249.0, 0.0, 1800.0, 1800.0, GB
    )
    report(
        "cone equivalence",
        disagreements == 0 and checked > 99_000 and flip_ok,
        f"{checked} points, {disagreements} disagreements, GB flip ok={flip_ok}",
    )


def test_criterion_mip_enumeration():
    """Branch-and-bound matches exhaustive commitment enumeration on
    instances with <= 10 binary patterns, objective error <= 1e-6 relative."""
    instances = []
    # (a) one generator over two hours: 8 binaries, pure commitment logic
    instances.append(build_uc(single_gen_scenario(horizon=2, demand=60.0),
                              FixedProfile.constant(0.0, 2), relaxed=False))
    # (b) two generators, one hour, binding AS at a 15 MW loss: 8 binaries
    sc_b = Scenario(
        params=GB, horizon=1, demand_mw=(120.0,),
        generators=(
            gen("a", 100.0, 30.0, 5.0, 40.0, 50.0, 1.0, 3.0),
            gen("b", 80.0, 20.0, 5.0, 32.0, 70.0, 1.5, 4.0),
        ),
    )
    instances.append(build_uc(sc_b, FixedProfile.constant(15.0, 1), relaxed=False))
    # (c) generator plus BESS, one hour: 6 binaries incl. the mode pair
    sc_c = Scenario(
        params=GB, horizon=1, demand_mw=(80.0,),
        generators=(gen("g", 100.0, 0.0, 5.0, 40.0, 50.0, 1.0, 3.0),),
        storage_units=(bess("bat", 30.0, 60.0, 30.0, 45.0, 6.0),),
    )
    instances.append(build_uc(sc_c, FixedProfile.constant(20.0, 1), relaxed=False))

    worst = 0.0
    for model in instances:
        assert len(binary_columns(model)) <= 10
        _, dispatch, stats = solve_mip(model)
        best, _ = enumerate_commitments(model)
        rel = abs(dispatch.objective - best) / max(1.0, abs(best))
        worst = max(worst, rel)
    report("MIP vs enumeration", worst <= 1e-6, f"max rel err {worst:.2e}")


def test_criterion_directional_allocation():
    """Constructed GB-like hour (one 1800 MW unit, mid-size units): the
    proportional rule charges the largest unit strictly less than Shapley and
    nucleolus; nucleolus charges it no more than Shapley."""
    mids = tuple(
        gen(f"mid{k}", 600.0, 0.0, 6.0, 180.0, 60.0 + 2.0 * k, 1.0, 3.0) for k in range(10)
    )
    sc = Scenario(
        params=GB,
        horizon=1,
        demand_mw=(5000.0,),
        generators=(gen("big", 1800.0, 1800.0, 5.0, 0.0, 40.0, 1.0, 0.0),) + mids,
        storage_units=(bess("bat", 1500.0, 3000.0, 1500.0, 55.0, 10.0),),
    )
    model = build_uc(sc, EndogenousMax(), relaxed=False)
    schedule, dispatch, _ = solve_mip(model)
    assert dispatch.gen_p["big"][0] == pytest.approx(1800.0, abs=1e-4)
    sa = standalone_markets(sc, (schedule, dispatch))
    assert sa.omegas["big"][0] > 0
    assert any(sa.omegas[f"mid{k}"][0] > 0 for k in range(10))
    charges = {
        rule: allocate_hourly(sa, rule).per_hour[0].phi["big"]
        for rule in ("proportional", "shapley", "nucleolus")
    }
    ok = (
        charges["proportional"] < charges["shapley"]
        and charges["proportional"] < charges["nucleolus"]
        and charges["nucleolus"] <= charges["shapley"] + 1e-9
    )
    report(
        "directional allocation ordering",
        ok,
        "big unit pays " + ", ".join(f"{r}={v:.1f}" for r, v in charges.items()),
    )
