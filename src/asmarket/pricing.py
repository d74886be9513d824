"""AS prices from dual multipliers, the strong-duality payment audit, and
per-unit stand-alone AS market sizes.

Price formulas (stationarity of the relaxed problem's Lagrangian in the
hourly aggregates):

    lambda_h   = (mu3 - mu1)/f0 + mu_rocof
    lambda_pfr = (mu3 + mu1)/T_PFR + mu_qss
    lambda_efr = (mu1 - mu3)*T_EFR/(4*df) + mu2/sqrt(df) + mu_qss
    omega_loss = mu_rocof*f0/(2*rocof_max) + mu2/sqrt(df) + mu_qss

Each is cross-checked against the multiplier of the corresponding
aggregation (or max-loss) row; disagreement signals an invalid dual vector.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .scenario import Scenario, SystemParams
# solve_relaxed is not called here, but perfbench/spans.py patches it
# and build_uc by name in this module, so both names must stay bound
from .solve import (  # noqa: F401
    CommitmentSchedule,
    DispatchSolution,
    DualSolution,
    InfeasibleError,
    SolveStats,
    solve_omega,
    solve_relaxed,
)
from .ucmodel import FixedProfile, UCModel, build_uc

log = logging.getLogger(__name__)


class StationarityError(Exception):
    """The dual vector does not satisfy the price stationarity conditions."""


class AuditError(Exception):
    """The strong-duality payment identity failed beyond tolerance."""


class StandaloneError(Exception):
    def __init__(self, unit_id: str, cause: Exception):
        self.unit_id = unit_id
        super().__init__(f"stand-alone solve for unit {unit_id!r} failed: {cause}")


STATIONARITY_TOL = 1e-6  # relative, price formula against row multiplier
AUDIT_TOL = 1e-5         # relative residual of the payment identity
ZERO_CLAMP = 1e-8        # stand-alone omegas this small relative to the largest are zeroed


@dataclass
class AsPrices:
    lambda_e: np.ndarray
    lambda_h: np.ndarray
    lambda_pfr: np.ndarray
    lambda_efr: np.ndarray
    omega_loss: np.ndarray


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return bool(np.all(np.abs(a - b) <= STATIONARITY_TOL * scale))


def as_prices_from_duals(duals: DualSolution, params: SystemParams) -> AsPrices:
    """Compute AS prices by the stationarity formulas and cross-check them
    against the aggregation-row multipliers."""
    df = params.delta_f_max_hz
    sq = math.sqrt(df)
    lam_h = (duals.mu_nadir_3 - duals.mu_nadir_1) / params.f0_hz + duals.mu_rocof
    lam_pfr = (duals.mu_nadir_3 + duals.mu_nadir_1) / params.t_pfr_s + duals.mu_qss
    lam_efr = (
        (duals.mu_nadir_1 - duals.mu_nadir_3) * params.t_efr_s / (4.0 * df)
        + duals.mu_nadir_2 / sq
        + duals.mu_qss
    )
    omega = (
        duals.mu_rocof * params.f0_hz / (2.0 * params.rocof_max_hz_per_s)
        + duals.mu_nadir_2 / sq
        + duals.mu_qss
    )
    for name, formula, row in (
        ("lambda_h", lam_h, duals.lambda_h),
        ("lambda_pfr", lam_pfr, duals.lambda_pfr),
        ("lambda_efr", lam_efr, duals.lambda_efr),
        ("omega_loss", omega, duals.omega_loss),
    ):
        if not _close(formula, row):
            worst = float(np.max(np.abs(formula - row)))
            raise StationarityError(
                f"{name}: stationarity formula disagrees with the row multiplier "
                f"(max deviation {worst:.3e})"
            )
    prices = AsPrices(
        lambda_e=duals.lambda_e.copy(),
        lambda_h=lam_h,
        lambda_pfr=lam_pfr,
        lambda_efr=lam_efr,
        omega_loss=omega,
    )
    for name in ("lambda_e", "lambda_h", "lambda_pfr", "lambda_efr", "omega_loss"):
        arr = getattr(prices, name)
        if np.any(arr < -1e-9):
            raise StationarityError(f"{name}: negative price {arr.min():.3e}")
    return prices


# ---------------------------------------------------------------------------
# Strong-duality audit


@dataclass
class MarketBreakdown:
    horizon: int
    inertia_revenue: np.ndarray      # lambda_h * H_t per hour
    pfr_revenue: np.ndarray
    efr_revenue: np.ndarray
    as_market: np.ndarray            # Omega_t = p_loss * omega per hour
    omega_identity_residual: np.ndarray
    energy_payments: float
    as_payments: float
    system_costs: float
    thermal_profits: float
    renewable_profits: float
    storage_profits: float
    omitted_terms: float             # psi_mdt block + initial-state constants
    identity_residual_rel: float
    by_technology: dict[str, dict[str, float]]


def _stack(table: dict, units, *shape: int) -> np.ndarray:
    """The units' entries of a per-unit table, in scenario order, as one
    ``(len(units), *shape)`` array (explicit shape: ``units`` may be empty)."""
    return np.array([table[u.id] for u in units], dtype=float).reshape(len(units), *shape)


def _product(units, *names: str) -> np.ndarray:
    """Per unit, the product of its scalar fields ``names``, left to right."""
    out = np.ones(len(units))
    for name in names:
        out = out * np.array([getattr(u, name) for u in units], dtype=float)
    return out


def _add(total, *terms: np.ndarray):
    """``total`` plus the per-unit terms one at a time, in scenario order; the
    entries of several term arrays alternate unit by unit."""
    for term in np.column_stack(terms).ravel().tolist():
        total += term
    return total


def system_costs(scenario: Scenario, primal: DispatchSolution) -> float:
    """Objective recomputed from offers and the primal point."""
    T = scenario.horizon
    gens, res, stos = scenario.generators, scenario.res_units, scenario.storage_units
    gen = (
        _product(gens, "energy_offer_gbp_per_mwh") * _stack(primal.gen_p, gens, T).sum(axis=1)
        + _product(gens, "inertia_offer_gbp_per_mws", "p_max_mw", "inertia_s")
        * _stack(primal.gen_commit, gens, T).sum(axis=1)
        + _product(gens, "pfr_offer_gbp_per_mw") * _stack(primal.gen_pfr, gens, T).sum(axis=1)
    )
    ren = _product(res, "energy_offer_gbp_per_mwh") * _stack(primal.res_p, res, T).sum(axis=1)
    modes = _stack(primal.sto_cha_mode, stos, T) + _stack(primal.sto_dis_mode, stos, T)
    sto = (
        _product(stos, "energy_offer_gbp_per_mwh") * _stack(primal.sto_discharge, stos, T).sum(axis=1)
        + _product(stos, "inertia_offer_gbp_per_mws", "p_max_mw", "inertia_s") * modes.sum(axis=1)
        + _product(stos, "pfr_offer_gbp_per_mw") * _stack(primal.sto_pfr, stos, T).sum(axis=1)
        + _product(stos, "efr_offer_gbp_per_mw") * _stack(primal.sto_efr, stos, T).sum(axis=1)
    )
    return _add(0.0, np.concatenate((gen, ren, sto)))


def duality_audit(primal: DispatchSolution, duals: DualSolution, scenario: Scenario) -> MarketBreakdown:
    """Itemise the strong-duality payment decomposition and verify it.

    energy + AS payments = system costs + thermal/renewable/storage profits
    (+ the explicitly reported omitted terms: the min-down-time block and any
    nonzero initial-state constants, read from the scenario's
    ``initially_on`` and ``e_ini_mwh``). A residual beyond tolerance flags a
    dual-recovery defect.
    """
    prices = as_prices_from_duals(duals, scenario.params)

    inertia_rev = prices.lambda_h * primal.inertia_mws
    pfr_rev = prices.lambda_pfr * primal.pfr_mw
    efr_rev = prices.lambda_efr * primal.efr_mw
    as_market = primal.p_loss_mw * prices.omega_loss
    omega_resid = np.abs(as_market - (inertia_rev + pfr_rev + efr_rev))

    demand = np.asarray(scenario.demand_mw, dtype=float)
    energy_payments = float(demand @ prices.lambda_e)
    # the payment identity uses the loss rows' actual rhs: equal to the
    # hourly AS market under a fixed loss parameter (complementary
    # slackness), and zero under the endogenous rule, where the AS cost is
    # carried by the loss-setting units through the energy price instead
    as_payments = duals.as_payment_rhs
    costs = system_costs(scenario, primal)

    T = scenario.horizon
    gens, res, stos = scenario.generators, scenario.res_units, scenario.storage_units
    thermal = _add(0.0, (
        _stack(duals.psi_max_y, gens, T).sum(axis=1)
        + _stack(duals.psi_max_yst, gens, T).sum(axis=1)
        + _stack(duals.psi_max_ysg, gens, T).sum(axis=1)
        + _stack(duals.psi_max_ysd, gens, T).sum(axis=1)
    ))
    mdt = _stack(duals.psi_mdt, gens, T)
    rhs0 = np.array([1.0 - int(g.initially_on) for g in gens])
    omitted = _add(duals.initial_rhs_term, mdt[:, 0] * rhs0 + mdt[:, 1:].sum(axis=1))
    caps = np.array([r.cf for r in res], dtype=float).reshape(len(res), T) * _product(res, "p_max_mw")[:, None]
    renewable = _add(0.0, np.vecdot(caps, _stack(duals.psi_cf, res, T)))
    bounds = (
        -_product(stos, "e_min_mwh") * _stack(duals.psi_e_min, stos, T).sum(axis=1)
        + _product(stos, "e_max_mwh") * _stack(duals.psi_e_max, stos, T).sum(axis=1)
        + _stack(duals.psi_max_ycha, stos, T).sum(axis=1)
        + _stack(duals.psi_max_ydis, stos, T).sum(axis=1)
        + _stack(duals.psi_mutex, stos, T).sum(axis=1)
    )
    ends = (
        _product(stos, "e_ini_mwh") * _stack(duals.psi_ini, stos)
        - _product(stos, "e_end_mwh") * _stack(duals.psi_end, stos)
    )
    storage = _add(0.0, bounds, ends)

    lhs = energy_payments + as_payments
    rhs = costs + thermal + renewable + storage + omitted
    resid = abs(lhs - rhs) / max(1.0, abs(lhs))
    if resid > AUDIT_TOL:
        raise AuditError(
            f"strong-duality identity residual {resid:.3e} exceeds {AUDIT_TOL:.1e} "
            f"(payments {lhs:.6f} vs decomposition {rhs:.6f})"
        )

    return MarketBreakdown(
        horizon=primal.horizon,
        inertia_revenue=inertia_rev,
        pfr_revenue=pfr_rev,
        efr_revenue=efr_rev,
        as_market=as_market,
        omega_identity_residual=omega_resid,
        energy_payments=energy_payments,
        as_payments=as_payments,
        system_costs=costs,
        thermal_profits=thermal,
        renewable_profits=renewable,
        storage_profits=storage,
        omitted_terms=omitted,
        identity_residual_rel=resid,
        by_technology=_technology_revenues(scenario, primal, prices),
    )


def _technology_revenues(
    scenario: Scenario, primal: DispatchSolution, prices: AsPrices
) -> dict[str, dict[str, float]]:
    T = scenario.horizon
    gens, res, stos = scenario.generators, scenario.res_units, scenario.storage_units
    lam_e, lam_h, lam_pfr, lam_efr = prices.lambda_e, prices.lambda_h, prices.lambda_pfr, prices.lambda_efr
    # per unit in scenario order; a revenue a unit cannot earn is a 0.0 term
    sto_modes = _stack(primal.sto_cha_mode, stos, T) + _stack(primal.sto_dis_mode, stos, T)
    revenue = {
        "energy_revenue": np.concatenate((
            np.vecdot(_stack(primal.gen_p, gens, T), lam_e),
            np.vecdot(_stack(primal.res_p, res, T), lam_e),
            np.vecdot(_stack(primal.sto_discharge, stos, T) - _stack(primal.sto_charge, stos, T), lam_e),
        )),
        "inertia_revenue": np.concatenate((
            np.vecdot(_product(gens, "inertia_s", "p_max_mw")[:, None] * _stack(primal.gen_commit, gens, T), lam_h),
            np.zeros(len(res)),
            np.vecdot(_product(stos, "inertia_s", "p_max_mw")[:, None] * sto_modes, lam_h),
        )),
        "pfr_revenue": np.concatenate((
            np.vecdot(_stack(primal.gen_pfr, gens, T), lam_pfr),
            np.zeros(len(res)),
            np.vecdot(_stack(primal.sto_pfr, stos, T), lam_pfr),
        )),
        "efr_revenue": np.concatenate((
            np.zeros(len(gens) + len(res)),
            np.vecdot(_stack(primal.sto_efr, stos, T), lam_efr),
        )),
    }
    techs = np.array([u.technology for u in scenario.all_units])
    out: dict[str, dict[str, float]] = {}
    for tech in dict.fromkeys(techs.tolist()):
        mine = techs == tech
        b = out[tech] = {key: _add(0.0, terms[mine]) for key, terms in revenue.items()}
        b["as_revenue"] = b["inertia_revenue"] + b["pfr_revenue"] + b["efr_revenue"]
    return out


# ---------------------------------------------------------------------------
# Stand-alone AS market sizes


@dataclass
class StandAloneCosts:
    """Per-unit, per-hour stand-alone AS market sizes.

    Entries exist only at hours where the unit is dispatched (discharging,
    for storage); exact zeros mark non-players for the game logic. ``stats``
    aggregates one solve per non-zero profile distinct on the
    ``DISPATCH_TOL`` grid, the group that takes the price stage's solve
    included: LP iterations, OA rounds and cuts
    summed, the largest final cone residual and LP column count, and
    ``"graced"`` if any solve was graced.
    """

    horizon: int
    omegas: dict[str, np.ndarray]
    dispatched: dict[str, np.ndarray]
    technology: dict[str, str]
    stats: SolveStats = field(default_factory=SolveStats)

    def per_hour(self, t: int) -> list[tuple[str, float]]:
        return [
            (uid, float(self.omegas[uid][t]))
            for uid in self.omegas
            if self.dispatched[uid][t]
        ]

    def units(self) -> list[str]:
        return list(self.omegas)


DISPATCH_TOL = 1e-6


def _aggregate(solved: list[SolveStats]) -> SolveStats:
    return SolveStats(
        lp_iterations=sum(s.lp_iterations for s in solved),
        cuts=sum(s.cuts for s in solved),
        oa_rounds=sum(s.oa_rounds for s in solved),
        stop_reason="graced" if any(s.stop_reason == "graced" for s in solved) else "converged",
        final_cone_residual=max((s.final_cone_residual for s in solved), default=0.0),
        lp_columns=max((s.lp_columns for s in solved), default=0),
    )


def loss_profiles(scenario: Scenario, dispatch: DispatchSolution) -> tuple[list[str], np.ndarray]:
    """The loss-eligible units' ids in scenario order, and their hourly loss
    profiles as one (units x hours) matrix: each unit's ``dispatch_of``
    clipped at zero, with values at or below ``DISPATCH_TOL`` zeroed."""
    ids = [unit.id for unit in scenario.all_units if unit.loss_eligible]
    prof = np.maximum(
        np.array([dispatch.dispatch_of(uid) for uid in ids], dtype=float).reshape(len(ids), scenario.horizon), 0.0
    )
    prof[prof <= DISPATCH_TOL] = 0.0
    return ids, prof


def standalone_markets(
    scenario: Scenario,
    block_i: tuple[CommitmentSchedule, DispatchSolution],
    priced: tuple[UCModel, np.ndarray, SolveStats] | None = None,
) -> StandAloneCosts:
    """One relaxed solve per distinct dispatched loss profile
    (``loss_profiles``), with the loss parameter fixed to that profile;
    Omega_{i,t} = p_i_t * omega_t.

    The stand-alone model depends on a unit only through its hourly loss
    profile, so units whose profiles are equal on the ``DISPATCH_TOL`` grid
    (``np.rint(p / DISPATCH_TOL)``) share one solve, at the exact profile of
    the group's first unit in scenario order, and only its omega is read
    (``solve_omega``, every check of ``solve_relaxed`` kept); each unit
    keeps its own p. Each profile re-targets the max-loss rows of one
    relaxed model (``UCModel.with_loss_profile``) and is solved cold on a
    fresh session, so HiGHS sees exactly what a fresh build would hand it.

    ``priced`` is the price stage's ``(model, omega_loss, stats)``, its
    model relaxed under a ``FixedProfile``. The group equal to that model's
    loss profile on the grid takes its omega and stats instead of a solve;
    every other group re-targets that model, so no model is built. Without
    ``priced`` one model is built per call.

    Pure function of its inputs. Entries at or below ``ZERO_CLAMP`` times
    the largest magnitude are zeroed and logged at DEBUG, unit by unit, hour
    by hour. Every unit's arrays are rows of one matrix and do not overlap.
    """
    _, dispatch = block_i
    T = scenario.horizon
    tech = scenario.technology_of()
    ids, prof = loss_profiles(scenario, dispatch)
    # the distinct profiles on the grid, a zero profile's key all zero; each
    # live one is solved at its first unit, in scenario order
    keys, first, group = np.unique(np.rint(prof / DISPATCH_TOL), axis=0, return_index=True, return_inverse=True)
    live = [u for u in np.argsort(first) if keys[u].any()]

    priced_key = None
    if priced is not None:
        base, priced_omega, priced_stats = priced
        priced_key = np.rint(np.array(base.loss_rule.p_mw, dtype=float) / DISPATCH_TOL)
    elif live:
        base = build_uc(scenario, FixedProfile.constant(0.0, T), relaxed=True)
    omega = np.zeros((len(first), T))
    solved: list[SolveStats] = []
    for u in live:
        i = first[u]
        if priced_key is not None and np.array_equal(keys[u], priced_key):
            omega[u], stats = priced_omega, priced_stats
        else:
            try:
                omega[u], stats = solve_omega(base.with_loss_profile(FixedProfile(tuple(prof[i]))))
            except InfeasibleError as exc:
                raise StandaloneError(ids[i], exc) from exc
        solved.append(stats)

    # a zero profile's row of omega stays zero, as its product does
    omegas = prof * omega[group.ravel()]
    scale = float(np.abs(omegas).max(initial=1.0))
    clamp = np.abs(omegas) <= ZERO_CLAMP * scale
    for k, t in np.argwhere(clamp & (omegas != 0.0)):
        log.debug("stand-alone zero-clamp: unit %s hour %d value %r", ids[k], t, float(omegas[k, t]))
    omegas[clamp] = 0.0
    return StandAloneCosts(
        horizon=T,
        omegas=dict(zip(ids, omegas)),
        dispatched=dict(zip(ids, prof > 0.0)),
        technology={uid: tech[uid] for uid in ids},
        stats=_aggregate(solved),
    )
