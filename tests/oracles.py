"""Independent oracles used by the tests: exhaustive enumeration over binary
commitment patterns (the LP evaluator is shared with the solver, the search
is not: each pattern gets its own cold LP session through
``solve_fixed_binaries``, independent of the branch-and-bound's warm one), and
the per-unit relaxation that the class-column relaxation reduces, scipy's
CSR matrix of a model's ``lp.Csr``, and the payment audit as plain per-unit
loops."""
from __future__ import annotations

from dataclasses import fields, replace
from itertools import product

import numpy as np
from scipy import sparse

from asmarket.lp import Csr
from asmarket.pricing import MarketBreakdown, as_prices_from_duals
from asmarket.scenario import Scenario
from asmarket.solve import DispatchSolution, DualSolution, solve_fixed_binaries
from asmarket.ucmodel import UCModel


def enumerate_commitments(model: UCModel, max_binaries: int = 12):
    """Minimum objective over every assignment of the binary variables.

    Returns (best objective, best assignment dict) or (None, None) when every
    pattern is infeasible.
    """
    idxs = model.binary_indices
    if len(idxs) > max_binaries:
        raise ValueError(f"{len(idxs)} binaries exceeds the enumeration cap {max_binaries}")
    best_obj, best_pattern = None, None
    for bits in product((0, 1), repeat=len(idxs)):
        values = dict(zip(idxs, bits))
        result = solve_fixed_binaries(model, values)
        if result is None:
            continue
        obj, _ = result
        if best_obj is None or obj < best_obj:
            best_obj, best_pattern = obj, values
    return best_obj, best_pattern


def classes_of_one(scenario: Scenario) -> Scenario:
    """``scenario`` with a unique technology label on every unit: no two units
    share a class, so ``build_uc(relaxed=True)`` holds one column block per
    unit, array for array the per-unit relaxation."""
    return replace(
        scenario,
        generators=tuple(replace(u, technology=u.id) for u in scenario.generators),
        res_units=tuple(replace(u, technology=u.id) for u in scenario.res_units),
        storage_units=tuple(replace(u, technology=u.id) for u in scenario.storage_units),
    )


def class_map(model: UCModel) -> dict[str, tuple[str, ...]]:
    """Every unit of ``model`` mapped to its class's members, read from the
    model's class tables; the members of a class share one tuple."""
    classes = {}
    for table in model.class_tables:
        classes.update(table.spread(table.members))
    return classes


def as_scipy(a: Csr) -> sparse.csr_matrix:
    """``a`` as scipy's CSR matrix, sharing its three arrays."""
    return sparse.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def audit_by_unit(primal: DispatchSolution, duals: DualSolution, scenario: Scenario) -> MarketBreakdown:
    """``pricing.duality_audit`` as plain per-unit loops: each unit's terms
    are computed from its own arrays and added in scenario order. No
    residual check is made."""
    prices = as_prices_from_duals(duals, scenario.params)
    lam_e, lam_h, lam_pfr, lam_efr = prices.lambda_e, prices.lambda_h, prices.lambda_pfr, prices.lambda_efr
    inertia_rev = lam_h * primal.inertia_mws
    pfr_rev = lam_pfr * primal.pfr_mw
    efr_rev = lam_efr * primal.efr_mw
    as_market = primal.p_loss_mw * prices.omega_loss

    costs = thermal = renewable = storage = 0.0
    omitted = duals.initial_rhs_term
    by_tech: dict[str, dict[str, float]] = {}

    def bucket(tech):
        return by_tech.setdefault(
            tech, {"energy_revenue": 0.0, "inertia_revenue": 0.0, "pfr_revenue": 0.0, "efr_revenue": 0.0}
        )

    for g in scenario.generators:
        p, commit, pfr = primal.gen_p[g.id], primal.gen_commit[g.id], primal.gen_pfr[g.id]
        inertia_cost = g.inertia_offer_gbp_per_mws * g.p_max_mw * g.inertia_s
        costs += float(g.energy_offer_gbp_per_mwh * p.sum() + inertia_cost * commit.sum()
                       + g.pfr_offer_gbp_per_mw * pfr.sum())
        thermal += float(duals.psi_max_y[g.id].sum() + duals.psi_max_yst[g.id].sum()
                         + duals.psi_max_ysg[g.id].sum() + duals.psi_max_ysd[g.id].sum())
        mdt = duals.psi_mdt[g.id]
        omitted += float(mdt[0] * (1.0 - int(g.initially_on)) + mdt[1:].sum())
        b = bucket(g.technology)
        b["energy_revenue"] += float(lam_e @ p)
        b["inertia_revenue"] += float(lam_h @ (g.inertia_s * g.p_max_mw * commit))
        b["pfr_revenue"] += float(lam_pfr @ pfr)
    for r in scenario.res_units:
        p = primal.res_p[r.id]
        costs += float(r.energy_offer_gbp_per_mwh * p.sum())
        renewable += float((np.array(r.cf) * r.p_max_mw) @ duals.psi_cf[r.id])
        bucket(r.technology)["energy_revenue"] += float(lam_e @ p)
    for s in scenario.storage_units:
        modes = primal.sto_cha_mode[s.id] + primal.sto_dis_mode[s.id]
        costs += float(
            s.energy_offer_gbp_per_mwh * primal.sto_discharge[s.id].sum()
            + s.inertia_offer_gbp_per_mws * s.p_max_mw * s.inertia_s * modes.sum()
            + s.pfr_offer_gbp_per_mw * primal.sto_pfr[s.id].sum()
            + s.efr_offer_gbp_per_mw * primal.sto_efr[s.id].sum()
        )
        storage += float(
            -s.e_min_mwh * duals.psi_e_min[s.id].sum()
            + s.e_max_mwh * duals.psi_e_max[s.id].sum()
            + duals.psi_max_ycha[s.id].sum()
            + duals.psi_max_ydis[s.id].sum()
            + duals.psi_mutex[s.id].sum()
        )
        storage += float(s.e_ini_mwh * duals.psi_ini[s.id] - s.e_end_mwh * duals.psi_end[s.id])
        b = bucket(s.technology)
        b["energy_revenue"] += float(lam_e @ (primal.sto_discharge[s.id] - primal.sto_charge[s.id]))
        b["inertia_revenue"] += float(lam_h @ (s.inertia_s * s.p_max_mw * modes))
        b["pfr_revenue"] += float(lam_pfr @ primal.sto_pfr[s.id])
        b["efr_revenue"] += float(lam_efr @ primal.sto_efr[s.id])
    for b in by_tech.values():
        b["as_revenue"] = b["inertia_revenue"] + b["pfr_revenue"] + b["efr_revenue"]

    energy_payments = float(np.asarray(scenario.demand_mw) @ lam_e)
    lhs = energy_payments + duals.as_payment_rhs
    rhs = costs + thermal + renewable + storage + omitted
    return MarketBreakdown(
        horizon=primal.horizon,
        inertia_revenue=inertia_rev,
        pfr_revenue=pfr_rev,
        efr_revenue=efr_rev,
        as_market=as_market,
        omega_identity_residual=np.abs(as_market - (inertia_rev + pfr_rev + efr_rev)),
        energy_payments=energy_payments,
        as_payments=duals.as_payment_rhs,
        system_costs=costs,
        thermal_profits=thermal,
        renewable_profits=renewable,
        storage_profits=storage,
        omitted_terms=omitted,
        identity_residual_rel=abs(lhs - rhs) / max(1.0, abs(lhs)),
        by_technology=by_tech,
    )


def breakdown_differences(a: MarketBreakdown, b: MarketBreakdown) -> list[str]:
    """The fields of ``a`` and ``b`` that differ in any bit; ``by_technology``
    also compares its key order."""

    def bits(v):
        if isinstance(v, dict):
            return [(k, bits(x)) for k, x in v.items()]
        arr = np.asarray(v, dtype=float)
        return arr.shape, arr.tobytes()

    return [f.name for f in fields(MarketBreakdown) if bits(getattr(a, f.name)) != bits(getattr(b, f.name))]
