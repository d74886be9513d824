"""Solvers for the frequency-secured UC: convex relaxation with full dual
recovery, and best-first branch-and-bound for the mixed-integer form.

The model's rows are assembled once in HiGHS' row-bound form (equality rows
first, then every inequality as ``<=``), so one marginal vector covers every
row. The nadir cone is handled by outer-approximation cutting planes over the
LP core. Each public solve keeps one HiGHS session: cuts are appended as rows
and stay, bounds are changed in place, and branch-and-bound nodes restart
dual simplex from their parent's optimal basis. Cone multipliers are
reconstructed by aggregating the active-cut multipliers through the cut
gradients, so the pricing layer sees exactly the (mu_1, mu_2, mu_3) triple of
the conic formulation. An infeasible LP is diagnosed by HiGHS' elastic
relaxation of its rows, with the violations summed per constraint class.
"""
from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import lp
from .frequency import NadirCut, nadir_terms, separating_cut
from .ucmodel import (
    INFEASIBILITY_LABELS,
    K_BALANCE,
    K_COMMIT,
    K_E0CAP,
    K_EEND,
    K_EFRDEF,
    K_HDEF,
    K_MAXLOSS,
    K_MDT,
    K_MUT,
    K_MUTEX,
    K_NADIR_CUT,
    K_PFRDEF,
    K_QSS,
    K_ROCOF,
    UCModel,
    V_E,
    V_E0,
    V_EFRS,
    V_P,
    V_PCHA,
    V_PDIS,
    V_PFRG,
    V_PFRS,
    V_PLOSS,
    V_PRES,
    V_Y,
    V_YCHA,
    V_YDIS,
    V_YSD,
    V_YSG,
    V_YST,
)


class SolverError(Exception):
    pass


class InfeasibleError(SolverError):
    """Carries the constraint classes that cannot be satisfied."""

    def __init__(self, certificate: str, by_class: dict[str, float] | None = None):
        self.certificate = certificate
        self.by_class = by_class or {}
        detail = ", ".join(f"{k}: {v:.3f}" for k, v in sorted(self.by_class.items()))
        super().__init__(f"infeasible: {certificate}" + (f" ({detail})" if detail else ""))


class UnboundedError(SolverError):
    pass


class DualRecoveryError(SolverError):
    pass


MAX_CUT_ROUNDS = 400       # LPs per OA loop before it gives up
GRACE_ROUNDS = 50          # OA rounds before a point within feas_tol is accepted
INTEGRALITY_TOL = 1e-6
LP_TOL = 1e-9              # HiGHS primal and dual feasibility tolerance


@dataclass
class SolveOptions:
    feas_tol: float = 1e-6           # absolute, on scaled rows
    duality_tol: float = 1e-6        # relative duality gap / CS residual
    cone_rel_tol: float = 1e-9       # cone residual relative to point scale
    max_nodes: int = 100_000
    time_limit_s: float | None = None


@dataclass
class CommitmentSchedule:
    gen_on: dict[str, np.ndarray]
    gen_start_up: dict[str, np.ndarray]
    gen_start_gen: dict[str, np.ndarray]
    gen_shut_down: dict[str, np.ndarray]
    sto_charging: dict[str, np.ndarray]
    sto_discharging: dict[str, np.ndarray]


@dataclass
class DispatchSolution:
    objective: float
    horizon: int
    gen_p: dict[str, np.ndarray]
    gen_pfr: dict[str, np.ndarray]
    gen_commit: dict[str, np.ndarray]      # commitment level (fractional when relaxed)
    res_p: dict[str, np.ndarray]
    sto_charge: dict[str, np.ndarray]
    sto_discharge: dict[str, np.ndarray]
    sto_cha_mode: dict[str, np.ndarray]
    sto_dis_mode: dict[str, np.ndarray]
    sto_soc: dict[str, np.ndarray]
    sto_pfr: dict[str, np.ndarray]
    sto_efr: dict[str, np.ndarray]
    sto_e0: dict[str, float]
    inertia_mws: np.ndarray
    pfr_mw: np.ndarray
    efr_mw: np.ndarray
    p_loss_mw: np.ndarray

    def dispatch_of(self, unit_id: str) -> np.ndarray:
        """Loss-relevant injection of a unit (discharge for storage)."""
        if unit_id in self.gen_p:
            return self.gen_p[unit_id]
        if unit_id in self.res_p:
            return self.res_p[unit_id]
        if unit_id in self.sto_discharge:
            return self.sto_discharge[unit_id]
        raise KeyError(unit_id)


@dataclass
class DualSolution:
    lambda_e: np.ndarray
    lambda_h: np.ndarray
    lambda_pfr: np.ndarray
    lambda_efr: np.ndarray
    mu_rocof: np.ndarray
    mu_nadir_1: np.ndarray
    mu_nadir_2: np.ndarray
    mu_nadir_3: np.ndarray
    mu_qss: np.ndarray
    omega_loss: np.ndarray
    psi_max_y: dict[str, np.ndarray]
    psi_max_yst: dict[str, np.ndarray]
    psi_max_ysg: dict[str, np.ndarray]
    psi_max_ysd: dict[str, np.ndarray]
    psi_mdt: dict[str, np.ndarray]
    psi_cf: dict[str, np.ndarray]
    psi_e_min: dict[str, np.ndarray]
    psi_e_max: dict[str, np.ndarray]
    psi_max_ycha: dict[str, np.ndarray]
    psi_max_ydis: dict[str, np.ndarray]
    psi_mutex: dict[str, np.ndarray]
    psi_ini: dict[str, float]
    psi_end: dict[str, float]
    initial_rhs_term: float
    as_payment_rhs: float  # sum of loss-row rhs * omega; zero under EndogenousMax
    dual_objective: float


@dataclass
class SolveStats:
    nodes: int = 0
    lp_iterations: int = 0
    cuts: int = 0
    rel_mip_gap: float = 0.0
    rel_duality_gap: float = 0.0
    max_cs_residual: float = 0.0
    wall_s: float = 0.0
    budget_exhausted: bool = False
    oa_rounds: int = 0               # LPs solved inside OA loops
    # "converged", "graced" (some OA loop accepted a point within feas_tol
    # after its grace rounds; takes precedence) or "budget" (solve_mip ran
    # out of nodes or time; see also budget_exhausted)
    stop_reason: str = "converged"


# ---------------------------------------------------------------------------
# Assembly


@dataclass
class _Assembled:
    """The base rows as HiGHS holds them: ``row_lower <= a @ x <= b``, with the
    equality rows first, then every inequality as ``<=`` (``>=`` rows negated),
    each block in model order; ``rows[i]`` is the model row behind row ``i``."""

    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    a: sparse.csr_matrix
    b: np.ndarray
    row_lower: np.ndarray
    rows: list


def _assemble(model: UCModel) -> _Assembled:
    c = np.array([v.cost for v in model.vardefs])
    lb = np.array([v.lb for v in model.vardefs])
    ub = np.array([v.ub for v in model.vardefs])

    rows = [row for row in model.rows if row.sense == "="]
    rows += [row for row in model.rows if row.sense != "="]
    r_idx, c_idx, data, b = [], [], [], []
    for r, row in enumerate(rows):
        flip = -1.0 if row.sense == ">=" else 1.0
        for idx, coef in row.coeffs:
            r_idx.append(r)
            c_idx.append(idx)
            data.append(flip * coef)
        b.append(flip * row.rhs)
    a = sparse.csr_matrix((data, (r_idx, c_idx)), shape=(len(rows), model.n_vars))
    b = np.array(b)
    row_lower = np.where([row.sense == "=" for row in rows], b, -np.inf)
    return _Assembled(c, lb, ub, a, b, row_lower, rows)


def _cut_matrix(model: UCModel, cuts: list[NadirCut]) -> sparse.csr_matrix:
    params = model.scenario.params
    rows, cols, data = [], [], []
    for r, cut in enumerate(cuts):
        cone = model.cones[cut.t]
        coefs = cut.coefficients(params)
        for idx, key in (
            (cone.idx_h, "h"),
            (cone.idx_efr, "efr"),
            (cone.idx_pfr, "pfr"),
            (cone.idx_ploss, "p_loss"),
        ):
            rows.append(r)
            cols.append(idx)
            data.append(coefs[key])
    return sparse.csr_matrix((data, (rows, cols)), shape=(len(cuts), model.n_vars))


def _patched_bounds(asm: _Assembled, patch: dict[int, tuple[float, float]] | None):
    if not patch:
        return asm.lb, asm.ub
    lb, ub = asm.lb.copy(), asm.ub.copy()
    for idx, (lo, hi) in patch.items():
        lb[idx] = lo
        ub[idx] = hi
    return lb, ub


def _cone_violations(model: UCModel, x: np.ndarray, rel_tol: float):
    params = model.scenario.params
    out = []
    for cone in model.cones:
        u1, u2, v = nadir_terms(
            x[cone.idx_h], x[cone.idx_efr], x[cone.idx_pfr], x[cone.idx_ploss], params
        )
        nrm = math.hypot(u1, u2)
        scaled = (nrm - v) / max(1.0, abs(v), nrm)
        if scaled > rel_tol:
            out.append((cone.t, u1, u2, scaled))
    return out


def _session(model: UCModel, asm: _Assembled, cuts: list[NadirCut]) -> lp.LpSession:
    """One HiGHS model holding the base rows and ``cuts``; later cuts are appended."""
    a = sparse.vstack([asm.a, _cut_matrix(model, cuts)], format="csr")
    row_lower = np.concatenate([asm.row_lower, np.full(len(cuts), -np.inf)])
    row_upper = np.concatenate([asm.b, np.zeros(len(cuts))])
    return lp.LpSession(asm.c, a, row_lower, row_upper, asm.lb, asm.ub, LP_TOL)


def _oa_solve(
    model: UCModel,
    asm: _Assembled,
    cuts: list[NadirCut],
    patch: dict[int, tuple[float, float]] | None,
    opts: SolveOptions,
    stats: SolveStats,
    session: lp.LpSession,
) -> lp.LpOutcome:
    """Solve the LP, adding nadir cuts until the cone holds at the optimum.

    ``session`` holds the base rows and every cut in ``cuts``; the patched
    bounds are set in place and the LP is solved from whatever basis the
    session holds. Each round's new cuts are appended to both and the LP is
    re-solved warm from the previous optimal basis, which cut rows leave dual
    feasible. Targets the tight cone tolerance; on flat optimal faces the
    vertex can wander among near-feasible corners, so after a grace number of
    rounds any point inside the scaled feasibility tolerance is accepted and
    ``stats.stop_reason`` becomes ``"graced"``.
    """
    session.set_bounds(*_patched_bounds(asm, patch))
    for round_no in range(MAX_CUT_ROUNDS):
        out = lp.solve_lp(session)
        stats.lp_iterations += out.iterations
        stats.oa_rounds += 1
        if out.status != lp.OPTIMAL:
            return out
        viols = _cone_violations(model, out.x, opts.cone_rel_tol)
        if not viols:
            return out
        if round_no >= GRACE_ROUNDS and max(v[3] for v in viols) <= opts.feas_tol:
            stats.stop_reason = "graced"
            return out
        new_cuts = [separating_cut(t, u1, u2) for t, u1, u2, _ in viols]
        cuts.extend(new_cuts)
        session.add_ub_rows(_cut_matrix(model, new_cuts), np.zeros(len(new_cuts)))
        stats.cuts = len(cuts)
    raise SolverError("nadir outer approximation did not converge")


def _initial_cuts(model: UCModel) -> list[NadirCut]:
    # v >= 0 facets; every cone point satisfies them and they anchor the OA.
    return [NadirCut(t=cone.t, a1=0.0, a2=0.0) for cone in model.cones]


def _diagnose_infeasible(asm: _Assembled, session: lp.LpSession) -> InfeasibleError:
    """HiGHS' elastic row violations, summed by constraint class; the rows past
    the base rows are nadir cuts."""
    by_class: dict[str, float] = {}
    for i, amount in enumerate(session.elastic_violations()):
        if amount > 1e-6:
            kind = asm.rows[i].kind if i < len(asm.rows) else K_NADIR_CUT
            label = INFEASIBILITY_LABELS.get(kind, kind)
            by_class[label] = by_class.get(label, 0.0) + amount
    if not by_class:
        return InfeasibleError("unknown (elastic diagnosis inconclusive)")
    return InfeasibleError(max(by_class, key=by_class.get), by_class)


# ---------------------------------------------------------------------------
# Extraction


def _per_hour(model: UCModel, x: np.ndarray, kind: str, unit: str) -> np.ndarray:
    T = model.scenario.horizon
    return np.array([x[model.vid(kind, unit, t)] for t in range(T)])


def _dispatch_from_x(model: UCModel, x: np.ndarray, objective: float) -> DispatchSolution:
    sc = model.scenario
    T = sc.horizon
    gen_p = {g.id: _per_hour(model, x, V_P, g.id) for g in sc.generators}
    gen_pfr = {g.id: _per_hour(model, x, V_PFRG, g.id) for g in sc.generators}
    gen_commit = {g.id: _per_hour(model, x, V_Y, g.id) for g in sc.generators}
    res_p = {r.id: _per_hour(model, x, V_PRES, r.id) for r in sc.res_units}
    sto_charge = {s.id: _per_hour(model, x, V_PCHA, s.id) for s in sc.storage_units}
    sto_discharge = {s.id: _per_hour(model, x, V_PDIS, s.id) for s in sc.storage_units}
    sto_cha_mode = {s.id: _per_hour(model, x, V_YCHA, s.id) for s in sc.storage_units}
    sto_dis_mode = {s.id: _per_hour(model, x, V_YDIS, s.id) for s in sc.storage_units}
    sto_soc = {s.id: _per_hour(model, x, V_E, s.id) for s in sc.storage_units}
    sto_pfr = {s.id: _per_hour(model, x, V_PFRS, s.id) for s in sc.storage_units}
    sto_efr = {s.id: _per_hour(model, x, V_EFRS, s.id) for s in sc.storage_units}
    sto_e0 = {s.id: float(x[model.vid(V_E0, s.id, -1)]) for s in sc.storage_units}

    # Aggregates are reported as their defining sums so they match exactly.
    inertia = np.zeros(T)
    for g in sc.generators:
        inertia += g.inertia_s * g.p_max_mw * gen_commit[g.id]
    for s in sc.storage_units:
        if s.inertia_s > 0:
            inertia += s.inertia_s * s.p_max_mw * (sto_cha_mode[s.id] + sto_dis_mode[s.id])
    pfr = sum((gen_pfr[g.id] for g in sc.generators), np.zeros(T))
    pfr = pfr + sum((sto_pfr[s.id] for s in sc.storage_units), np.zeros(T))
    efr = sum((sto_efr[s.id] for s in sc.storage_units), np.zeros(T))
    p_loss = np.array([x[model.vid(V_PLOSS, None, t)] for t in range(T)])

    return DispatchSolution(
        objective=objective,
        horizon=T,
        gen_p=gen_p,
        gen_pfr=gen_pfr,
        gen_commit=gen_commit,
        res_p=res_p,
        sto_charge=sto_charge,
        sto_discharge=sto_discharge,
        sto_cha_mode=sto_cha_mode,
        sto_dis_mode=sto_dis_mode,
        sto_soc=sto_soc,
        sto_pfr=sto_pfr,
        sto_efr=sto_efr,
        sto_e0=sto_e0,
        inertia_mws=inertia,
        pfr_mw=pfr,
        efr_mw=efr,
        p_loss_mw=p_loss,
    )


def _commitment_from_x(model: UCModel, x: np.ndarray) -> CommitmentSchedule:
    sc = model.scenario

    def rounded(kind, unit):
        vals = _per_hour(model, x, kind, unit)
        return np.rint(vals).astype(int)

    return CommitmentSchedule(
        gen_on={g.id: rounded(V_Y, g.id) for g in sc.generators},
        gen_start_up={g.id: rounded(V_YST, g.id) for g in sc.generators},
        gen_start_gen={g.id: rounded(V_YSG, g.id) for g in sc.generators},
        gen_shut_down={g.id: rounded(V_YSD, g.id) for g in sc.generators},
        sto_charging={s.id: rounded(V_YCHA, s.id) for s in sc.storage_units},
        sto_discharging={s.id: rounded(V_YDIS, s.id) for s in sc.storage_units},
    )


def _duals_from(
    model: UCModel,
    asm: _Assembled,
    out: lp.LpOutcome,
    cuts: list[NadirCut],
    opts: SolveOptions,
    stats: SolveStats,
) -> DualSolution:
    sc = model.scenario
    T = sc.horizon
    n_base = len(asm.rows)
    z = lambda: np.zeros(T)
    lambda_e, lambda_h, lambda_pfr, lambda_efr = z(), z(), z(), z()
    mu_rocof, mu_qss, omega = z(), z(), z()
    mu1, mu2, mu3 = z(), z(), z()

    initial_rhs_term = 0.0
    as_payment_rhs = 0.0
    psi_mdt = {g.id: np.zeros(T) for g in sc.generators}
    psi_mutex = {s.id: np.zeros(T) for s in sc.storage_units}
    psi_ini, psi_end = {}, {}

    # equality rows report price_sign * m; inequality rows hold their <=
    # form, so their multiplier is mu = -m >= 0
    for row, m in zip(asm.rows, out.row_marginals[:n_base]):
        mu = -m
        if row.kind == K_BALANCE:
            lambda_e[row.t] = row.price_sign * m
        elif row.kind == K_HDEF:
            lambda_h[row.t] = row.price_sign * m
        elif row.kind == K_PFRDEF:
            lambda_pfr[row.t] = row.price_sign * m
        elif row.kind == K_EFRDEF:
            lambda_efr[row.t] = row.price_sign * m
        elif row.kind in (K_COMMIT, K_MUT) and row.rhs != 0.0:
            # both keep their natural orientation (= and <=)
            initial_rhs_term -= row.rhs * m
        elif row.kind == K_ROCOF:
            mu_rocof[row.t] = mu
        elif row.kind == K_QSS:
            mu_qss[row.t] = mu
        elif row.kind == K_MAXLOSS:
            omega[row.t] += mu
            as_payment_rhs += row.rhs * mu
        elif row.kind == K_MDT:
            psi_mdt[row.unit][row.t] = mu
        elif row.kind == K_MUTEX:
            psi_mutex[row.unit][row.t] = mu
        elif row.kind == K_E0CAP:
            psi_ini[row.unit] = mu
        elif row.kind == K_EEND:
            psi_end[row.unit] = mu
    for cut, m in zip(cuts, out.row_marginals[n_base:]):
        nu = -m
        mu1[cut.t] += nu * cut.a1
        mu2[cut.t] += nu * cut.a2
        mu3[cut.t] += nu

    psi_ub = {}
    psi_lb = {}
    for v in model.vardefs:
        if math.isfinite(v.ub):
            psi_ub[v.idx] = -out.upper_marginals[v.idx]
        if math.isfinite(v.lb):
            psi_lb[v.idx] = out.lower_marginals[v.idx]

    def ub_series(kind, unit):
        return np.array([psi_ub.get(model.vid(kind, unit, t), 0.0) for t in range(T)])

    def lb_series(kind, unit):
        return np.array([psi_lb.get(model.vid(kind, unit, t), 0.0) for t in range(T)])

    duals = DualSolution(
        lambda_e=lambda_e,
        lambda_h=lambda_h,
        lambda_pfr=lambda_pfr,
        lambda_efr=lambda_efr,
        mu_rocof=mu_rocof,
        mu_nadir_1=mu1,
        mu_nadir_2=mu2,
        mu_nadir_3=mu3,
        mu_qss=mu_qss,
        omega_loss=omega,
        psi_max_y={g.id: ub_series(V_Y, g.id) for g in sc.generators},
        psi_max_yst={g.id: ub_series(V_YST, g.id) for g in sc.generators},
        psi_max_ysg={g.id: ub_series(V_YSG, g.id) for g in sc.generators},
        psi_max_ysd={g.id: ub_series(V_YSD, g.id) for g in sc.generators},
        psi_mdt=psi_mdt,
        psi_cf={r.id: ub_series(V_PRES, r.id) for r in sc.res_units},
        psi_e_min={s.id: lb_series(V_E, s.id) for s in sc.storage_units},
        psi_e_max={s.id: ub_series(V_E, s.id) for s in sc.storage_units},
        psi_max_ycha={s.id: ub_series(V_YCHA, s.id) for s in sc.storage_units},
        psi_max_ydis={s.id: ub_series(V_YDIS, s.id) for s in sc.storage_units},
        psi_mutex=psi_mutex,
        psi_ini=psi_ini,
        psi_end=psi_end,
        initial_rhs_term=initial_rhs_term,
        as_payment_rhs=as_payment_rhs,
        dual_objective=_dual_objective(asm, out),
    )
    stats.max_cs_residual = _max_cs_residual(asm, out, cuts, model)
    scale = max(1.0, abs(out.objective))
    if stats.max_cs_residual > opts.duality_tol * scale:
        raise DualRecoveryError(
            f"complementary-slackness residual {stats.max_cs_residual:.3e} exceeds tolerance"
        )
    return duals


def _dual_objective(asm: _Assembled, out: lp.LpOutcome) -> float:
    # cut rows are homogeneous; bounds contribute their finite terms
    total = float(asm.b @ out.row_marginals[: len(asm.b)])
    lb, ub = asm.lb, asm.ub
    fin = np.isfinite(lb)
    total += float(lb[fin] @ out.lower_marginals[fin])
    fin = np.isfinite(ub)
    total += float(ub[fin] @ out.upper_marginals[fin])
    return total


def _max_cs_residual(asm: _Assembled, out: lp.LpOutcome, cuts, model) -> float:
    x = out.x
    n_base = len(asm.b)
    worst = float(np.max(np.abs((asm.a @ x - asm.b) * out.row_marginals[:n_base]), initial=0.0))
    if len(cuts):
        slack = -(_cut_matrix(model, cuts) @ x)
        worst = max(worst, float(np.max(np.abs(slack * out.row_marginals[n_base:]))))
    fin = np.isfinite(asm.lb)
    worst = max(worst, float(np.max(np.abs((x - asm.lb)[fin] * out.lower_marginals[fin]), initial=0.0)))
    fin = np.isfinite(asm.ub)
    worst = max(worst, float(np.max(np.abs((asm.ub - x)[fin] * out.upper_marginals[fin]), initial=0.0)))
    return worst


def _verify_feasibility(asm: _Assembled, x: np.ndarray, tol: float) -> None:
    ax = asm.a @ x
    viol = np.maximum(asm.row_lower - ax, ax - asm.b) / np.maximum(1.0, np.abs(asm.b))
    if viol.max() > tol:
        i = int(np.argmax(viol))
        raise SolverError(f"row {asm.rows[i].name} violated by {viol[i]:.3e} (scaled), above tolerance")


# ---------------------------------------------------------------------------
# Public solves


def solve_relaxed(
    model: UCModel, options: SolveOptions | None = None
) -> tuple[DispatchSolution, DualSolution, SolveStats]:
    """Solve the convex relaxation and recover the full dual vector.

    Guarantees on success: relative duality gap and per-row complementary
    slackness residual within ``options.duality_tol``.
    """
    if not model.relaxed:
        raise ValueError("solve_relaxed requires a model built with relaxed=True")
    opts = options or SolveOptions()
    stats = SolveStats()
    t0 = time.perf_counter()
    asm = _assemble(model)
    cuts = _initial_cuts(model)
    session = _session(model, asm, cuts)
    out = _oa_solve(model, asm, cuts, None, opts, stats, session)
    if out.status == lp.INFEASIBLE:
        raise _diagnose_infeasible(asm, session)
    if out.status == lp.UNBOUNDED:
        raise UnboundedError("relaxed model is unbounded")
    if out.status != lp.OPTIMAL:
        raise SolverError(f"LP backend failure: {out.message}")
    _verify_feasibility(asm, out.x, opts.feas_tol)
    dispatch = _dispatch_from_x(model, out.x, out.objective)
    duals = _duals_from(model, asm, out, cuts, opts, stats)
    gap = abs(out.objective - duals.dual_objective) / max(1.0, abs(out.objective))
    stats.rel_duality_gap = gap
    stats.cuts = len(cuts)
    stats.wall_s = time.perf_counter() - t0
    if gap > opts.duality_tol:
        raise DualRecoveryError(f"relative duality gap {gap:.3e} exceeds tolerance")
    return dispatch, duals, stats


def _dangling_yst(model: UCModel) -> set[int]:
    # start-up indicators whose start-generating hour lies past the horizon;
    # they are unconstrained upward only and carry no cost, so they are
    # zeroed during extraction.
    T = model.scenario.horizon
    out = set()
    for g in model.scenario.generators:
        if g.start_up_h > 0:
            for t in range(max(0, T - g.start_up_h), T):
                out.add(model.vid(V_YST, g.id, t))
    return out


def _fractional(model, x, skip) -> list[int]:
    bad = []
    for idx in model.binary_indices:
        if idx in skip:
            continue
        if min(x[idx], 1.0 - x[idx]) > INTEGRALITY_TOL:
            bad.append(idx)
    return bad


def _pick_branch_var(model: UCModel, x: np.ndarray, fractional: list[int]) -> int:
    branch_set = set(model.branch_indices)
    pool = [i for i in fractional if i in branch_set] or fractional
    # most fractional; ties by unit size descending, then index
    def key(idx):
        v = model.vardefs[idx]
        return (abs(x[idx] - 0.5), -v.branch_weight, idx)

    return min(pool, key=key)


def _heuristic_fix(model: UCModel, x: np.ndarray) -> dict[int, tuple[float, float]] | None:
    """Round the relaxation up to a commitment pattern and fix all binaries."""
    sc = model.scenario
    T = sc.horizon
    patch: dict[int, tuple[float, float]] = {}
    for g in sc.generators:
        y_prev = model.initial_state.y0(g.id)
        y = [1 if x[model.vid(V_Y, g.id, t)] > INTEGRALITY_TOL else 0 for t in range(T)]
        for t in range(T):
            ysg = max(0, y[t] - (y[t - 1] if t else y_prev))
            ysd = max(0, (y[t - 1] if t else y_prev) - y[t])
            patch[model.vid(V_Y, g.id, t)] = (y[t], y[t])
            patch[model.vid(V_YSG, g.id, t)] = (ysg, ysg)
            patch[model.vid(V_YSD, g.id, t)] = (ysd, ysd)
        # start-up indicators consistent with the lead time
        yst = [0] * T
        for t in range(T):
            ysg_t = patch[model.vid(V_YSG, g.id, t)][0]
            if ysg_t:
                j = t - g.start_up_h
                if j < 0:
                    return None  # cannot start that early from a cold start
                yst[j] = 1
        for t in range(T):
            patch[model.vid(V_YST, g.id, t)] = (yst[t], yst[t])
    for s in sc.storage_units:
        for t in range(T):
            cha = x[model.vid(V_YCHA, s.id, t)]
            dis = x[model.vid(V_YDIS, s.id, t)]
            c = 1 if cha > INTEGRALITY_TOL and cha >= dis else 0
            d = 1 if dis > INTEGRALITY_TOL and dis > cha else 0
            patch[model.vid(V_YCHA, s.id, t)] = (c, c)
            patch[model.vid(V_YDIS, s.id, t)] = (d, d)
    return patch


def solve_mip(
    model: UCModel, rel_gap: float = 1e-6, options: SolveOptions | None = None
) -> tuple[CommitmentSchedule, DispatchSolution, SolveStats]:
    """Best-first branch-and-bound on the commitment binaries.

    Branches on the most fractional commitment variable (ties: unit size
    descending). The root, the rounding heuristic, every node and the
    fixed-binary polish share one LP session and one cut pool (the cuts are
    globally valid). A node sets its bound patch in place and restarts dual
    simplex from its parent's optimal basis, which bound changes leave dual
    feasible. Returns the incumbent with stats flagged when the node or time
    budget runs out before the gap is proven.
    """
    if model.relaxed:
        raise ValueError("solve_mip requires a model built with relaxed=False")
    opts = options or SolveOptions()
    stats = SolveStats()
    t0 = time.perf_counter()
    asm = _assemble(model)
    cuts = _initial_cuts(model)
    dangling = _dangling_yst(model)
    session = _session(model, asm, cuts)

    root = _oa_solve(model, asm, cuts, None, opts, stats, session)
    if root.status == lp.INFEASIBLE:
        raise _diagnose_infeasible(asm, session)
    if root.status == lp.UNBOUNDED:
        raise UnboundedError("model is unbounded")
    if root.status != lp.OPTIMAL:
        raise SolverError(f"LP backend failure: {root.message}")

    root_basis = session.basis()
    incumbent: np.ndarray | None = None
    inc_obj = math.inf
    patch0 = _heuristic_fix(model, root.x)
    if patch0 is not None:
        try:
            h_out = _oa_solve(model, asm, cuts, patch0, opts, stats, session)
        except SolverError:
            h_out = None
        if h_out is not None and h_out.status == lp.OPTIMAL:
            incumbent, inc_obj = h_out.x.copy(), h_out.objective

    seq = 0
    # (bound, tie-break, bound patch, parent's optimal basis)
    heap: list[tuple[float, int, dict, object]] = [(root.objective, seq, {}, root_basis)]
    best_bound = root.objective
    budget_exhausted = False

    def threshold() -> float:
        return inc_obj - rel_gap * max(1.0, abs(inc_obj))

    while heap:
        bound, _, patch, basis = heapq.heappop(heap)
        best_bound = bound
        if incumbent is not None and bound >= threshold():
            break
        if stats.nodes >= opts.max_nodes or (
            opts.time_limit_s is not None and time.perf_counter() - t0 > opts.time_limit_s
        ):
            budget_exhausted = True
            break
        stats.nodes += 1
        session.restore(basis)
        out = _oa_solve(model, asm, cuts, patch, opts, stats, session)
        if out.status != lp.OPTIMAL:
            continue
        if incumbent is not None and out.objective >= threshold():
            continue
        frac = _fractional(model, out.x, dangling)
        if not frac:
            if out.objective < inc_obj:
                incumbent, inc_obj = out.x.copy(), out.objective
            continue
        var = _pick_branch_var(model, out.x, frac)
        basis = session.basis()
        for val in (0.0, 1.0):
            seq += 1
            child = dict(patch)
            child[var] = (val, val)
            heapq.heappush(heap, (out.objective, seq, child, basis))
    else:
        best_bound = inc_obj  # search space exhausted: proven optimal

    if heap and not budget_exhausted:
        best_bound = min(best_bound, heap[0][0])
    if incumbent is None:
        if budget_exhausted:
            raise SolverError("no integral solution found within the node/time budget")
        raise InfeasibleError("commitment logic (no integral commitment exists)")

    # polish: re-optimise the continuous dispatch with the binaries pinned to
    # their rounded values, so the returned point is cleanly feasible
    x = incumbent.copy()
    for idx in dangling:
        x[idx] = 0.0
    fixed = {idx: (round(x[idx]), round(x[idx])) for idx in model.binary_indices}
    polished = _oa_solve(model, asm, cuts, fixed, opts, stats, session)
    if polished.status != lp.OPTIMAL:
        raise SolverError(
            f"fixed-binary polish of the incumbent failed (LP status {polished.status}: "
            f"{polished.message})"
        )
    x = polished.x
    inc_obj = polished.objective
    stats.rel_mip_gap = max(0.0, (inc_obj - best_bound) / max(1.0, abs(inc_obj)))
    stats.budget_exhausted = budget_exhausted
    if budget_exhausted and stats.stop_reason == "converged":
        stats.stop_reason = "budget"
    stats.cuts = len(cuts)
    stats.wall_s = time.perf_counter() - t0
    schedule = _commitment_from_x(model, x)
    dispatch = _dispatch_from_x(model, x, inc_obj)
    _check_schedule(model, schedule)
    return schedule, dispatch, stats


def _check_schedule(model: UCModel, sched: CommitmentSchedule) -> None:
    for g in model.scenario.generators:
        y = sched.gen_on[g.id]
        ysg = sched.gen_start_gen[g.id]
        ysd = sched.gen_shut_down[g.id]
        prev = model.initial_state.y0(g.id)
        for t in range(model.scenario.horizon):
            if y[t] != prev + ysg[t] - ysd[t]:
                raise SolverError(f"commitment transition identity violated for {g.id} at t={t}")
            prev = y[t]
    for s in model.scenario.storage_units:
        if np.any(sched.sto_charging[s.id] + sched.sto_discharging[s.id] > 1):
            raise SolverError(f"charge/discharge exclusivity violated for {s.id}")


def solve_fixed_binaries(
    model: UCModel, values: dict[int, int], options: SolveOptions | None = None
) -> tuple[float, DispatchSolution] | None:
    """Optimise the continuous dispatch for a fully fixed binary pattern.

    Returns None when the pattern is infeasible. Used by the exhaustive
    enumeration oracle and the heuristics; the nadir cone is enforced.
    """
    opts = options or SolveOptions()
    stats = SolveStats()
    asm = _assemble(model)
    cuts = _initial_cuts(model)
    patch = {idx: (float(v), float(v)) for idx, v in values.items()}
    out = _oa_solve(model, asm, cuts, patch, opts, stats, _session(model, asm, cuts))
    if out.status == lp.INFEASIBLE:
        return None
    if out.status != lp.OPTIMAL:
        raise SolverError(f"LP backend failure: {out.message}")
    return out.objective, _dispatch_from_x(model, out.x, out.objective)
