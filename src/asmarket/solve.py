"""Solvers for the frequency-secured UC: convex relaxation with full dual
recovery, and best-first branch-and-bound for the mixed-integer form.

``build_uc`` already holds the LP in HiGHS' row-bound form (equality rows
first, then every inequality as ``<=``), so one marginal vector covers every
row. Every unit column and row is read as a (classes x hours) block of the
model's ``cols`` or ``rows``, one gather per kind and group. A relaxed
model holds one column block per class of identical units, so every member
holds its class's values and an equal share of its class's per-unit duals;
each is computed once per class and held in one read-only array that the
members share. The mixed-integer model has one class per unit, so its
rounding, branching and schedule checks work on the same blocks. The nadir
cone is handled by outer-approximation cutting planes over the LP core. Each
public solve keeps one cut pool, which owns the HiGHS session and holds the
cuts as three arrays (hour, a1, a2): the session starts from the model's
rows, cuts (each hour's v >= 0 facet first) are appended as rows and stay,
bounds are changed in place, and branch-and-bound nodes restart dual simplex
from their parent's optimal basis. Cone multipliers are reconstructed by
aggregating the active-cut multipliers through the cut gradients, so the
pricing layer sees exactly the (mu_1, mu_2, mu_3) triple of the conic
formulation. An infeasible LP is diagnosed by an irreducible infeasible
subset (IIS) of its rows from HiGHS, counted per constraint class.
``solve_relaxed`` and ``solve_omega`` share one checked relaxed solve;
``solve_omega`` reads only omega from it and lifts nothing to the units.

Every accuracy target is a module constant: ``FEAS_TOL`` (scaled row
feasibility, and the OA grace acceptance), ``DUALITY_TOL`` (relative duality
gap and complementary-slackness residual), ``CONE_REL_TOL`` (the nadir cone
residual the OA loop targets) and ``INTEGRALITY_TOL``.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .frequency import cone_norm, cut_coefficients, nadir_terms, separating_cut
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
    FixedProfile,
    UCModel,
    V_E,
    V_E0,
    V_EFRS,
    V_EFRT,
    V_H,
    V_P,
    V_PCHA,
    V_PDIS,
    V_PFRG,
    V_PFRS,
    V_PFRT,
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

    def __init__(self, certificate: str, by_class: dict[str, int] | None = None):
        self.certificate = certificate
        self.by_class = by_class or {}
        detail = ", ".join(f"{k}: {v}" for k, v in sorted(self.by_class.items()))
        super().__init__(f"infeasible: {certificate}" + (f" ({detail})" if detail else ""))


class UnboundedError(SolverError):
    pass


class DualRecoveryError(SolverError):
    pass


MAX_CUT_ROUNDS = 400       # LPs per OA loop before it gives up
MAX_NODES = 100_000        # branch-and-bound nodes per solve_mip before it gives up
GRACE_ROUNDS = 50          # OA rounds before a point within FEAS_TOL is accepted
INTEGRALITY_TOL = 1e-6
FEAS_TOL = 1e-6            # absolute, on scaled rows
DUALITY_TOL = 1e-6         # relative duality gap / CS residual
CONE_REL_TOL = 1e-9        # cone residual relative to point scale


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
    """Primal point, per unit and per hour. The per-unit arrays are
    read-only, and the members of a class of identical units may share one
    array; copy one before editing it."""

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
    """Dual point. The per-unit ``psi_*`` arrays are read-only, and the
    members of a class of identical units may share one array; copy one
    before editing it."""

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
    budget_exhausted: bool = False
    oa_rounds: int = 0               # LPs solved inside OA loops
    # "converged", "graced" (some OA loop accepted a point within FEAS_TOL
    # after its grace rounds; takes precedence) or "budget" (solve_mip ran
    # out of nodes; see also budget_exhausted)
    stop_reason: str = "converged"
    final_cone_residual: float = 0.0  # largest scaled cone residual at the returned point
    lp_columns: int = 0               # columns of the LP handed to HiGHS


# ---------------------------------------------------------------------------
# LP and OA loop


class _CutPool:
    """The nadir OA state of one solve: its HiGHS session and its cuts.

    Cut k is a1[k]*u1 + a2[k]*u2 - v <= 0 at hour t[k] and is session row
    ``len(model.b) + k``. The session starts from the model's own rows, and
    the first cuts are every hour's v >= 0 facet (a1 = a2 = 0), which every
    cone point satisfies and which anchors the OA.
    """

    def __init__(self, model: UCModel):
        self.model = model
        cone = (V_H, V_PFRT, V_EFRT, V_PLOSS)  # each hour's cone columns, in column order
        self._cone_cols = np.column_stack([model.cols[(kind, None)] for kind in cone])
        self.session = lp.LpSession(model.c, model.a, model.row_lower, model.b, model.lb, model.ub)
        self.t, self.a1, self.a2 = np.zeros(0, dtype=int), np.zeros(0), np.zeros(0)
        T = model.scenario.horizon
        self.add(np.arange(T), np.zeros(T), np.zeros(T))

    def _entries(self, t: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each cut's four entries: its hour's cone columns, and coefficients with zeros kept."""
        c_h, c_efr, c_pfr, c_loss = cut_coefficients(a1, a2, self.model.scenario.params)
        return self._cone_cols[t], np.column_stack([c_h, c_pfr, c_efr, c_loss])

    @property
    def rows(self) -> lp.Csr:
        """Every cut row, in cut order."""
        index, data = self._entries(self.t, self.a1, self.a2)
        indptr = np.arange(0, data.size + 1, 4, dtype=np.int32)
        return lp.Csr(indptr, index.ravel().astype(np.int32), data.ravel(), (len(data), self.model.n_vars))

    def add(self, t: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> None:
        """Append cuts to the pool and to the session."""
        index, data = self._entries(t, a1, a2)
        self.session.add_ub_rows(np.arange(0, data.size + 1, 4), index.ravel(), data.ravel(), np.zeros(len(t)))
        self.t = np.concatenate([self.t, t])
        self.a1 = np.concatenate([self.a1, a1])
        self.a2 = np.concatenate([self.a2, a2])


def _patched_bounds(model: UCModel, patch: dict[int, tuple[float, float]] | None):
    lb, ub = model.lb.copy(), model.ub.copy()
    for idx, (lo, hi) in (patch or {}).items():
        lb[idx] = lo
        ub[idx] = hi
    return lb, ub


def _cone_violations(model: UCModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every hour's cone terms u1, u2 at ``x`` and its scaled residual
    (||u|| - v) / max(1, |v|, ||u||); a residual <= 0 means the cone holds."""
    h, efr, pfr, p_loss = (x[model.cols[(kind, None)]] for kind in (V_H, V_EFRT, V_PFRT, V_PLOSS))
    u1, u2, v = nadir_terms(h, efr, pfr, p_loss, model.scenario.params)
    nrm = cone_norm(u1, u2)
    return u1, u2, (nrm - v) / np.maximum(np.maximum(1.0, np.abs(v)), nrm)


def _final_cone_residual(model: UCModel, x: np.ndarray) -> float:
    """Largest scaled cone residual at ``x``, zero when every cone holds."""
    return float(np.max(_cone_violations(model, x)[2], initial=0.0))


def _oa_solve(
    pool: _CutPool, patch: dict[int, tuple[float, float]] | None, stats: SolveStats
) -> lp.LpOutcome:
    """Solve the LP, adding nadir cuts until the cone holds at the optimum.

    The patched bounds are set in place in the pool's session and the LP is
    solved from whatever basis the session holds. Each round's new cuts, one
    per violated hour in hour order, are added to the pool and the LP is
    re-solved warm from the previous optimal basis, which cut rows leave dual
    feasible. Targets the tight cone tolerance; on flat optimal faces the
    vertex can wander among near-feasible corners, so after a grace number of
    rounds any point inside the scaled feasibility tolerance is accepted and
    ``stats.stop_reason`` becomes ``"graced"``.
    """
    model = pool.model
    pool.session.set_bounds(*_patched_bounds(model, patch))
    for round_no in range(MAX_CUT_ROUNDS):
        out = lp.solve_lp(pool.session)
        stats.lp_iterations += out.iterations
        stats.oa_rounds += 1
        if out.status != lp.OPTIMAL:
            return out
        u1, u2, scaled = _cone_violations(model, out.x)
        hot = np.flatnonzero(scaled > CONE_REL_TOL)
        if not len(hot):
            return out
        if round_no >= GRACE_ROUNDS and scaled[hot].max() <= FEAS_TOL:
            stats.stop_reason = "graced"
            return out
        pool.add(hot, *separating_cut(u1[hot], u2[hot]))
    raise SolverError("nadir outer approximation did not converge")


def _solve_root(pool: _CutPool, stats: SolveStats) -> lp.LpOutcome:
    """The OA solve of the unpatched model; raises why it has no optimum."""
    out = _oa_solve(pool, None, stats)
    if out.status == lp.INFEASIBLE:
        raise _diagnose_infeasible(pool)
    if out.status == lp.UNBOUNDED:
        raise UnboundedError("model is unbounded")
    if out.status != lp.OPTIMAL:
        raise SolverError(f"LP backend failure: {out.message}")
    return out


def _diagnose_infeasible(pool: _CutPool) -> InfeasibleError:
    """HiGHS' IIS rows, counted by constraint class; the rows past the base
    rows are nadir cuts. The certificate is the first class of
    ``INFEASIBILITY_LABELS`` in the IIS, else its most frequent class."""
    kinds = np.full(len(pool.model.b) + len(pool.t), K_NADIR_CUT, dtype=object)
    for (kind, _), idx in pool.model.rows.items():
        kinds[idx] = kind
    by_class: dict[str, int] = {}
    for i in pool.session.iis_rows():
        label = INFEASIBILITY_LABELS.get(kinds[i], kinds[i])
        by_class[label] = by_class.get(label, 0) + 1
    if not by_class:
        return InfeasibleError("unknown (no IIS found)")
    headline = next((label for label in INFEASIBILITY_LABELS.values() if label in by_class), None)
    return InfeasibleError(headline or max(by_class, key=by_class.get), by_class)


# ---------------------------------------------------------------------------
# Extraction


@dataclass
class _Classes:
    """The classes of one group of units (generators, RES or storage): the
    units' ``ids`` in scenario order, ``reps`` the first member of each class
    in the order met and ``rep_units`` their specs, the class ``sizes``, and
    ``pos`` each unit's class position in ``reps``. A mixed-integer model
    has one class per unit."""

    ids: list[str]
    reps: list[str]
    rep_units: list
    sizes: np.ndarray
    pos: list[int]

    @classmethod
    def of(cls, model: UCModel, units) -> "_Classes":
        by_id = {u.id: u for u in units}
        first = [model.classes[uid][0] for uid in by_id]
        reps = list(dict.fromkeys(first))
        index = {rep: k for k, rep in enumerate(reps)}
        sizes = np.array([len(model.classes[rep]) for rep in reps], dtype=float)
        return cls(list(by_id), reps, [by_id[rep] for rep in reps], sizes, list(map(index.__getitem__, first)))

    def gather(self, index: dict, kind: str) -> np.ndarray:
        """The columns or rows of ``kind`` in ``index`` (``model.cols`` or
        ``model.rows``), one row per class."""
        if not self.reps:
            return np.zeros((0, 1), dtype=int)
        return np.array([index[(kind, rep)] for rep in self.reps])

    def column(self, attr: str, dtype=float) -> np.ndarray:
        """Each class's ``attr`` as a column, to broadcast down a block."""
        return np.array([getattr(u, attr) for u in self.rep_units], dtype=dtype)[:, None]

    def spread(self, values) -> dict:
        """``{unit: values[its class position]}``, keyed in scenario order."""
        return dict(zip(self.ids, map(values.__getitem__, self.pos)))


def _binaries(model: UCModel) -> dict[str, tuple[_Classes, np.ndarray]]:
    """``{kind: (its group's classes, its column block)}`` of every binary
    kind, in the field order of ``CommitmentSchedule``: y, y_st, y_sg, y_sd,
    then y_cha, y_dis."""
    sc = model.scenario
    gens, stos = _Classes.of(model, sc.generators), _Classes.of(model, sc.storage_units)
    pairs = ((gens, V_Y), (gens, V_YST), (gens, V_YSG), (gens, V_YSD), (stos, V_YCHA), (stos, V_YDIS))
    return {kind: (group, group.gather(model.cols, kind)) for group, kind in pairs}


def _shared_rows(block: np.ndarray) -> list:
    """The rows of ``block``, one per class, made read-only: every member of a
    class holds its class's row, so a write through one member would change
    its classmates."""
    block.setflags(write=False)
    return list(block)


def _dispatch_from_x(model: UCModel, x: np.ndarray, objective: float) -> DispatchSolution:
    sc = model.scenario
    T = sc.horizon
    gens, res, stos = (_Classes.of(model, units) for units in (sc.generators, sc.res_units, sc.storage_units))
    series = lambda kind, group: group.spread(_shared_rows(x[group.gather(model.cols, kind)]))
    gen_p = series(V_P, gens)
    gen_pfr = series(V_PFRG, gens)
    gen_commit = series(V_Y, gens)
    sto_cha_mode = series(V_YCHA, stos)
    sto_dis_mode = series(V_YDIS, stos)
    sto_pfr = series(V_PFRS, stos)
    sto_efr = series(V_EFRS, stos)

    # Aggregates are reported as their defining sums, added unit by unit in
    # scenario order, so they match exactly.
    def summed(terms):
        # accumulate adds row after row, bit for bit as a loop of += would
        return np.add.accumulate(np.array([np.zeros(T), *terms]), axis=0)[-1]

    inertia = summed(
        [g.inertia_s * g.p_max_mw * gen_commit[g.id] for g in sc.generators]
        + [s.inertia_s * s.p_max_mw * (sto_cha_mode[s.id] + sto_dis_mode[s.id])
           for s in sc.storage_units if s.inertia_s > 0]
    )
    pfr = summed([gen_pfr[g.id] for g in sc.generators]) + summed([sto_pfr[s.id] for s in sc.storage_units])
    efr = summed([sto_efr[s.id] for s in sc.storage_units])

    return DispatchSolution(
        objective=objective,
        horizon=T,
        gen_p=gen_p,
        gen_pfr=gen_pfr,
        gen_commit=gen_commit,
        res_p=series(V_PRES, res),
        sto_charge=series(V_PCHA, stos),
        sto_discharge=series(V_PDIS, stos),
        sto_cha_mode=sto_cha_mode,
        sto_dis_mode=sto_dis_mode,
        sto_soc=series(V_E, stos),
        sto_pfr=sto_pfr,
        sto_efr=sto_efr,
        sto_e0=stos.spread(x[stos.gather(model.cols, V_E0)][:, 0].tolist()),
        inertia_mws=inertia,
        pfr_mw=pfr,
        efr_mw=efr,
        p_loss_mw=x[model.cols[(V_PLOSS, None)]],
    )


def _commitment_from_x(model: UCModel, x: np.ndarray) -> CommitmentSchedule:
    """The binaries at ``x``, rounded and checked: each generator's
    commitment follows its start-ups and shut-downs from its pre-horizon
    state, and no storage unit charges and discharges in one hour. A
    failure names the first unit, then its first hour."""
    binaries = _binaries(model)
    y, _, ysg, ysd, cha, dis = blocks = [np.rint(x[cols]).astype(int) for _, cols in binaries.values()]
    gens, stos = binaries[V_Y][0], binaries[V_YCHA][0]
    prev = np.hstack([gens.column("initially_on", int), y[:, :-1]])
    for group, broken, what in (
        (gens, y != prev + ysg - ysd, "commitment transition identity"),
        (stos, cha + dis > 1, "charge/discharge exclusivity"),
    ):
        if broken.any():
            k, t = np.argwhere(broken)[0]
            raise SolverError(f"{what} violated for {group.ids[k]} at t={t}")
    return CommitmentSchedule(*(group.spread(list(b)) for (group, _), b in zip(binaries.values(), blocks)))


def _omega(model: UCModel, mu: np.ndarray) -> np.ndarray:
    """Each hour's max-loss multipliers added in row order (one row under a
    FixedProfile; under EndogenousMax one per class: generators, RES,
    storage) to +0.0, so a -0.0 multiplier reads +0.0 as it always has.
    ``mu`` holds the base rows' multipliers."""
    keys = [(K_MAXLOSS, None)]
    if not isinstance(model.loss_rule, FixedProfile):
        keys = [(K_MAXLOSS, rep) for rep in dict.fromkeys(model.classes[u.id][0] for u in model.scenario.all_units)]
    omega = np.zeros(model.scenario.horizon)
    for key in keys:
        if key in model.rows:
            omega += mu[model.rows[key]]
    return omega


def _duals_from(pool: _CutPool, out: lp.LpOutcome, dual_objective: float) -> DualSolution:
    model = pool.model
    sc = model.scenario
    rows, b = model.rows, model.b
    n_base = len(b)
    T = sc.horizon
    # equality rows report their marginal m (the aggregation rows -m);
    # inequality rows hold their <= form, so their multiplier is mu = -m >= 0
    m = out.row_marginals[:n_base]
    mu = -m
    gens, res, stos = (_Classes.of(model, units) for units in (sc.generators, sc.res_units, sc.storage_units))

    as_payment_rhs = 0.0
    if isinstance(model.loss_rule, FixedProfile):
        for p, mu_t in zip(model.loss_rule.p_mw, mu[rows[(K_MAXLOSS, None)]]):
            as_payment_rhs += float(p) * mu_t
    # the hour-0 commitment and min-up rows carry the initial state
    initial_rhs_term = 0.0
    first = np.concatenate([gens.gather(rows, K_COMMIT)[:, 0], gens.gather(rows, K_MUT)[:, 0]])
    for i in first[b[first] != 0.0]:
        initial_rhs_term -= b[i] * m[i]
    # cut multipliers through the cut gradients, added in cut order
    mu1, mu2, mu3 = np.zeros(T), np.zeros(T), np.zeros(T)
    nu = -out.row_marginals[n_base:]
    np.add.at(mu1, pool.t, nu * pool.a1)
    np.add.at(mu2, pool.t, nu * pool.a2)
    np.add.at(mu3, pool.t, nu)

    # bound multipliers, zero on the infinite bounds
    psi_ub = np.where(np.isfinite(model.ub), -out.upper_marginals, 0.0)
    psi_lb = np.where(np.isfinite(model.lb), out.lower_marginals, 0.0)

    def lifted(group, at_reps):
        # row k of at_reps holds class k's per-unit duals, taken at its first
        # member; every member takes them divided by the class size
        sizes = group.sizes if at_reps.ndim == 1 else group.sizes[:, None]
        return group.spread(_shared_rows(at_reps / sizes))

    def bound_series(kind, group, psi=psi_ub):
        return lifted(group, psi[group.gather(model.cols, kind)])

    return DualSolution(
        lambda_e=m[rows[(K_BALANCE, None)]],
        lambda_h=mu[rows[(K_HDEF, None)]],
        lambda_pfr=mu[rows[(K_PFRDEF, None)]],
        lambda_efr=mu[rows[(K_EFRDEF, None)]],
        mu_rocof=mu[rows[(K_ROCOF, None)]],
        mu_nadir_1=mu1,
        mu_nadir_2=mu2,
        mu_nadir_3=mu3,
        mu_qss=mu[rows[(K_QSS, None)]],
        omega_loss=_omega(model, mu),
        psi_max_y=bound_series(V_Y, gens),
        psi_max_yst=bound_series(V_YST, gens),
        psi_max_ysg=bound_series(V_YSG, gens),
        psi_max_ysd=bound_series(V_YSD, gens),
        psi_mdt=lifted(gens, mu[gens.gather(rows, K_MDT)]),
        psi_cf=bound_series(V_PRES, res),
        psi_e_min=bound_series(V_E, stos, psi_lb),
        psi_e_max=bound_series(V_E, stos),
        psi_max_ycha=bound_series(V_YCHA, stos),
        psi_max_ydis=bound_series(V_YDIS, stos),
        psi_mutex=lifted(stos, mu[stos.gather(rows, K_MUTEX)]),
        psi_ini=lifted(stos, mu[stos.gather(rows, K_E0CAP)][:, 0]),
        psi_end=lifted(stos, mu[stos.gather(rows, K_EEND)][:, 0]),
        initial_rhs_term=initial_rhs_term,
        as_payment_rhs=as_payment_rhs,
        dual_objective=dual_objective,
    )


def _dual_objective(model: UCModel, out: lp.LpOutcome) -> float:
    # cut rows are homogeneous; bounds contribute their finite terms
    total = float(model.b @ out.row_marginals[: len(model.b)])
    lb, ub = model.lb, model.ub
    fin = np.isfinite(lb)
    total += float(lb[fin] @ out.lower_marginals[fin])
    fin = np.isfinite(ub)
    total += float(ub[fin] @ out.upper_marginals[fin])
    return total


def _max_cs_residual(pool: _CutPool, out: lp.LpOutcome) -> float:
    model = pool.model
    x = out.x
    n_base = len(model.b)
    worst = float(np.max(np.abs((model.a @ x - model.b) * out.row_marginals[:n_base]), initial=0.0))
    slack = -(pool.rows @ x)
    worst = max(worst, float(np.max(np.abs(slack * out.row_marginals[n_base:]), initial=0.0)))
    fin = np.isfinite(model.lb)
    worst = max(worst, float(np.max(np.abs((x - model.lb)[fin] * out.lower_marginals[fin]), initial=0.0)))
    fin = np.isfinite(model.ub)
    worst = max(worst, float(np.max(np.abs((model.ub - x)[fin] * out.upper_marginals[fin]), initial=0.0)))
    return worst


def _verify_feasibility(model: UCModel, x: np.ndarray, tol: float) -> None:
    ax = model.a @ x
    viol = np.maximum(model.row_lower - ax, ax - model.b) / np.maximum(1.0, np.abs(model.b))
    if viol.max() > tol:
        i = int(np.argmax(viol))
        # named kind[t], kind[unit,t] or, for a unit's one row of a kind,
        # kind[unit]; a class's own key comes before its members'
        (kind, unit), idx = next((key, idx) for key, idx in model.rows.items() if i in idx)
        where = [] if unit is None else [unit]
        if kind not in (K_E0CAP, K_EEND):
            where.append(str(int(np.flatnonzero(idx == i)[0])))
        raise SolverError(f"row {kind}[{','.join(where)}] violated by {viol[i]:.3e} (scaled), above tolerance")


# ---------------------------------------------------------------------------
# Public solves


def _solve_checked(model: UCModel) -> tuple[_CutPool, lp.LpOutcome, SolveStats, float]:
    """The OA solve of a relaxed model on a fresh session, with every check
    of a relaxed solve in order: scaled row feasibility within ``FEAS_TOL``,
    then the complementary-slackness residual and the relative duality gap
    within ``DUALITY_TOL``. Returns the cut pool, the LP outcome, the stats
    (cuts, final cone residual and ``stop_reason`` set) and the dual
    objective."""
    if not model.relaxed:
        raise ValueError("a relaxed solve requires a model built with relaxed=True")
    stats = SolveStats(lp_columns=model.n_vars)
    pool = _CutPool(model)
    out = _solve_root(pool, stats)
    _verify_feasibility(model, out.x, FEAS_TOL)
    stats.max_cs_residual = _max_cs_residual(pool, out)
    if stats.max_cs_residual > DUALITY_TOL * max(1.0, abs(out.objective)):
        raise DualRecoveryError(
            f"complementary-slackness residual {stats.max_cs_residual:.3e} exceeds tolerance"
        )
    dual_objective = _dual_objective(model, out)
    gap = abs(out.objective - dual_objective) / max(1.0, abs(out.objective))
    stats.rel_duality_gap = gap
    stats.cuts = len(pool.t)
    stats.final_cone_residual = _final_cone_residual(model, out.x)
    if gap > DUALITY_TOL:
        raise DualRecoveryError(f"relative duality gap {gap:.3e} exceeds tolerance")
    return pool, out, stats, dual_objective


def solve_relaxed(model: UCModel) -> tuple[DispatchSolution, DualSolution, SolveStats]:
    """Solve the convex relaxation and recover the full dual vector.

    The model holds one column block per class of identical units. The
    returned solutions are lifted to every unit: each member reads its
    class's values, and takes its class's per-unit row and bound duals
    divided by the class size, which is an optimal dual of the per-unit
    LP. The system duals, omega and the rhs terms need no lift. Each
    class's values and dual shares are computed once; its members share
    those arrays, which are read-only, so copy one before editing it.

    Guarantees on success: relative duality gap and per-row complementary
    slackness residual within ``DUALITY_TOL``, both checked on the class
    model. The gap equals that of the lifted solution, and a per-unit
    row's residual is n times its lifted residual, so the check is never
    looser than on the per-unit LP.
    """
    pool, out, stats, dual_objective = _solve_checked(model)
    return _dispatch_from_x(model, out.x, out.objective), _duals_from(pool, out, dual_objective), stats


def solve_omega(model: UCModel) -> tuple[np.ndarray, SolveStats]:
    """``omega_loss`` and the stats of ``solve_relaxed(model)``, bit for bit,
    without the per-unit dispatch and duals.

    The same solve runs the same checks in the same order and raises the
    same errors; only the lift to every unit is left out, which is what a
    caller that reads nothing but omega pays for in ``solve_relaxed``.
    """
    _, out, stats, _ = _solve_checked(model)
    return _omega(model, -out.row_marginals[: len(model.b)]), stats


def _dangling_yst(model: UCModel) -> np.ndarray:
    # start-up indicators whose start-generating hour lies past the horizon;
    # they are unconstrained upward only and carry no cost, so they are
    # zeroed during extraction. None without a lead time.
    gens, yst = _binaries(model)[V_YST]
    T = yst.shape[1]
    return yst[np.arange(T) >= T - gens.column("start_up_h", int)]


def _fractional(model: UCModel, x: np.ndarray, skip: np.ndarray) -> list[int]:
    bad = model.binary & (np.minimum(x, 1.0 - x) > INTEGRALITY_TOL)
    bad[skip] = False
    return np.flatnonzero(bad).tolist()


def _branching(model: UCModel) -> tuple[np.ndarray, np.ndarray]:
    """The branching policy: the mask of the y, y_cha and y_dis columns,
    which are branched on first, and every binary column's tie-break weight,
    its unit's p_max (zero on the other columns)."""
    mask, weight = np.zeros(model.n_vars, dtype=bool), np.zeros(model.n_vars)
    for kind, (group, cols) in _binaries(model).items():
        mask[cols] = kind in (V_Y, V_YCHA, V_YDIS)
        weight[cols] = group.column("p_max_mw")
    return mask, weight


def _pick_branch_var(x: np.ndarray, fractional: list[int], mask: np.ndarray, weight: np.ndarray) -> int:
    pool = [i for i in fractional if mask[i]] or fractional
    # most fractional; ties by unit size descending, then index
    return min(pool, key=lambda i: (abs(x[i] - 0.5), -weight[i], i))


def _heuristic_fix(model: UCModel, x: np.ndarray) -> dict[int, tuple[float, float]] | None:
    """Round the relaxation up to a commitment pattern and fix all binaries."""
    binaries = _binaries(model)
    gens, y_cols = binaries[V_Y]
    y = (x[y_cols] > INTEGRALITY_TOL).astype(int)
    prev = np.hstack([gens.column("initially_on", int), y[:, :-1]])
    ysg = np.maximum(0, y - prev)
    # start-up indicators consistent with the lead time
    units, hours = np.nonzero(ysg)
    starts = hours - gens.column("start_up_h", int)[units, 0]
    if np.any(starts < 0):
        return None  # cannot start that early from a cold start
    yst = np.zeros_like(y)
    yst[units, starts] = 1
    cha, dis = x[binaries[V_YCHA][1]], x[binaries[V_YDIS][1]]
    cha_on, dis_on = (cha > INTEGRALITY_TOL) & (cha >= dis), (dis > INTEGRALITY_TOL) & (dis > cha)
    patch: dict[int, tuple[float, float]] = {}
    for (_, cols), block in zip(binaries.values(), (y, yst, ysg, np.maximum(0, prev - y), cha_on, dis_on)):
        fixed = block.astype(float).ravel().tolist()
        patch.update(zip(cols.ravel().tolist(), zip(fixed, fixed)))
    return patch


def solve_mip(model: UCModel, rel_gap: float = 1e-6) -> tuple[CommitmentSchedule, DispatchSolution, SolveStats]:
    """Best-first branch-and-bound on the commitment binaries.

    Branches on the most fractional binary, a y, y_cha or y_dis column if
    one is fractional (ties: the unit's p_max descending); ``_branching``
    derives this policy from the model's columns. The root, the rounding
    heuristic, every node and the fixed-binary polish share one LP session
    and one cut pool (the cuts are globally valid). A node sets its bound
    patch in place and restarts dual simplex from its parent's optimal
    basis, which bound changes leave dual feasible. Returns the incumbent
    with stats flagged when the budget of ``MAX_NODES`` nodes runs out before
    the gap is proven.
    """
    if model.relaxed:
        raise ValueError("solve_mip requires a model built with relaxed=False")
    stats = SolveStats(lp_columns=model.n_vars)
    dangling = _dangling_yst(model)
    branch_mask, branch_weight = _branching(model)
    pool = _CutPool(model)
    root = _solve_root(pool, stats)

    incumbent: np.ndarray | None = None
    inc_obj = math.inf
    patch0 = _heuristic_fix(model, root.x)
    if patch0 is not None:
        try:
            h_out = _oa_solve(pool, patch0, stats)
        except SolverError:
            h_out = None
        if h_out is not None and h_out.status == lp.OPTIMAL:
            incumbent, inc_obj = h_out.x.copy(), h_out.objective

    seq = 0
    # (bound, tie-break, bound patch, parent's optimal basis)
    heap: list[tuple[float, int, dict, object]] = [(root.objective, seq, {}, root.basis)]
    best_bound = root.objective

    def threshold() -> float:
        return inc_obj - rel_gap * max(1.0, abs(inc_obj))

    while heap:
        bound, _, patch, basis = heapq.heappop(heap)
        best_bound = bound
        if incumbent is not None and bound >= threshold():
            break
        if stats.nodes >= MAX_NODES:
            stats.budget_exhausted = True
            break
        stats.nodes += 1
        pool.session.restore(basis)
        out = _oa_solve(pool, patch, stats)
        if out.status != lp.OPTIMAL:
            continue
        if incumbent is not None and out.objective >= threshold():
            continue
        frac = _fractional(model, out.x, dangling)
        if not frac:
            if out.objective < inc_obj:
                incumbent, inc_obj = out.x.copy(), out.objective
            continue
        var = _pick_branch_var(out.x, frac, branch_mask, branch_weight)
        for val in (0.0, 1.0):
            seq += 1
            child = dict(patch)
            child[var] = (val, val)
            heapq.heappush(heap, (out.objective, seq, child, out.basis))
    else:
        best_bound = inc_obj  # search space exhausted: proven optimal

    if heap and not stats.budget_exhausted:
        best_bound = min(best_bound, heap[0][0])
    if incumbent is None:
        if stats.budget_exhausted:
            raise SolverError("no integral solution found within the node budget")
        raise InfeasibleError("commitment logic (no integral commitment exists)")

    # polish: re-optimise the continuous dispatch with the binaries pinned to
    # their rounded values, so the returned point is cleanly feasible
    x = incumbent.copy()
    x[dangling] = 0.0
    fixed = {idx: (round(x[idx]), round(x[idx])) for idx in model.binary_indices}
    polished = _oa_solve(pool, fixed, stats)
    if polished.status != lp.OPTIMAL:
        raise SolverError(
            f"fixed-binary polish of the incumbent failed (LP status {polished.status}: "
            f"{polished.message})"
        )
    x = polished.x
    _verify_feasibility(model, x, FEAS_TOL)
    inc_obj = polished.objective
    stats.rel_mip_gap = max(0.0, (inc_obj - best_bound) / max(1.0, abs(inc_obj)))
    if stats.budget_exhausted and stats.stop_reason == "converged":
        stats.stop_reason = "budget"
    stats.cuts = len(pool.t)
    stats.final_cone_residual = _final_cone_residual(model, x)
    return _commitment_from_x(model, x), _dispatch_from_x(model, x, inc_obj), stats


def solve_fixed_binaries(
    model: UCModel, values: dict[int, int]
) -> tuple[float, DispatchSolution] | None:
    """Optimise the continuous dispatch for a fully fixed binary pattern.

    Returns None when the pattern is infeasible. Solves on a fresh session,
    cold, independent of the branch and bound's warm one; the tests' exhaustive
    enumeration oracle uses it. The nadir cone is enforced.
    """
    patch = {idx: (float(v), float(v)) for idx, v in values.items()}
    out = _oa_solve(_CutPool(model), patch, SolveStats())
    if out.status == lp.INFEASIBLE:
        return None
    if out.status != lp.OPTIMAL:
        raise SolverError(f"LP backend failure: {out.message}")
    return out.objective, _dispatch_from_x(model, out.x, out.objective)
