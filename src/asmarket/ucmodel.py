"""Frequency-secured unit-commitment model builder.

``build_uc`` returns the LP in the form HiGHS receives: column arrays, one
CSR matrix whose rows hold ``row_lower <= a @ x <= b`` (equality rows first,
then every inequality as ``<=`` with ``>=`` rows negated, each block in build
order). The nadir cone of hour t is not a row: it constrains the aggregate
columns ``h_sys``, ``efr_sys``, ``pfr_sys`` and ``p_loss`` at index t of
``cols``, and the solvers approximate it by cuts. Columns and rows carry named
kinds, so the solvers can read per-unit series, recover duals under the
conventions the pricing layer expects and tag infeasibility certificates by
constraint class.
Each ``RowDef`` keeps its natural sense and right-hand side as written.

The relaxation is built on classes of identical units: units equal in every
field but ``id``, with equal ``InitialState`` entries, share one column block
and one set of per-unit rows holding one member's values, and the class's
costs and its coefficients in the balance and aggregation rows are scaled by
its size. ``cols`` maps every member to its class's columns. The relaxation
is convex and invariant under permuting a class, so a symmetric optimum
exists and this is its exact restriction; the mixed-integer build keeps one
block per unit.
Under a fixed loss profile the model differs from profile to profile only in
the T max-loss right-hand sides, so ``UCModel.with_loss_profile`` re-targets
a built model instead of building another.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy import sparse

from .scenario import Scenario

# Variable kinds
V_P = "p"                 # thermal output (MW)
V_Y = "y"                 # commitment state
V_YST = "y_st"            # start-up
V_YSG = "y_sg"            # start generating
V_YSD = "y_sd"            # shut down
V_PFRG = "pfr_gen"        # thermal PFR headroom (MW)
V_PRES = "p_res"          # RES output (MW)
V_PCHA = "p_cha"          # storage charge (MW)
V_PDIS = "p_dis"          # storage discharge (MW)
V_YCHA = "y_cha"          # charging state
V_YDIS = "y_dis"          # discharging state
V_E = "e"                 # state of charge (MWh)
V_E0 = "e0"               # pre-horizon state of charge (MWh)
V_PFRS = "pfr_sto"        # storage PFR headroom (MW)
V_EFRS = "efr_sto"        # storage EFR headroom (MW)
V_H = "h_sys"             # aggregate inertia (MWs)
V_PFRT = "pfr_sys"        # aggregate PFR (MW)
V_EFRT = "efr_sys"        # aggregate EFR (MW)
V_PLOSS = "p_loss"        # secured loss size (MW)

# Row kinds
K_BALANCE = "balance"
K_HDEF = "inertia_aggregation"
K_PFRDEF = "pfr_aggregation"
K_EFRDEF = "efr_aggregation"
K_ROCOF = "rocof"
K_QSS = "qss"
K_MAXLOSS = "max_loss"
K_NADIR_CUT = "nadir_cut"
K_COMMIT = "commitment_transition"
K_SGLINK = "startup_lead"
K_MDT = "min_down_time"
K_MUT = "min_up_time"
K_PMIN = "gen_min"
K_PMAX = "gen_max"
K_PFRCAP = "gen_pfr_cap"
K_PFRMARGIN = "gen_pfr_margin"
K_CHALO = "storage_charge_min"
K_CHAHI = "storage_charge_max"
K_DISLO = "storage_discharge_min"
K_DISHI = "storage_discharge_max"
K_SPFRCAP = "storage_pfr_cap"
K_SPFRMARGIN = "storage_pfr_margin"
K_EFRCAP = "storage_efr_cap"
K_EFRMARGIN = "storage_efr_margin"
K_MUTEX = "storage_mode_exclusion"
K_EDYN = "storage_energy_dynamics"
K_E0CAP = "storage_initial_energy"
K_EEND = "storage_final_energy"

# in precedence order: an infeasibility certificate names the first of these
# classes found among the IIS rows
INFEASIBILITY_LABELS = {
    K_BALANCE: "energy balance",
    K_MAXLOSS: "max loss",
    K_ROCOF: "RoCoF",
    K_QSS: "quasi-steady-state",
    K_NADIR_CUT: "nadir",
}


@dataclass(frozen=True)
class FixedProfile:
    """Loss rule with the secured loss fixed by parameter, one value per hour."""

    p_mw: tuple[float, ...]

    @classmethod
    def constant(cls, value: float, horizon: int) -> "FixedProfile":
        return cls(p_mw=(float(value),) * horizon)


@dataclass(frozen=True)
class EndogenousMax:
    """Loss rule tracking the largest dispatched loss-eligible unit."""


LossRule = FixedProfile | EndogenousMax


@dataclass(frozen=True)
class InitialState:
    """Pre-horizon block for hour-1 transition and storage rows.

    Defaults: every generator off, storage at its e_ini. History sums before
    the horizon start are treated as zero.
    """

    gen_on: dict[str, int] = field(default_factory=dict)
    storage_e0_mwh: dict[str, float] = field(default_factory=dict)

    def y0(self, gen_id: str) -> int:
        return int(self.gen_on.get(gen_id, 0))

    def e0(self, storage) -> float:
        return float(self.storage_e0_mwh.get(storage.id, storage.e_ini_mwh))


@dataclass
class RowDef:
    name: str
    kind: str
    sense: str  # '=', '<=', '>='
    rhs: float
    unit: str | None = None
    t: int = -1
    price_sign: int = 1  # equality rows: reported dual = price_sign * (d obj / d rhs)


class ModelError(Exception):
    pass


@dataclass
class UCModel:
    """min c@x s.t. row_lower <= a@x <= b, lb <= x <= ub, x[binary] integral."""

    scenario: Scenario
    loss_rule: LossRule
    relaxed: bool
    initial_state: InitialState
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    binary: np.ndarray            # mask; all False in the relaxed build
    branch: np.ndarray            # mask of the binary y, y_cha and y_dis columns
    branch_weight: np.ndarray     # unit p_max; tie-break for branching
    cols: dict[tuple[str, str | None], np.ndarray]  # (kind, unit) -> columns in hour order
    classes: dict[str, tuple[str, ...]]  # unit -> its class's members, the first holding the columns
    a: sparse.csr_matrix
    b: np.ndarray
    row_lower: np.ndarray         # b on the leading equality rows, -inf after
    rows: list[RowDef]            # rows[i] is the model row behind row i of a

    @property
    def n_vars(self) -> int:
        return len(self.c)

    def vid(self, kind: str, unit: str | None, t: int) -> int:
        """Column of ``kind`` for ``unit`` at hour ``t`` (``e0`` has only t = 0)."""
        return int(self.cols[(kind, unit)][t])

    def rows_of_kind(self, kind: str) -> list[RowDef]:
        return [r for r in self.rows if r.kind == kind]

    @property
    def branch_indices(self) -> list[int]:
        return np.flatnonzero(self.branch).tolist()

    @property
    def binary_indices(self) -> list[int]:
        return np.flatnonzero(self.binary).tolist()

    def with_loss_profile(self, rule: FixedProfile) -> "UCModel":
        """This model with its T max-loss rows re-targeted to ``rule``: equal,
        array for array, to ``build_uc`` under ``rule``. Only ``b`` and
        ``rows`` are new; every other array is shared with this model."""
        T = self.scenario.horizon
        if not isinstance(self.loss_rule, FixedProfile):
            raise ModelError("only a model built with a FixedProfile can be re-targeted")
        if not isinstance(rule, FixedProfile) or len(rule.p_mw) != T:
            raise ModelError(f"re-targeting needs a FixedProfile of horizon {T}")
        b = self.b.copy()
        rows = list(self.rows)
        for i, row in enumerate(rows):
            if row.kind == K_MAXLOSS:
                rows[i] = replace(row, rhs=float(rule.p_mw[row.t]))
                b[i] = -1.0 * rows[i].rhs  # a >= row, negated as in build_uc
        return replace(self, loss_rule=rule, b=b, rows=rows)


@functools.cache
def _class_fields(unit_type) -> operator.attrgetter:
    """Getter of the compared fields of ``unit_type`` but ``id``: units of one
    type are identical exactly when it returns equal tuples."""
    return operator.attrgetter(*(f.name for f in fields(unit_type) if f.compare and f.name != "id"))


def build_uc(
    scenario: Scenario,
    loss_rule: LossRule,
    relaxed: bool,
    initial_state: InitialState | None = None,
) -> UCModel:
    """Assemble the frequency-secured UC (mixed-integer form or its relaxation).

    The relaxed build replaces every binary with a [0, 1] box whose bound
    multipliers are the psi duals used by the pricing layer, and holds one
    column block per class of identical units (every field but ``id`` equal,
    and equal ``InitialState`` entries): the block and its per-unit rows hold
    one member's values, its costs and its coefficients in the balance and
    aggregation rows are multiplied by the class size n, and under
    ``EndogenousMax`` its max-loss row stays ``p <= p_loss``. Every member's
    ``cols`` entry is its class's columns, and every member's ``classes``
    entry is one tuple shared by the class. The class key is computed without
    building a copy of the unit: the unit's type, its compared fields other
    than ``id``, and its ``InitialState`` entries. Units of classes of one are
    built exactly as in the mixed-integer form, which keeps one class per unit.
    """
    scenario.check()
    T = scenario.horizon
    if not scenario.all_units:
        raise ModelError("empty fleet: scenario has no units")
    if isinstance(loss_rule, FixedProfile) and len(loss_rule.p_mw) != T:
        raise ModelError(
            f"loss profile length {len(loss_rule.p_mw)} does not match horizon {T}"
        )
    if isinstance(loss_rule, EndogenousMax) and not any(
        u.loss_eligible for u in scenario.all_units
    ):
        raise ModelError("EndogenousMax requires at least one loss-eligible unit")
    init = initial_state or InitialState()

    def grouped(units) -> list[tuple]:
        if not relaxed:
            return [(u,) for u in units]
        by_key: dict = {}
        for u in units:
            key = (type(u), _class_fields(type(u))(u), init.gen_on.get(u.id), init.storage_e0_mwh.get(u.id))
            by_key.setdefault(key, []).append(u)
        return [tuple(members) for members in by_key.values()]

    gen_classes = grouped(scenario.generators)
    res_classes = grouped(scenario.res_units)
    sto_classes = grouped(scenario.storage_units)
    gens = [(members[0], len(members)) for members in gen_classes]
    res_units = [(members[0], len(members)) for members in res_classes]
    stos = [(members[0], len(members)) for members in sto_classes]

    c, lb, ub, binary, branch, weight = [], [], [], [], [], []
    cols: dict[tuple[str, str | None], list[int]] = {}

    def add_var(kind, unit, lo, hi, cost=0.0, is_binary=False, branch_weight=0.0) -> None:
        cols.setdefault((kind, unit), []).append(len(c))
        c.append(cost)
        lb.append(lo)
        ub.append(hi)
        binary.append(is_binary and not relaxed)
        branch.append(binary[-1] and kind in (V_Y, V_YCHA, V_YDIS))
        weight.append(branch_weight)

    inf = float("inf")
    for g, n in gens:
        lam_y = g.inertia_offer_gbp_per_mws * g.p_max_mw * g.inertia_s
        for t in range(T):
            add_var(V_P, g.id, 0.0, inf, n * g.energy_offer_gbp_per_mwh)
            add_var(V_Y, g.id, 0.0, 1.0, n * lam_y, True, g.p_max_mw)
            add_var(V_YST, g.id, 0.0, 1.0, 0.0, True, g.p_max_mw)
            add_var(V_YSG, g.id, 0.0, 1.0, 0.0, True, g.p_max_mw)
            add_var(V_YSD, g.id, 0.0, 1.0, 0.0, True, g.p_max_mw)
            add_var(V_PFRG, g.id, 0.0, inf if g.pfr_max_mw > 0 else 0.0, n * g.pfr_offer_gbp_per_mw)
    for r, n in res_units:
        for t in range(T):
            add_var(V_PRES, r.id, 0.0, r.cf[t] * r.p_max_mw, n * r.energy_offer_gbp_per_mwh)
    for s, n in stos:
        lam_ys = s.inertia_offer_gbp_per_mws * s.p_max_mw * s.inertia_s
        for t in range(T):
            add_var(V_PCHA, s.id, 0.0, inf)
            add_var(V_PDIS, s.id, 0.0, inf, n * s.energy_offer_gbp_per_mwh)
            add_var(V_YCHA, s.id, 0.0, 1.0, n * lam_ys, True, s.p_max_mw)
            add_var(V_YDIS, s.id, 0.0, 1.0, n * lam_ys, True, s.p_max_mw)
            add_var(V_E, s.id, s.e_min_mwh, s.e_max_mwh)
            add_var(V_PFRS, s.id, 0.0, inf if s.pfr_max_mw > 0 else 0.0, n * s.pfr_offer_gbp_per_mw)
            add_var(V_EFRS, s.id, 0.0, inf if s.efr_max_mw > 0 else 0.0, n * s.efr_offer_gbp_per_mw)
        add_var(V_E0, s.id, 0.0, inf)
    for t in range(T):
        for kind in (V_H, V_PFRT, V_EFRT, V_PLOSS):
            add_var(kind, None, -inf, inf)

    rows: list[RowDef] = []
    r_idx, c_idx, data = [], [], []

    def add_row(name, kind, sense, rhs, coeffs, unit=None, t=-1, price_sign=1):
        for idx, coef in coeffs:
            r_idx.append(len(rows))
            c_idx.append(idx)
            data.append(coef)
        rows.append(RowDef(name, kind, sense, float(rhs), unit, t, price_sign))

    vid = lambda k, u, t: cols[(k, u)][t]

    # --- thermal private constraints
    for g, _ in gens:
        y0 = init.y0(g.id)
        for t in range(T):
            y = vid(V_Y, g.id, t)
            yst = vid(V_YST, g.id, t)
            ysg = vid(V_YSG, g.id, t)
            ysd = vid(V_YSD, g.id, t)
            p = vid(V_P, g.id, t)

            # y_t = y_{t-1} + y_sg - y_sd
            coeffs = [(y, 1.0), (ysg, -1.0), (ysd, 1.0)]
            rhs = float(y0) if t == 0 else 0.0
            if t > 0:
                coeffs.append((vid(V_Y, g.id, t - 1), -1.0))
            add_row(f"commit[{g.id},{t}]", K_COMMIT, "=", rhs, coeffs, g.id, t)

            # start generating lags the start-up decision by start_up_h
            if t >= g.start_up_h:
                link = [(ysg, 1.0)]
                if g.start_up_h > 0:
                    link.append((vid(V_YST, g.id, t - g.start_up_h), -1.0))
                else:
                    link.append((yst, -1.0))
                add_row(f"sg_link[{g.id},{t}]", K_SGLINK, "=", 0.0, link, g.id, t)
            else:
                add_row(f"sg_link[{g.id},{t}]", K_SGLINK, "=", 0.0, [(ysg, 1.0)], g.id, t)

            # min down time: y_st + y_{t-1} + sum y_sd over the trailing
            # window <= 1 (window ends at t-1; including t would forbid
            # the shutdown transition itself)
            mdt = [(yst, 1.0)]
            rhs = 1.0
            if t > 0:
                mdt.append((vid(V_Y, g.id, t - 1), 1.0))
            else:
                rhs -= y0
            for j in range(max(0, t - g.min_down_h), t):
                mdt.append((vid(V_YSD, g.id, j), 1.0))
            add_row(f"mdt[{g.id},{t}]", K_MDT, "<=", rhs, mdt, g.id, t)

            # min up time: y_sd - y_{t-1} + sum y_sg over trailing window <= 0
            mut = [(ysd, 1.0)]
            rhs = 0.0
            if t > 0:
                mut.append((vid(V_Y, g.id, t - 1), -1.0))
            else:
                rhs += y0
            for j in range(max(0, t - g.min_up_h), t):
                mut.append((vid(V_YSG, g.id, j), 1.0))
            add_row(f"mut[{g.id},{t}]", K_MUT, "<=", rhs, mut, g.id, t)

            if g.p_msg_mw > 0:
                add_row(f"p_min[{g.id},{t}]", K_PMIN, "<=", 0.0, [(y, g.p_msg_mw), (p, -1.0)], g.id, t)
            add_row(f"p_max[{g.id},{t}]", K_PMAX, "<=", 0.0, [(p, 1.0), (y, -g.p_max_mw)], g.id, t)
            if g.pfr_max_mw > 0:
                pfr = vid(V_PFRG, g.id, t)
                add_row(f"pfr_cap[{g.id},{t}]", K_PFRCAP, "<=", 0.0, [(pfr, 1.0), (y, -g.pfr_max_mw)], g.id, t)
                add_row(
                    f"pfr_margin[{g.id},{t}]", K_PFRMARGIN, "<=", 0.0,
                    [(pfr, 1.0), (p, 1.0), (y, -g.p_max_mw)], g.id, t,
                )

    # --- storage private constraints
    for s, _ in stos:
        e0 = vid(V_E0, s.id, 0)
        for t in range(T):
            pcha = vid(V_PCHA, s.id, t)
            pdis = vid(V_PDIS, s.id, t)
            ycha = vid(V_YCHA, s.id, t)
            ydis = vid(V_YDIS, s.id, t)
            e = vid(V_E, s.id, t)

            prev = e0 if t == 0 else vid(V_E, s.id, t - 1)
            add_row(
                f"e_dyn[{s.id},{t}]", K_EDYN, "=", 0.0,
                [(e, 1.0), (prev, -1.0), (pcha, -s.eta_charge), (pdis, 1.0 / s.eta_discharge)],
                s.id, t,
            )
            if s.p_msg_mw > 0:
                add_row(f"cha_min[{s.id},{t}]", K_CHALO, "<=", 0.0, [(ycha, s.p_msg_mw), (pcha, -1.0)], s.id, t)
                add_row(f"dis_min[{s.id},{t}]", K_DISLO, "<=", 0.0, [(ydis, s.p_msg_mw), (pdis, -1.0)], s.id, t)
            add_row(f"cha_max[{s.id},{t}]", K_CHAHI, "<=", 0.0, [(pcha, 1.0), (ycha, -s.p_max_mw)], s.id, t)
            add_row(f"dis_max[{s.id},{t}]", K_DISHI, "<=", 0.0, [(pdis, 1.0), (ydis, -s.p_max_mw)], s.id, t)
            if s.pfr_max_mw > 0:
                pfr = vid(V_PFRS, s.id, t)
                add_row(
                    f"s_pfr_cap[{s.id},{t}]", K_SPFRCAP, "<=", 0.0,
                    [(pfr, 1.0), (ycha, -s.pfr_max_mw), (ydis, -s.pfr_max_mw)], s.id, t,
                )
                add_row(
                    f"s_pfr_margin[{s.id},{t}]", K_SPFRMARGIN, "<=", 0.0,
                    [(pfr, 1.0), (ydis, -s.p_max_mw), (pdis, 1.0), (pcha, -1.0)], s.id, t,
                )
            if s.efr_max_mw > 0:
                efr = vid(V_EFRS, s.id, t)
                add_row(
                    f"efr_cap[{s.id},{t}]", K_EFRCAP, "<=", 0.0,
                    [(efr, 1.0), (ycha, -s.efr_max_mw), (ydis, -s.efr_max_mw)], s.id, t,
                )
                add_row(
                    f"efr_margin[{s.id},{t}]", K_EFRMARGIN, "<=", 0.0,
                    [(efr, 1.0), (ycha, -s.p_max_mw), (ydis, -s.p_max_mw), (pdis, 1.0), (pcha, -1.0)],
                    s.id, t,
                )
            add_row(f"mode[{s.id},{t}]", K_MUTEX, "<=", 1.0, [(ycha, 1.0), (ydis, 1.0)], s.id, t)
        add_row(f"e_ini[{s.id}]", K_E0CAP, "<=", init.e0(s), [(e0, 1.0)], s.id, 0)
        add_row(
            f"e_end[{s.id}]", K_EEND, ">=", s.e_end_mwh, [(vid(V_E, s.id, T - 1), 1.0)], s.id, T - 1
        )

    # --- system-wide constraints
    params = scenario.params
    rocof_coef = params.f0_hz / (2.0 * params.rocof_max_hz_per_s)
    for t in range(T):
        h = vid(V_H, None, t)
        pfrt = vid(V_PFRT, None, t)
        efrt = vid(V_EFRT, None, t)
        ploss = vid(V_PLOSS, None, t)

        bal = [(vid(V_P, g.id, t), n) for g, n in gens]
        bal += [(vid(V_PRES, r.id, t), n) for r, n in res_units]
        for s, n in stos:
            bal += [(vid(V_PDIS, s.id, t), n), (vid(V_PCHA, s.id, t), -n)]
        add_row(f"balance[{t}]", K_BALANCE, "=", scenario.demand_mw[t], bal, None, t, price_sign=1)

        hdef = [(h, 1.0)]
        hdef += [
            (vid(V_Y, g.id, t), -g.inertia_s * g.p_max_mw * n)
            for g, n in gens
            if g.inertia_s > 0
        ]
        for s, n in stos:
            if s.inertia_s > 0:
                hdef += [
                    (vid(V_YCHA, s.id, t), -s.inertia_s * s.p_max_mw * n),
                    (vid(V_YDIS, s.id, t), -s.inertia_s * s.p_max_mw * n),
                ]
        add_row(f"h_def[{t}]", K_HDEF, "=", 0.0, hdef, None, t, price_sign=-1)

        pdef = [(pfrt, 1.0)]
        pdef += [(vid(V_PFRG, g.id, t), -n) for g, n in gens if g.pfr_max_mw > 0]
        pdef += [(vid(V_PFRS, s.id, t), -n) for s, n in stos if s.pfr_max_mw > 0]
        add_row(f"pfr_def[{t}]", K_PFRDEF, "=", 0.0, pdef, None, t, price_sign=-1)

        edef = [(efrt, 1.0)]
        edef += [(vid(V_EFRS, s.id, t), -n) for s, n in stos if s.efr_max_mw > 0]
        add_row(f"efr_def[{t}]", K_EFRDEF, "=", 0.0, edef, None, t, price_sign=-1)

        if isinstance(loss_rule, FixedProfile):
            add_row(
                f"max_loss[{t}]", K_MAXLOSS, ">=", loss_rule.p_mw[t], [(ploss, 1.0)], None, t
            )
        else:
            for u, _ in gens:
                if u.loss_eligible:
                    add_row(
                        f"max_loss[{u.id},{t}]", K_MAXLOSS, "<=", 0.0,
                        [(vid(V_P, u.id, t), 1.0), (ploss, -1.0)], u.id, t,
                    )
            for u, _ in res_units:
                if u.loss_eligible:
                    add_row(
                        f"max_loss[{u.id},{t}]", K_MAXLOSS, "<=", 0.0,
                        [(vid(V_PRES, u.id, t), 1.0), (ploss, -1.0)], u.id, t,
                    )
            for u, _ in stos:
                if u.loss_eligible:
                    add_row(
                        f"max_loss[{u.id},{t}]", K_MAXLOSS, "<=", 0.0,
                        [(vid(V_PDIS, u.id, t), 1.0), (ploss, -1.0)], u.id, t,
                    )

        add_row(
            f"rocof[{t}]", K_ROCOF, ">=", 0.0, [(h, 1.0), (ploss, -rocof_coef)], None, t
        )
        add_row(
            f"qss[{t}]", K_QSS, ">=", 0.0,
            [(efrt, 1.0), (pfrt, 1.0), (ploss, -1.0)], None, t,
        )

    # HiGHS' row-bound form: equality rows first, then every inequality as
    # <= with the >= rows negated, each block in build order
    eq = np.array([row.sense == "=" for row in rows])
    order = np.argsort(~eq, kind="stable")
    position = np.argsort(order)
    flip = np.where([row.sense == ">=" for row in rows], -1.0, 1.0)
    r_idx = np.array(r_idx, dtype=int)
    a = sparse.csr_matrix(
        (flip[r_idx] * np.array(data), (position[r_idx], c_idx)), shape=(len(rows), len(c))
    )
    b = (flip * [row.rhs for row in rows])[order]
    classes = {}
    for members in gen_classes + res_classes + sto_classes:
        ids = tuple(m.id for m in members)
        classes.update(dict.fromkeys(ids, ids))
    cols = {key: np.array(idx) for key, idx in cols.items()}
    # every member reads its class's columns
    for (kind, unit), idx in list(cols.items()):
        if unit is not None:
            for uid in classes[unit][1:]:
                cols[(kind, uid)] = idx
    return UCModel(
        scenario=scenario,
        loss_rule=loss_rule,
        relaxed=relaxed,
        initial_state=init,
        c=np.array(c),
        lb=np.array(lb),
        ub=np.array(ub),
        binary=np.array(binary, dtype=bool),
        branch=np.array(branch, dtype=bool),
        branch_weight=np.array(weight),
        cols=cols,
        classes=classes,
        a=a,
        b=b,
        row_lower=np.where(eq[order], b, -np.inf),
        rows=[rows[i] for i in order],
    )
