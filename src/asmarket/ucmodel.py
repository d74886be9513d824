"""Frequency-secured unit-commitment model builder.

``build_uc`` returns the LP in the form HiGHS receives: column arrays, one
:class:`lp.Csr` matrix whose rows hold ``row_lower <= a @ x <= b`` (equality
rows first, then every inequality as ``<=`` with ``>=`` rows negated, each
block in build order). The nadir cone of hour t is not a row: it constrains the aggregate
columns ``h_sys``, ``efr_sys``, ``pfr_sys`` and ``p_loss`` at index t of
``cols``, and the solvers approximate it by cuts. Columns and rows are
addressed alike, by named kind and unit: ``cols[(kind, unit)]`` holds a
unit's columns of one kind and ``rows[(kind, unit)]`` its rows of one kind,
both in hour order (``unit`` is None for the system's), so the solvers read
per-unit series and recover duals by gathers, under the conventions the
pricing layer expects, and tag infeasibility certificates by constraint class.

The relaxation is built on classes of identical units: units equal in every
field but ``id`` share one column block and one set of per-unit rows
holding one member's values, and the class's costs and its coefficients in
the balance and aggregation rows are scaled by its size. ``cols`` and
``rows`` key a class's columns and rows by its first member, and the
model's :class:`ClassTable` of each unit group (generators, RES, storage)
is its only record of which units form a class. The relaxation
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
from dataclasses import dataclass, fields, replace

import numpy as np

from .lp import Csr
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


class ModelError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class ClassTable:
    """The classes of one group of units (generators, RES or storage): the
    units' ``ids`` in scenario order, each class's ``members`` in the order
    met with ``specs`` its first member's spec, the class ``sizes``, and
    ``pos`` each unit's class position. A mixed-integer model has one class
    per unit."""

    ids: tuple[str, ...]
    members: tuple[tuple[str, ...], ...]
    specs: tuple
    sizes: np.ndarray
    pos: tuple[int, ...]

    def gather(self, index: dict, kind: str) -> np.ndarray:
        """The columns or rows of ``kind`` in ``index`` (``model.cols`` or
        ``model.rows``), one row per class."""
        if not self.members:
            return np.zeros((0, 1), dtype=int)
        return np.array([index[(kind, u.id)] for u in self.specs])

    def column(self, attr: str, dtype=float) -> np.ndarray:
        """Each class's ``attr`` as a column, to broadcast down a block."""
        return np.array([getattr(u, attr) for u in self.specs], dtype=dtype)[:, None]

    def spread(self, values) -> dict:
        """``{unit: values[its class position]}``, keyed in scenario order."""
        return dict(zip(self.ids, map(values.__getitem__, self.pos)))


@dataclass
class UCModel:
    """min c@x s.t. row_lower <= a@x <= b, lb <= x <= ub, x[binary] integral.

    ``cols`` and ``rows`` map (kind, unit) (unit None for the system, else a
    class's first member) to its columns and its rows of ``a`` in hour
    order, each index a partition; ``e0``, ``storage_initial_energy`` and
    ``storage_final_energy`` have one each. ``class_tables`` holds the
    generators', RES units' and storage units' classes, whose blocks these
    are."""

    scenario: Scenario
    loss_rule: LossRule
    relaxed: bool
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    binary: np.ndarray            # mask; all False in the relaxed build
    cols: dict[tuple[str, str | None], np.ndarray]  # (kind, unit) -> columns in hour order
    class_tables: tuple[ClassTable, ClassTable, ClassTable]  # generators, RES, storage
    a: Csr
    b: np.ndarray
    row_lower: np.ndarray         # b on the leading equality rows, -inf after
    rows: dict[tuple[str, str | None], np.ndarray]  # (kind, unit) -> rows of a in hour order

    @property
    def n_vars(self) -> int:
        return len(self.c)

    def vid(self, kind: str, unit: str | None, t: int) -> int:
        """Column of ``kind`` for ``unit`` at hour ``t`` (``e0`` has only t = 0)."""
        return int(self.cols[(kind, unit)][t])

    @property
    def binary_indices(self) -> list[int]:
        return np.flatnonzero(self.binary).tolist()

    def with_loss_profile(self, rule: FixedProfile) -> "UCModel":
        """This model with its T max-loss rows re-targeted to ``rule``: equal,
        array for array, to ``build_uc`` under ``rule``. Only ``b`` is new;
        every other array and the class tables are shared with this model."""
        T = self.scenario.horizon
        if not isinstance(self.loss_rule, FixedProfile):
            raise ModelError("only a model built with a FixedProfile can be re-targeted")
        if not isinstance(rule, FixedProfile) or len(rule.p_mw) != T:
            raise ModelError(f"re-targeting needs a FixedProfile of horizon {T}")
        b = self.b.copy()
        b[self.rows[(K_MAXLOSS, None)]] = -np.array(rule.p_mw, dtype=float)  # p_loss >= p, negated
        return replace(self, loss_rule=rule, b=b)


@functools.cache
def _class_fields(unit_type) -> operator.attrgetter:
    """Getter of the compared fields of ``unit_type`` but ``id``: units of one
    type are identical exactly when it returns equal tuples."""
    return operator.attrgetter(*(f.name for f in fields(unit_type) if f.compare and f.name != "id"))


def build_uc(
    scenario: Scenario,
    loss_rule: LossRule,
    relaxed: bool,
) -> UCModel:
    """Assemble the frequency-secured UC (mixed-integer form or its relaxation).

    Rows are written with their natural sense and right-hand side, then put
    in row-bound form; ``rows`` keeps each (kind, unit)'s positions in ``a``.

    The relaxed build replaces every binary with a [0, 1] box whose bound
    multipliers are the psi duals used by the pricing layer, and holds one
    column block per class of identical units (every field but ``id``
    equal): the block and its per-unit rows hold one member's values, its
    costs and its coefficients in the balance and aggregation rows are
    multiplied by the class size n, and under
    ``EndogenousMax`` its max-loss row stays ``p <= p_loss``. ``cols`` and
    ``rows`` key the class's arrays by its first member only, and the
    group's ``ClassTable`` records the class. The class key is
    computed without building a copy of the unit: the unit's type and its
    compared fields other than ``id``.
    Units of classes of one are built exactly as in the mixed-integer form,
    which keeps one class per unit.
    """
    T = scenario.horizon
    if isinstance(loss_rule, FixedProfile) and len(loss_rule.p_mw) != T:
        raise ModelError(
            f"loss profile length {len(loss_rule.p_mw)} does not match horizon {T}"
        )
    if isinstance(loss_rule, EndogenousMax) and not any(
        u.loss_eligible for u in scenario.all_units
    ):
        raise ModelError("EndogenousMax requires at least one loss-eligible unit")

    def grouped(units) -> ClassTable:
        by_key: dict = {}
        for u in units:
            key = (type(u), _class_fields(type(u))(u)) if relaxed else u.id
            by_key.setdefault(key, []).append(u)
        classes = list(by_key.values())
        pos = {u.id: k for k, members in enumerate(classes) for u in members}
        return ClassTable(
            ids=tuple(u.id for u in units),
            members=tuple(tuple(u.id for u in members) for members in classes),
            specs=tuple(members[0] for members in classes),
            sizes=np.array([len(members) for members in classes], dtype=float),
            pos=tuple(pos[u.id] for u in units),
        )

    sized = lambda table: zip(table.specs, table.sizes.tolist())  # each class's first member and size
    gens, res_units, stos = map(grouped, (scenario.generators, scenario.res_units, scenario.storage_units))

    c, lb, ub, binary = [], [], [], []
    cols: dict[tuple[str, str | None], list[int]] = {}

    def add_var(kind, unit, lo, hi, cost=0.0, is_binary=False) -> None:
        cols.setdefault((kind, unit), []).append(len(c))
        c.append(cost)
        lb.append(lo)
        ub.append(hi)
        binary.append(is_binary and not relaxed)

    inf = float("inf")
    for g, n in sized(gens):
        lam_y = g.inertia_offer_gbp_per_mws * g.p_max_mw * g.inertia_s
        for t in range(T):
            add_var(V_P, g.id, 0.0, inf, n * g.energy_offer_gbp_per_mwh)
            add_var(V_Y, g.id, 0.0, 1.0, n * lam_y, True)
            add_var(V_YST, g.id, 0.0, 1.0, 0.0, True)
            add_var(V_YSG, g.id, 0.0, 1.0, 0.0, True)
            add_var(V_YSD, g.id, 0.0, 1.0, 0.0, True)
            add_var(V_PFRG, g.id, 0.0, inf if g.pfr_max_mw > 0 else 0.0, n * g.pfr_offer_gbp_per_mw)
    for r, n in sized(res_units):
        for t in range(T):
            add_var(V_PRES, r.id, 0.0, r.cf[t] * r.p_max_mw, n * r.energy_offer_gbp_per_mwh)
    for s, n in sized(stos):
        lam_ys = s.inertia_offer_gbp_per_mws * s.p_max_mw * s.inertia_s
        for t in range(T):
            add_var(V_PCHA, s.id, 0.0, inf)
            add_var(V_PDIS, s.id, 0.0, inf, n * s.energy_offer_gbp_per_mwh)
            add_var(V_YCHA, s.id, 0.0, 1.0, n * lam_ys, True)
            add_var(V_YDIS, s.id, 0.0, 1.0, n * lam_ys, True)
            add_var(V_E, s.id, s.e_min_mwh, s.e_max_mwh)
            add_var(V_PFRS, s.id, 0.0, inf if s.pfr_max_mw > 0 else 0.0, n * s.pfr_offer_gbp_per_mw)
            add_var(V_EFRS, s.id, 0.0, inf if s.efr_max_mw > 0 else 0.0, n * s.efr_offer_gbp_per_mw)
        add_var(V_E0, s.id, 0.0, inf)
    for t in range(T):
        for kind in (V_H, V_PFRT, V_EFRT, V_PLOSS):
            add_var(kind, None, -inf, inf)

    # rows in build order, each with its natural sense and right-hand side
    rows: dict[tuple[str, str | None], list[int]] = {}
    sense, rhs_of, r_idx, c_idx, data = [], [], [], [], []

    def add_row(kind, unit, op, rhs, coeffs) -> None:
        for idx, coef in coeffs:
            r_idx.append(len(sense))
            c_idx.append(idx)
            data.append(coef)
        rows.setdefault((kind, unit), []).append(len(sense))
        sense.append(op)
        rhs_of.append(float(rhs))

    vid = lambda k, u, t: cols[(k, u)][t]

    # --- thermal private constraints
    for g in gens.specs:
        y0 = int(g.initially_on)
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
            add_row(K_COMMIT, g.id, "=", rhs, coeffs)

            # start generating lags the start-up decision by start_up_h
            if t >= g.start_up_h:
                link = [(ysg, 1.0)]
                if g.start_up_h > 0:
                    link.append((vid(V_YST, g.id, t - g.start_up_h), -1.0))
                else:
                    link.append((yst, -1.0))
                add_row(K_SGLINK, g.id, "=", 0.0, link)
            else:
                add_row(K_SGLINK, g.id, "=", 0.0, [(ysg, 1.0)])

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
            add_row(K_MDT, g.id, "<=", rhs, mdt)

            # min up time: y_sd - y_{t-1} + sum y_sg over trailing window <= 0
            mut = [(ysd, 1.0)]
            rhs = 0.0
            if t > 0:
                mut.append((vid(V_Y, g.id, t - 1), -1.0))
            else:
                rhs += y0
            for j in range(max(0, t - g.min_up_h), t):
                mut.append((vid(V_YSG, g.id, j), 1.0))
            add_row(K_MUT, g.id, "<=", rhs, mut)

            if g.p_msg_mw > 0:
                add_row(K_PMIN, g.id, "<=", 0.0, [(y, g.p_msg_mw), (p, -1.0)])
            add_row(K_PMAX, g.id, "<=", 0.0, [(p, 1.0), (y, -g.p_max_mw)])
            if g.pfr_max_mw > 0:
                pfr = vid(V_PFRG, g.id, t)
                add_row(K_PFRCAP, g.id, "<=", 0.0, [(pfr, 1.0), (y, -g.pfr_max_mw)])
                add_row(K_PFRMARGIN, g.id, "<=", 0.0, [(pfr, 1.0), (p, 1.0), (y, -g.p_max_mw)])

    # --- storage private constraints
    for s in stos.specs:
        e0 = vid(V_E0, s.id, 0)
        for t in range(T):
            pcha = vid(V_PCHA, s.id, t)
            pdis = vid(V_PDIS, s.id, t)
            ycha = vid(V_YCHA, s.id, t)
            ydis = vid(V_YDIS, s.id, t)
            e = vid(V_E, s.id, t)

            prev = e0 if t == 0 else vid(V_E, s.id, t - 1)
            add_row(
                K_EDYN, s.id, "=", 0.0,
                [(e, 1.0), (prev, -1.0), (pcha, -s.eta_charge), (pdis, 1.0 / s.eta_discharge)],
            )
            if s.p_msg_mw > 0:
                add_row(K_CHALO, s.id, "<=", 0.0, [(ycha, s.p_msg_mw), (pcha, -1.0)])
                add_row(K_DISLO, s.id, "<=", 0.0, [(ydis, s.p_msg_mw), (pdis, -1.0)])
            add_row(K_CHAHI, s.id, "<=", 0.0, [(pcha, 1.0), (ycha, -s.p_max_mw)])
            add_row(K_DISHI, s.id, "<=", 0.0, [(pdis, 1.0), (ydis, -s.p_max_mw)])
            if s.pfr_max_mw > 0:
                pfr = vid(V_PFRS, s.id, t)
                add_row(K_SPFRCAP, s.id, "<=", 0.0, [(pfr, 1.0), (ycha, -s.pfr_max_mw), (ydis, -s.pfr_max_mw)])
                add_row(
                    K_SPFRMARGIN, s.id, "<=", 0.0,
                    [(pfr, 1.0), (ydis, -s.p_max_mw), (pdis, 1.0), (pcha, -1.0)],
                )
            if s.efr_max_mw > 0:
                efr = vid(V_EFRS, s.id, t)
                add_row(K_EFRCAP, s.id, "<=", 0.0, [(efr, 1.0), (ycha, -s.efr_max_mw), (ydis, -s.efr_max_mw)])
                add_row(
                    K_EFRMARGIN, s.id, "<=", 0.0,
                    [(efr, 1.0), (ycha, -s.p_max_mw), (ydis, -s.p_max_mw), (pdis, 1.0), (pcha, -1.0)],
                )
            add_row(K_MUTEX, s.id, "<=", 1.0, [(ycha, 1.0), (ydis, 1.0)])
        add_row(K_E0CAP, s.id, "<=", s.e_ini_mwh, [(e0, 1.0)])
        add_row(K_EEND, s.id, ">=", s.e_end_mwh, [(vid(V_E, s.id, T - 1), 1.0)])

    # --- system-wide constraints
    params = scenario.params
    rocof_coef = params.f0_hz / (2.0 * params.rocof_max_hz_per_s)
    for t in range(T):
        h = vid(V_H, None, t)
        pfrt = vid(V_PFRT, None, t)
        efrt = vid(V_EFRT, None, t)
        ploss = vid(V_PLOSS, None, t)

        bal = [(vid(V_P, g.id, t), n) for g, n in sized(gens)]
        bal += [(vid(V_PRES, r.id, t), n) for r, n in sized(res_units)]
        for s, n in sized(stos):
            bal += [(vid(V_PDIS, s.id, t), n), (vid(V_PCHA, s.id, t), -n)]
        add_row(K_BALANCE, None, "=", scenario.demand_mw[t], bal)

        hdef = [(h, 1.0)]
        hdef += [
            (vid(V_Y, g.id, t), -g.inertia_s * g.p_max_mw * n)
            for g, n in sized(gens)
            if g.inertia_s > 0
        ]
        for s, n in sized(stos):
            if s.inertia_s > 0:
                hdef += [
                    (vid(V_YCHA, s.id, t), -s.inertia_s * s.p_max_mw * n),
                    (vid(V_YDIS, s.id, t), -s.inertia_s * s.p_max_mw * n),
                ]
        add_row(K_HDEF, None, "=", 0.0, hdef)

        pdef = [(pfrt, 1.0)]
        pdef += [(vid(V_PFRG, g.id, t), -n) for g, n in sized(gens) if g.pfr_max_mw > 0]
        pdef += [(vid(V_PFRS, s.id, t), -n) for s, n in sized(stos) if s.pfr_max_mw > 0]
        add_row(K_PFRDEF, None, "=", 0.0, pdef)

        edef = [(efrt, 1.0)]
        edef += [(vid(V_EFRS, s.id, t), -n) for s, n in sized(stos) if s.efr_max_mw > 0]
        add_row(K_EFRDEF, None, "=", 0.0, edef)

        if isinstance(loss_rule, FixedProfile):
            add_row(K_MAXLOSS, None, ">=", loss_rule.p_mw[t], [(ploss, 1.0)])
        else:
            for units, kind in ((gens, V_P), (res_units, V_PRES), (stos, V_PDIS)):
                for u in units.specs:
                    if u.loss_eligible:
                        add_row(K_MAXLOSS, u.id, "<=", 0.0, [(vid(kind, u.id, t), 1.0), (ploss, -1.0)])

        add_row(K_ROCOF, None, ">=", 0.0, [(h, 1.0), (ploss, -rocof_coef)])
        add_row(K_QSS, None, ">=", 0.0, [(efrt, 1.0), (pfrt, 1.0), (ploss, -1.0)])

    # HiGHS' row-bound form: equality rows first, then every inequality as
    # <= with the >= rows negated, each block in build order
    sense = np.array(sense)
    eq = sense == "="
    order = np.argsort(~eq, kind="stable")
    position = np.argsort(order)
    flip = np.where(sense == ">=", -1.0, 1.0)
    r_idx = np.array(r_idx, dtype=int)
    a = Csr.from_triplets(position[r_idx], c_idx, flip[r_idx] * np.array(data), (len(sense), len(c)))
    b = (flip * rhs_of)[order]
    cols = {key: np.array(idx) for key, idx in cols.items()}
    rows = {key: position[idx] for key, idx in rows.items()}
    return UCModel(
        scenario=scenario,
        loss_rule=loss_rule,
        relaxed=relaxed,
        c=np.array(c),
        lb=np.array(lb),
        ub=np.array(ub),
        binary=np.array(binary, dtype=bool),
        cols=cols,
        class_tables=(gens, res_units, stos),
        a=a,
        b=b,
        row_lower=np.where(eq[order], b, -np.inf),
        rows=rows,
    )
