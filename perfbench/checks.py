"""Output checks run after every timed pass, outside the timed region.

Each check recomputes a quantity from the scenario and the program's outputs,
or tests a property the method must have. None compares against stored
output. Every failed check raises :class:`CheckError`.
"""
from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from asmarket.solve import solve_relaxed
from asmarket.ucmodel import FixedProfile, build_uc

# The program guarantees its rows to 1e-6 on the scaled residual and its
# allocations to 1e-9 relative; the checks use the same tolerances.
ROW_TOL = 1e-6
ALLOC_TOL = 1e-9
DISPATCH_TOL = 1e-6      # injections at or below this are "not dispatched"
SHAPLEY_PERMUTATION_MAX = 8


class CheckError(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Reading ``asmarket run`` outputs


def read_table(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        _require(first.startswith("# run: "), f"{path.name}: missing run line")
        return list(csv.DictReader(fh))


@dataclass
class RunView:
    """The tables of one ``asmarket run``, as per-unit hourly arrays."""

    hours: int
    p: dict[str, np.ndarray]           # generator and RES output
    charge: dict[str, np.ndarray]
    discharge: dict[str, np.ndarray]
    pfr: dict[str, np.ndarray]
    efr: dict[str, np.ndarray]
    on: dict[str, np.ndarray]
    start_up: dict[str, np.ndarray]
    start_gen: dict[str, np.ndarray]
    shut_down: dict[str, np.ndarray]
    charging: dict[str, np.ndarray]
    discharging: dict[str, np.ndarray]
    prices: dict[str, np.ndarray]
    audit: dict[str, np.ndarray]
    relaxed_cost: float
    standalone: dict[str, np.ndarray]
    allocations: dict[str, list[dict[str, float]]]


def read_run(out: Path, scenario, rules=("proportional", "shapley", "nucleolus")) -> RunView:
    T = scenario.horizon

    def put(table, uid, t, value):
        table.setdefault(uid, np.zeros(T))[t] = value

    p, charge, discharge, pfr, efr = ({} for _ in range(5))
    for row in read_table(out / "dispatch.csv"):
        t, uid = int(row["hour"]) - 1, row["unit_id"]
        put(p, uid, t, float(row["p_mw"]))
        put(charge, uid, t, float(row["charge_mw"]))
        put(discharge, uid, t, float(row["discharge_mw"]))
        put(pfr, uid, t, float(row["pfr_mw"]))
        put(efr, uid, t, float(row["efr_mw"]))
    flags = {k: {} for k in ("on", "start_up", "start_gen", "shut_down", "charging", "discharging")}
    for row in read_table(out / "commitment.csv"):
        t, uid = int(row["hour"]) - 1, row["unit_id"]
        for k, table in flags.items():
            put(table, uid, t, int(row[k]))
    columns = {"lambda_e": "lambda_e_gbp_per_mwh", "lambda_h": "lambda_h_gbp_per_mws",
               "lambda_pfr": "lambda_pfr_gbp_per_mw", "lambda_efr": "lambda_efr_gbp_per_mw",
               "omega_loss": "omega_loss_gbp_per_mw"}
    price_rows = read_table(out / "prices.csv")
    prices = {k: np.array([float(r[col]) for r in price_rows]) for k, col in columns.items()}
    audit_rows = read_table(out / "audit_hourly.csv")
    audit = {k: np.array([float(r[k]) for r in audit_rows]) for k in audit_rows[0] if k != "hour"}
    summary = {r["quantity"]: float(r["value"]) for r in read_table(out / "audit_summary.csv")}
    standalone = {
        r["unit_id"]: np.array([float(r[f"omega_h{t + 1}_gbp"]) for t in range(T)])
        for r in read_table(out / "standalone_omega.csv")
    }
    allocations = {}
    for rule in rules:
        hours = [dict() for _ in range(T)]
        for r in read_table(out / f"allocation_{rule}.csv"):
            hours[int(r["hour"]) - 1][r["unit_id"]] = float(r["phi_gbp"])
        allocations[rule] = hours
    return RunView(
        hours=T, p=p, charge=charge, discharge=discharge, pfr=pfr, efr=efr,
        prices=prices, audit=audit, relaxed_cost=summary["system_costs_gbp"],
        standalone=standalone, allocations=allocations, **flags,
    )


# ---------------------------------------------------------------------------
# Checks


def check_balance(demand, injections: dict[str, np.ndarray]) -> None:
    """Hourly energy balance: generation + discharge - charge = demand."""
    total = sum(injections.values())
    for t, d in enumerate(demand):
        _require(_close(float(total[t]), d, ROW_TOL),
                 f"energy balance at hour {t + 1}: supply {total[t]!r} vs demand {d!r}")


def check_commitment(scenario, view: RunView) -> None:
    """Transitions, min-up/min-down windows and storage mode exclusivity,
    recomputed from the unit data (every generator starts off)."""
    T = scenario.horizon
    for g in scenario.generators:
        y, yst, ysg, ysd = (view.on[g.id], view.start_up[g.id], view.start_gen[g.id],
                            view.shut_down[g.id])
        prev = 0
        for t in range(T):
            _require(ysg[t] == max(0, y[t] - prev) and ysd[t] == max(0, prev - y[t]),
                     f"{g.id}: transition flags disagree with commitment at hour {t + 1}")
            led = yst[t - g.start_up_h] if t >= g.start_up_h else 0
            _require(ysg[t] == led, f"{g.id}: start-generating at hour {t + 1} does not follow its start-up")
            window_sg = ysg[max(0, t - g.min_up_h):t].sum()
            _require(ysd[t] - prev + window_sg <= 0,
                     f"{g.id}: shut down at hour {t + 1} inside its {g.min_up_h} h minimum up time")
            window_sd = ysd[max(0, t - g.min_down_h):t].sum()
            _require(yst[t] + prev + window_sd <= 1,
                     f"{g.id}: started at hour {t + 1} inside its {g.min_down_h} h minimum down time")
            _require(view.p[g.id][t] <= g.p_max_mw * y[t] * (1 + ROW_TOL) + ROW_TOL,
                     f"{g.id}: output at hour {t + 1} while off")
            prev = y[t]
    for s in scenario.storage_units:
        cha, dis = view.charging[s.id], view.discharging[s.id]
        for t in range(T):
            _require(cha[t] + dis[t] <= 1, f"{s.id}: charging and discharging at hour {t + 1}")
            cap = s.p_max_mw * (1 + ROW_TOL) + ROW_TOL
            _require(view.charge[s.id][t] <= cap * cha[t] + ROW_TOL
                     and view.discharge[s.id][t] <= cap * dis[t] + ROW_TOL,
                     f"{s.id}: power at hour {t + 1} without the matching mode")


def check_security(params, inertia, pfr, efr, loss) -> None:
    """RoCoF floor, quasi-steady-state and the algebraic nadir form per hour.

    The secured loss may exceed the realized largest injection ``loss``, so
    the hour passes when some secured loss >= ``loss`` meets all three: the
    realized loss itself, or that loss raised toward the EFR volume, where
    the nadir form is loosest.
    """
    df = params.delta_f_max_hz
    rocof_coef = params.f0_hz / (2.0 * params.rocof_max_hz_per_s)

    def secure(h, pf, ef, p) -> bool:
        if not h + ROW_TOL * max(1.0, h) >= rocof_coef * p:
            return False
        if not ef + pf + ROW_TOL * max(1.0, p) >= p:
            return False
        a = h / params.f0_hz - params.t_efr_s * ef / (4.0 * df)
        lhs = a * pf / params.t_pfr_s
        rhs = (p - ef) ** 2 / (4.0 * df)
        v = a + pf / params.t_pfr_s
        return lhs + ROW_TOL * max(1.0, abs(lhs), rhs) >= rhs and v >= -ROW_TOL * max(1.0, abs(a))

    for t in range(len(loss)):
        h, pf, ef, p = float(inertia[t]), float(pfr[t]), float(efr[t]), float(loss[t])
        raised = max(p, min(ef, h / rocof_coef))
        _require(secure(h, pf, ef, p) or secure(h, pf, ef, raised),
                 f"hour {t + 1}: RoCoF / q-s-s / nadir not met for a {p!r} MW loss "
                 f"(H {h!r}, PFR {pf!r}, EFR {ef!r})")


def run_aggregates(scenario, view: RunView):
    """System inertia, PFR, EFR and the largest loss-eligible injection."""
    T = scenario.horizon
    inertia, pfr, efr, loss = np.zeros(T), np.zeros(T), np.zeros(T), np.zeros(T)
    for g in scenario.generators:
        inertia += g.inertia_s * g.p_max_mw * view.on[g.id]
        pfr += view.pfr[g.id]
        if g.loss_eligible:
            loss = np.maximum(loss, view.p[g.id])
    for r in scenario.res_units:
        if r.loss_eligible:
            loss = np.maximum(loss, view.p[r.id])
    for s in scenario.storage_units:
        inertia += s.inertia_s * s.p_max_mw * (view.charging[s.id] + view.discharging[s.id])
        pfr += view.pfr[s.id]
        efr += view.efr[s.id]
        if s.loss_eligible:
            loss = np.maximum(loss, view.discharge[s.id])
    return inertia, pfr, efr, loss


def run_cost(scenario, view: RunView) -> float:
    """Objective of the cleared schedule, recomputed from the offers."""
    total = 0.0
    for g in scenario.generators:
        total += float(
            g.energy_offer_gbp_per_mwh * view.p[g.id].sum()
            + g.inertia_offer_gbp_per_mws * g.p_max_mw * g.inertia_s * view.on[g.id].sum()
            + g.pfr_offer_gbp_per_mw * view.pfr[g.id].sum()
        )
    for r in scenario.res_units:
        total += float(r.energy_offer_gbp_per_mwh * view.p[r.id].sum())
    for s in scenario.storage_units:
        modes = view.charging[s.id] + view.discharging[s.id]
        total += float(
            s.energy_offer_gbp_per_mwh * view.discharge[s.id].sum()
            + s.inertia_offer_gbp_per_mws * s.p_max_mw * s.inertia_s * modes.sum()
            + s.pfr_offer_gbp_per_mw * view.pfr[s.id].sum()
            + s.efr_offer_gbp_per_mw * view.efr[s.id].sum()
        )
    return total


def check_objective_bound(mip_cost: float, relaxed_cost: float) -> None:
    """The mixed-integer optimum cannot undercut its convex relaxation."""
    _require(mip_cost >= relaxed_cost - ROW_TOL * max(1.0, abs(relaxed_cost)),
             f"MIP objective {mip_cost!r} below the relaxed objective {relaxed_cost!r}")


def check_payment_identity(p_loss, omega, inertia_rev, pfr_rev, efr_rev) -> None:
    """p_loss * omega_loss = lambda_h*H + lambda_pfr*PFR + lambda_efr*EFR."""
    for t in range(len(p_loss)):
        market = float(p_loss[t] * omega[t])
        paid = float(inertia_rev[t] + pfr_rev[t] + efr_rev[t])
        _require(_close(market, paid, ROW_TOL),
                 f"hour {t + 1}: p_loss*omega {market!r} vs service revenues {paid!r}")


def loss_profiles(scenario, view: RunView) -> dict[str, np.ndarray]:
    """Loss-relevant injection of every loss-eligible unit, zeroed at or
    below the dispatch tolerance."""
    storage = {s.id for s in scenario.storage_units}
    out = {}
    for u in scenario.all_units:
        if not u.loss_eligible:
            continue
        prof = np.maximum(view.discharge[u.id] if u.id in storage else view.p[u.id], 0.0)
        prof[prof <= DISPATCH_TOL] = 0.0
        out[u.id] = prof
    return out


def check_standalone(profiles: dict[str, np.ndarray], standalone: dict[str, np.ndarray],
                     headline) -> int:
    """The unit that sets the loss in every hour has the headline market as
    its stand-alone market; units with equal profiles have equal rows.
    Returns how many units set the loss in every hour."""
    headline = np.asarray(headline)
    live = {u: prof for u, prof in profiles.items() if prof.any()}
    _require(set(live) == set(standalone),
             f"stand-alone rows {sorted(set(standalone) ^ set(live))} do not match the dispatched units")
    worst = np.max(np.array(list(live.values())), axis=0)
    scale = max(1.0, float(np.max(np.abs(headline))))
    setters = 0
    for uid, prof in live.items():
        if np.array_equal(prof, worst):
            setters += 1
            dev = float(np.max(np.abs(standalone[uid] - headline)))
            _require(dev <= ROW_TOL * scale,
                     f"{uid} sets the loss in every hour but its stand-alone market "
                     f"differs from the headline by {dev!r}")
    by_profile: dict[bytes, str] = {}
    for uid, prof in live.items():
        first = by_profile.setdefault(prof.tobytes(), uid)
        dev = float(np.max(np.abs(standalone[uid] - standalone[first])))
        _require(dev <= ALLOC_TOL * scale,
                 f"{uid} and {first} have equal profiles but rows differ by {dev!r}")
    return setters


_PERMS: dict[int, np.ndarray] = {}


def shapley_by_permutations(costs: np.ndarray) -> np.ndarray:
    """Average marginal cost over every arrival order, C(S) = max cost in S."""
    n = len(costs)
    perms = _PERMS.get(n)
    if perms is None:
        perms = _PERMS[n] = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    running = np.maximum.accumulate(costs[perms], axis=1)
    marginal = np.diff(running, axis=1, prepend=0.0)
    phi = np.zeros(n)
    np.add.at(phi, perms, marginal)
    return phi / len(perms)


def check_allocation(rule: str, costs: list[dict[str, float]], charges: list[dict[str, float]]) -> None:
    """Efficiency, 0 <= charge <= own stand-alone cost and equal treatment for
    every rule; the airport-game core for Shapley and nucleolus; Shapley
    against its permutation definition on hours with few players."""
    for t, (cost, phi) in enumerate(zip(costs, charges)):
        where = f"{rule}, hour {t + 1}"
        _require(set(phi) == set(cost), f"{where}: charged units differ from dispatched units")
        total = max(cost.values(), default=0.0)
        tol = ALLOC_TOL * max(1.0, total)
        _require(abs(sum(phi.values()) - total) <= tol,
                 f"{where}: charges sum to {sum(phi.values())!r}, largest market is {total!r}")
        for uid, v in phi.items():
            _require(-tol <= v <= cost[uid] + tol,
                     f"{where}: {uid} pays {v!r} outside [0, {cost[uid]!r}]")
        by_cost: dict[float, float] = {}
        for uid, w in cost.items():
            first = by_cost.setdefault(w, phi[uid])
            _require(abs(phi[uid] - first) <= tol, f"{where}: equal costs, unequal charges ({uid})")
        if rule == "proportional":
            continue
        players = sorted((w, phi[u], u) for u, w in cost.items() if w > 0.0)
        paid = 0.0
        for w, v, uid in players:
            paid += v
            _require(paid <= w + tol,
                     f"{where}: players up to {uid} pay {paid!r} above their coalition cost {w!r}")
        if rule == "shapley" and 0 < len(players) <= SHAPLEY_PERMUTATION_MAX:
            ref = shapley_by_permutations(np.array([w for w, _, _ in players]))
            got = np.array([v for _, v, _ in players])
            dev = float(np.max(np.abs(ref - got)))
            _require(dev <= tol, f"{where}: Shapley deviates {dev!r} from its permutation definition")


def hourly_costs(view: RunView, profiles: dict[str, np.ndarray]) -> list[dict[str, float]]:
    """Stand-alone cost of every unit dispatched in each hour."""
    return [
        {u: float(view.standalone[u][t]) for u, prof in profiles.items() if prof[t] > 0.0}
        for t in range(view.hours)
    ]


# ---------------------------------------------------------------------------
# Per-workload entry points


def check_run(out: Path, scenario) -> None:
    view = read_run(out, scenario)
    check_view(view, scenario, price_stage(scenario, view))


def price_stage(scenario, view: RunView):
    """The relaxed dispatch ``asmarket run`` prices at, rebuilt from the
    written commitment: the endogenous loss rule prices at the realized
    largest dispatched unit of every hour."""
    storage = {s.id for s in scenario.storage_units}
    profile = np.zeros(view.hours)
    for u in scenario.all_units:
        if u.loss_eligible:
            profile = np.maximum(profile, view.discharge[u.id] if u.id in storage else view.p[u.id])
    model = build_uc(scenario, FixedProfile(tuple(float(v) for v in profile)), relaxed=True)
    return solve_relaxed(model)[0]


def check_view(view: RunView, scenario, relaxed) -> None:
    injections = {**view.p, **{s.id: view.discharge[s.id] - view.charge[s.id]
                               for s in scenario.storage_units}}
    check_balance(scenario.demand_mw, injections)
    check_commitment(scenario, view)
    check_security(scenario.params, *run_aggregates(scenario, view))
    check_objective_bound(run_cost(scenario, view), view.relaxed_cost)
    a = view.audit
    _require(np.allclose(a["p_loss_mw"], relaxed.p_loss_mw, rtol=ROW_TOL, atol=ROW_TOL),
             "audit_hourly.csv: p_loss differs from the rebuilt price stage")
    inertia, pfr, efr = price_aggregates(scenario, relaxed)
    pr = view.prices
    check_payment_identity(a["p_loss_mw"], pr["omega_loss"], pr["lambda_h"] * inertia,
                           pr["lambda_pfr"] * pfr, pr["lambda_efr"] * efr)
    market = a["p_loss_mw"] * view.prices["omega_loss"]
    _require(np.allclose(a["as_market_gbp"], market, rtol=ROW_TOL, atol=ROW_TOL),
             "audit_hourly.csv: as_market differs from p_loss * omega_loss")
    profiles = loss_profiles(scenario, view)
    check_standalone(profiles, view.standalone, a["as_market_gbp"])
    costs = hourly_costs(view, {u: p for u, p in profiles.items() if u in view.standalone})
    for rule, charges in view.allocations.items():
        check_allocation(rule, costs, charges)


def price_aggregates(scenario, dispatch):
    T = scenario.horizon
    inertia, pfr, efr = np.zeros(T), np.zeros(T), np.zeros(T)
    for g in scenario.generators:
        inertia += g.inertia_s * g.p_max_mw * dispatch.gen_commit[g.id]
        pfr += dispatch.gen_pfr[g.id]
    for s in scenario.storage_units:
        modes = dispatch.sto_cha_mode[s.id] + dispatch.sto_dis_mode[s.id]
        inertia += s.inertia_s * s.p_max_mw * modes
        pfr += dispatch.sto_pfr[s.id]
        efr += dispatch.sto_efr[s.id]
    return inertia, pfr, efr


def check_price(result) -> None:
    sc, d, prices = result.scenario, result.dispatch, result.prices
    injections = {**d.gen_p, **d.res_p,
                  **{s.id: d.sto_discharge[s.id] - d.sto_charge[s.id] for s in sc.storage_units}}
    check_balance(sc.demand_mw, injections)
    inertia, pfr, efr = price_aggregates(sc, d)
    check_security(sc.params, inertia, pfr, efr, d.p_loss_mw)
    check_payment_identity(d.p_loss_mw, prices.omega_loss, prices.lambda_h * inertia,
                           prices.lambda_pfr * pfr, prices.lambda_efr * efr)
