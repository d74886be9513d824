"""Cost allocation for the hourly AS market as an airport game.

The coalition cost rule is C(M) = max of the members' stand-alone costs
(C(empty) = 0), which makes the game concave-free ("airport problem") and
admits closed forms: the sequential (telescoping) Shapley value and
Littlechild's nucleolus recursion over bands of equal cost (within
GROUP_TOL). Both closed forms are paired with independent brute-force
oracles: full subset enumeration for Shapley and a lexicographic sequence of
LPs for the nucleolus.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp


class AllocationError(Exception):
    pass


GROUP_TOL = 1e-9  # relative cost band within which nucleolus players form one type
CORE_TOL = 1e-9   # core_check's band, relative to max(1, C(N))
SHAPLEY_BRUTEFORCE_MAX_N = 12  # 2^n coalitions
NUCLEOLUS_ORACLE_MAX_N = 8     # 2^n LP rows


@dataclass(frozen=True)
class AirportGame:
    """Players sorted ascending by stand-alone cost; ties by id."""

    players: tuple[tuple[str, float], ...]

    @classmethod
    def from_costs(cls, costs: dict[str, float] | list[tuple[str, float]]):
        items = list(costs.items()) if isinstance(costs, dict) else list(costs)
        seen = set()
        for uid, w in items:
            if uid in seen:
                raise AllocationError(f"duplicate player id {uid!r}")
            seen.add(uid)
            if not math.isfinite(w):
                raise AllocationError(f"non-finite stand-alone cost for {uid!r}: {w}")
            if w < 0:
                raise AllocationError(f"negative stand-alone cost for {uid!r}: {w}")
        items.sort(key=lambda kv: (kv[1], kv[0]))
        return cls(players=tuple((u, float(w)) for u, w in items))

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def ids(self) -> list[str]:
        return [u for u, _ in self.players]

    @property
    def costs(self) -> np.ndarray:
        return np.array([w for _, w in self.players])

    @property
    def total(self) -> float:
        """Cost of the grand coalition: the largest stand-alone cost."""
        return self.players[-1][1] if self.players else 0.0


@dataclass
class Allocation:
    rule: str
    phi: dict[str, float]

    def vector(self, ids: list[str]) -> np.ndarray:
        return np.array([self.phi[u] for u in ids])


def _finalize(rule: str, total: float, phi: dict[str, float]) -> Allocation:
    paid = sum(phi.values())
    if abs(paid - total) > 1e-9 * max(1.0, total):
        raise AllocationError(f"{rule}: allocations sum to {paid}, expected {total}")
    clean = {}
    for uid, v in phi.items():
        if v < -1e-9 * max(1.0, total):
            raise AllocationError(f"{rule}: negative charge {v} for {uid!r}")
        clean[uid] = float(v) if v > 0 else 0.0  # never -0.0
    return Allocation(rule=rule, phi=clean)


# ---------------------------------------------------------------------------
# Rules


def proportional(game: AirportGame) -> Allocation:
    """Each unit pays in proportion to its stand-alone cost."""
    costs = game.costs
    total = costs.sum()
    if game.n == 0 or game.total == 0.0:
        return Allocation(rule="proportional", phi={u: 0.0 for u in game.ids})
    share = game.total / total
    phi = {u: w * share for (u, w) in game.players}
    return _finalize("proportional", game.total, phi)


def shapley_airport(game: AirportGame) -> Allocation:
    """Telescoping closed form: each cost increment above the next-smaller
    player is shared equally by everyone at least that large."""
    n = game.n
    if n == 0:
        return Allocation(rule="shapley", phi={})
    costs = game.costs
    increments = np.diff(costs, prepend=0.0)
    shares = increments / (n - np.arange(n))
    phi_sorted = np.cumsum(shares)
    phi = {u: float(v) for (u, _), v in zip(game.players, phi_sorted)}
    return _finalize("shapley", game.total, phi)


def _coalition_costs(costs: np.ndarray) -> np.ndarray:
    """C(mask) = max member cost, vectorised over all 2^n coalitions."""
    n = len(costs)
    masks = np.arange(1 << n, dtype=np.int64)
    c = np.zeros(1 << n)
    for i in range(n):
        has = (masks >> i) & 1 == 1
        c[has] = np.maximum(c[has], costs[i])
    return c


def shapley_bruteforce(game: AirportGame) -> Allocation:
    """Exact subset-weighted marginal-contribution sum (exponential)."""
    n = game.n
    if n > SHAPLEY_BRUTEFORCE_MAX_N:
        raise AllocationError(f"shapley_bruteforce: {n} players exceeds max_n={SHAPLEY_BRUTEFORCE_MAX_N}")
    if n == 0:
        return Allocation(rule="shapley_bruteforce", phi={})
    costs = game.costs
    c = _coalition_costs(costs)
    masks = np.arange(1 << n, dtype=np.int64)
    sizes = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        sizes += (masks >> i) & 1
    fact = [math.factorial(k) for k in range(n + 1)]
    weights = np.array([fact[k] * fact[n - k - 1] / fact[n] for k in range(n)])
    phi = {}
    for i, (uid, _) in enumerate(game.players):
        without = masks[(masks >> i) & 1 == 0]
        marg = c[without | (1 << i)] - c[without]
        phi[uid] = float(weights[sizes[without]] @ marg)
    return _finalize("shapley_bruteforce", game.total, phi)


# ---------------------------------------------------------------------------
# Nucleolus


def group_by_type(game: AirportGame) -> list[tuple[float, list[str]]]:
    """The players as ``[(cost, members)]`` bands in ascending cost: costs
    that agree within ``GROUP_TOL`` (relative, chained on the sorted sequence)
    form one band, whose cost is the band maximum."""
    costs: list[float] = []
    members: list[list[str]] = []
    for uid, w in game.players:
        if costs and w - costs[-1] <= GROUP_TOL * max(1.0, w):
            costs[-1] = w  # players are sorted, so w is the band maximum so far
            members[-1].append(uid)
        else:
            costs.append(w)
            members.append([uid])
    return list(zip(costs, members))


def nucleolus(game: AirportGame) -> Allocation:
    """Nucleolus of the airport game by Littlechild's recursion over the
    cost bands of ``group_by_type``.

    Each round charges every member of the next unassigned bands one share:
    the least, over the candidate last bands k, of band k's cost net of the
    charges already made, divided by the unassigned members up to k plus one.
    The last band divides by its members alone, absorbing the remainder
    exactly. Ties within 1e-15 go to the earlier band.
    """
    groups = group_by_type(game)
    phi: dict[str, float] = {}
    assigned = 0.0
    done = 0  # bands already charged
    while done < len(groups):
        best, split, count = math.inf, done, 0
        for k in range(done, len(groups)):
            cost, members = groups[k]
            count += len(members)
            share = (cost - assigned) / (count if k == len(groups) - 1 else count + 1)
            if share < best - 1e-15:
                best, split = share, k
        for _, members in groups[done:split + 1]:
            for uid in members:
                phi[uid] = best
            assigned += best * len(members)
        done = split + 1
    return _finalize("nucleolus", game.total, phi)


# ---------------------------------------------------------------------------
# Lexicographic-LP nucleolus oracle


def nucleolus_lp_oracle(game: AirportGame) -> Allocation:
    """Nucleolus by lexicographic minimisation of sorted coalition excesses.

    One HiGHS session per game holds a row ``x(S) - eps <= C(S)`` for every
    proper coalition S and the efficiency row ``x(N) = C(N)``. Each round
    minimises the worst remaining excess eps and fixes, as rows
    ``x(S) = C(S) + eps_q``, the tight coalitions with a positive dual, which
    complementary slackness keeps tight in every optimal solution. A coalition
    tight over the whole optimal face without a positive dual stays free and
    is pinned by a later round at the same level; a numerically flat round
    with no positive dual pins its largest one. Coalitions whose indicator
    rows become linearly dependent on the fixed system carry implied excesses
    and are retired (their rows freed), so every remaining round pins at
    least one new dimension. The allocation solves the fixed system by least
    squares.
    """
    n = game.n
    if n > NUCLEOLUS_ORACLE_MAX_N:
        raise AllocationError(f"nucleolus_lp_oracle: {n} players exceeds max_n={NUCLEOLUS_ORACLE_MAX_N}")
    if n == 0:
        return Allocation(rule="nucleolus_lp", phi={})
    costs = game.costs
    if n == 1:
        return _finalize("nucleolus_lp", game.total, {game.ids[0]: float(costs[0])})
    scale = max(1.0, float(costs.max()))

    # row r is coalition mask r + 1; the last row is the grand coalition
    n_rows = (1 << n) - 1
    coal_cost = _coalition_costs(costs)[1:]
    members = ((np.arange(1, n_rows + 1)[:, None] >> np.arange(n)) & 1).astype(float)
    eps_col = np.append(-np.ones(n_rows - 1), 0.0)
    objective = np.append(np.zeros(n), 1.0)
    lb, ub = np.full(n + 1, -np.inf), np.full(n + 1, np.inf)
    row_lower = np.append(np.full(n_rows - 1, -np.inf), coal_cost[-1])
    a = lp.Csr.from_dense(np.column_stack([members, eps_col]))
    session = lp.LpSession(objective, a, row_lower, coal_cost, lb, ub)

    pinned = [n_rows - 1]   # rows of the fixed system, efficiency row first
    levels = [0.0]          # their excess levels
    free = np.arange(n_rows - 1)

    def retire_implied(free: np.ndarray) -> np.ndarray:
        # rank-truncated orthonormal basis of the fixed row space
        _, s, vt = np.linalg.svd(members[pinned], full_matrices=False)
        basis = vt[s > 1e-10 * max(1.0, s[0])]
        rows = members[free]
        implied = np.linalg.norm(rows - (rows @ basis.T) @ basis, axis=1) <= 1e-9 * math.sqrt(n)
        for r in free[implied]:
            session.set_row_bounds(r, -np.inf, np.inf)
        return free[~implied]

    for _ in range(n + 1):
        if not len(free):
            break
        out = lp.solve_lp(session)
        if out.status != lp.OPTIMAL:
            raise AllocationError(f"nucleolus oracle LP failed: {out.message}")
        eps = float(out.x[-1])
        excess = members[free] @ out.x[:n] - coal_cost[free]
        tight = free[excess >= eps - 1e-7 * scale]
        duals = -out.row_marginals
        forced = [r for r in tight if duals[r] > 1e-7]
        if not forced:
            # numerically flat round: pin the strongest dual to keep moving
            forced = [tight[np.argmax(duals[tight])]]
        for r in forced:
            session.set_coefficient(r, n, 0.0)
            session.set_row_bounds(r, coal_cost[r] + eps, coal_cost[r] + eps)
        pinned += forced
        levels += [eps] * len(forced)
        free = np.setdiff1d(free, forced)
        if np.linalg.matrix_rank(members[pinned]) >= n:
            break
        free = retire_implied(free)

    system = members[pinned]
    if np.linalg.matrix_rank(system) < n:
        raise AllocationError("nucleolus oracle failed to pin the allocation")
    x, *_ = np.linalg.lstsq(system, coal_cost[pinned] + levels, rcond=None)
    phi = {uid: float(x[i]) for i, uid in enumerate(game.ids)}
    return _finalize("nucleolus_lp", game.total, phi)


# ---------------------------------------------------------------------------
# Core verification


@dataclass
class CoreReport:
    rule: str
    passed: bool
    efficiency_residual: float
    worst_ir_violation: float
    worst_coalition_excess: float
    worst_coalition: tuple[str, ...]
    coalitions_checked: int


def core_check(alloc: Allocation, game: AirportGame) -> CoreReport:
    """Verify efficiency, individual and coalitional rationality over every
    coalition (2^n enumeration, n <= 20)."""
    n = game.n
    if n > 20:
        raise AllocationError(f"core_check: {n} players exceeds the 2^n enumeration limit (20)")
    costs = game.costs
    phi = alloc.vector(game.ids)
    scale = max(1.0, game.total)

    eff_gap = abs(float(phi.sum()) - game.total)
    ir = float(np.max(phi - costs)) if n else 0.0

    c = _coalition_costs(costs)
    masks = np.arange(1 << n, dtype=np.int64)
    paid = np.zeros(1 << n)
    for i in range(n):
        paid[(masks >> i) & 1 == 1] += phi[i]
    excess = paid - c
    excess[0] = -math.inf
    excess[-1] = -math.inf  # grand coalition covered by the efficiency check
    worst_idx = int(np.argmax(excess))
    worst = float(excess[worst_idx])
    coalition = tuple(game.ids[i] for i in range(n) if (worst_idx >> i) & 1)
    tol = CORE_TOL * scale
    passed = eff_gap <= tol and ir <= tol and worst <= tol
    return CoreReport(
        rule=alloc.rule,
        passed=passed,
        efficiency_residual=eff_gap,
        worst_ir_violation=ir,
        worst_coalition_excess=worst,
        worst_coalition=coalition,
        coalitions_checked=(1 << n) - 2,
    )


# ---------------------------------------------------------------------------
# Hourly driver


RULES = {
    "proportional": proportional,
    "shapley": shapley_airport,
    "nucleolus": nucleolus,
}


@dataclass
class AllocationSeries:
    rule: str
    per_hour: list[Allocation]
    by_unit: dict[str, float]
    by_technology: dict[str, float]


def allocate_hourly(standalone, rule: str) -> AllocationSeries:
    """Apply a rule hour by hour to the stand-alone AS market sizes.

    Exact-zero players pay zero and are excluded from the game; dispatched
    units re-enter the output with a zero charge.
    """
    if rule not in RULES:
        raise AllocationError(f"unknown rule {rule!r}; expected one of {sorted(RULES)}")
    per_hour: list[Allocation] = []
    by_unit: dict[str, float] = {uid: 0.0 for uid in standalone.units()}
    for t in range(standalone.horizon):
        entries = standalone.per_hour(t)
        nonzero = [(u, w) for u, w in entries if w > 0.0]
        phi = {u: 0.0 for u, _ in entries}
        if nonzero:
            phi.update(RULES[rule](AirportGame.from_costs(nonzero)).phi)
        per_hour.append(Allocation(rule=rule, phi=phi))
        for u, v in phi.items():
            by_unit[u] = by_unit.get(u, 0.0) + v
    by_tech: dict[str, float] = {}
    for uid, v in by_unit.items():
        tech = standalone.technology.get(uid, "unknown")
        by_tech[tech] = by_tech.get(tech, 0.0) + v
    return AllocationSeries(rule=rule, per_hour=per_hour, by_unit=by_unit, by_technology=by_tech)
