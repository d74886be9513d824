import math

import numpy as np
import pytest

from asmarket.allocation import (
    RULES,
    AirportGame,
    AllocationError,
    allocate_hourly,
    core_check,
    group_by_type,
    nucleolus,
    nucleolus_lp_oracle,
    proportional,
    shapley_airport,
    shapley_bruteforce,
)
from asmarket.pricing import StandAloneCosts


def game(*costs):
    return AirportGame.from_costs({f"u{i}": float(c) for i, c in enumerate(costs)})


def phi_sorted(alloc, g):
    return [alloc.phi[u] for u, _ in g.players]


class TestProportional:
    def test_fixed_point(self):
        g = game(4, 6, 10)
        assert phi_sorted(proportional(g), g) == pytest.approx([2.0, 3.0, 5.0])

    def test_single_player(self):
        g = game(7.5)
        assert proportional(g).phi["u0"] == pytest.approx(7.5)

    def test_equal_pair_and_double(self):
        g = game(1, 1, 2)
        assert phi_sorted(proportional(g), g) == pytest.approx([0.5, 0.5, 1.0])

    def test_all_zero_game(self):
        g = game(0.0, 0.0)
        alloc = proportional(g)
        assert all(v == 0.0 for v in alloc.phi.values())


class TestShapley:
    def test_fixed_point(self):
        g = game(1, 2, 3)
        assert phi_sorted(shapley_airport(g), g) == pytest.approx([1 / 3, 5 / 6, 11 / 6])
        assert phi_sorted(shapley_bruteforce(g), g) == pytest.approx([1 / 3, 5 / 6, 11 / 6], abs=1e-12)

    def test_two_player_display(self):
        g = game(3, 8)
        assert phi_sorted(shapley_airport(g), g) == pytest.approx([1.5, 6.5])

    def test_equal_treatment(self):
        g = game(5, 5)
        assert phi_sorted(shapley_airport(g), g) == pytest.approx([2.5, 2.5])

    def test_bruteforce_guard(self):
        g = game(*range(1, 14))
        with pytest.raises(AllocationError):
            shapley_bruteforce(g)

    def test_random_agreement(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            g = game(*rng.uniform(0, 5, n))
            a, b = shapley_airport(g), shapley_bruteforce(g)
            for u in a.phi:
                assert a.phi[u] == pytest.approx(b.phi[u], abs=1e-12)


class TestGrouping:
    def test_pair(self):
        groups = group_by_type(game(1, 1, 2))
        assert [len(members) for _, members in groups] == [2, 1]

    def test_all_distinct(self):
        groups = group_by_type(game(1, 2, 3, 4))
        assert len(groups) == 4

    def test_tolerance_band(self):
        groups = group_by_type(game(10.0, 10.0 + 1e-12, 20.0))
        assert [len(members) for _, members in groups] == [2, 1]
        assert groups[0][0] == pytest.approx(10.0 + 1e-12)

    def test_strictly_ascending_costs(self):
        groups = group_by_type(game(3, 1, 3, 1, 7))
        costs = [cost for cost, _ in groups]
        assert costs == sorted(costs)
        assert all(b > a for a, b in zip(costs, costs[1:]))


class TestNucleolus:
    def test_fixed_point(self):
        g = game(1, 2, 3)
        assert phi_sorted(nucleolus(g), g) == pytest.approx([0.5, 0.75, 1.75])

    def test_two_player_matches_shapley(self):
        g = game(3, 8)
        assert phi_sorted(nucleolus(g), g) == pytest.approx([1.5, 6.5])

    def test_equal_treatment(self):
        g = game(5, 5)
        assert phi_sorted(nucleolus(g), g) == pytest.approx([2.5, 2.5])

    def test_band_members_pay_bit_equal_charges(self):
        # 10 and 10 + 1e-12 form one band, so both pay the band's one share
        g = game(10.0, 10.0 + 1e-12, 20.0)
        phi = nucleolus(g).phi
        assert phi["u0"] == phi["u1"]
        assert phi["u0"] + phi["u1"] + phi["u2"] == pytest.approx(20.0)

    def test_all_zero_game(self):
        g = game(0.0, 0.0)
        assert nucleolus(g).phi == nucleolus_lp_oracle(g).phi == {"u0": 0.0, "u1": 0.0}

    def test_lp_oracle_fixed_point(self):
        g = game(1, 2, 3)
        assert phi_sorted(nucleolus_lp_oracle(g), g) == pytest.approx([0.5, 0.75, 1.75], abs=1e-8)

    def test_lp_oracle_single_player(self):
        g = game(4.2)
        assert nucleolus_lp_oracle(g).phi["u0"] == pytest.approx(4.2)

    def test_lp_oracle_guard(self):
        with pytest.raises(AllocationError):
            nucleolus_lp_oracle(game(*range(1, 11)))

    def test_random_agreement(self):
        rng = np.random.default_rng(33)
        for _ in range(120):
            n = int(rng.integers(2, 7))
            vals = rng.uniform(0, 5, n)
            if rng.random() < 0.4:
                vals[0] = vals[-1]
            g = game(*vals)
            a, b = nucleolus(g), nucleolus_lp_oracle(g)
            for u in a.phi:
                assert a.phi[u] == pytest.approx(b.phi[u], abs=1e-7)


class TestCore:
    def test_shapley_and_nucleolus_in_core(self):
        g = game(1, 2, 3)
        assert core_check(shapley_airport(g), g).passed
        assert core_check(nucleolus(g), g).passed

    def test_proportional_cross_subsidy(self):
        g = game(1, 1, 1, 100)
        report = core_check(proportional(g), g)
        assert not report.passed
        assert report.worst_coalition_excess > 0
        assert set(report.worst_coalition) == {"u0", "u1", "u2"}

    def test_guard(self):
        g = game(*range(1, 23))
        with pytest.raises(AllocationError):
            core_check(proportional(g), g)

    def test_rationality_properties_random(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(2, 10))
            g = game(*rng.uniform(0.01, 10, n))
            scale = max(1.0, g.total)
            for rule in (proportional, shapley_airport, nucleolus):
                alloc = rule(g)
                phi = alloc.vector(g.ids)
                # efficiency and individual rationality for every rule
                assert abs(phi.sum() - g.total) <= 1e-9 * scale
                assert np.all(phi <= g.costs + 1e-9 * scale)
                assert np.all(phi >= 0.0)
            # monotone order for shapley and nucleolus
            for rule in (shapley_airport, nucleolus):
                phi = rule(g).vector(g.ids)
                assert np.all(np.diff(phi) >= -1e-9 * scale)
            # two-player coincidence
        for _ in range(40):
            g = game(*rng.uniform(0.01, 10, 2))
            s, nu = shapley_airport(g), nucleolus(g)
            for u in s.phi:
                assert s.phi[u] == pytest.approx(nu.phi[u], abs=1e-12)


class TestHourly:
    def make_standalone(self, matrix, dispatched=None):
        units = sorted(matrix)
        T = len(next(iter(matrix.values())))
        return StandAloneCosts(
            horizon=T,
            omegas={u: np.asarray(matrix[u], dtype=float) for u in units},
            dispatched={
                u: np.asarray(dispatched[u]) if dispatched else np.ones(T, dtype=bool)
                for u in units
            },
            technology={u: ("big" if u.startswith("b") else "small") for u in units},
        )

    def test_single_nonzero_player_pays_everything(self):
        sa = self.make_standalone({"b1": [10.0, 0.0], "s1": [0.0, 0.0]})
        series = allocate_hourly(sa, "shapley")
        assert series.per_hour[0].phi == {"b1": 10.0, "s1": 0.0}
        assert series.per_hour[1].phi == {"b1": 0.0, "s1": 0.0}

    def test_efficiency_each_hour(self):
        sa = self.make_standalone({"b1": [10.0, 8.0], "s1": [4.0, 2.0], "s2": [2.0, 2.0]})
        for rule in ("proportional", "shapley", "nucleolus"):
            series = allocate_hourly(sa, rule)
            for t, alloc in enumerate(series.per_hour):
                total = max(sa.omegas[u][t] for u in sa.omegas)
                assert sum(alloc.phi.values()) == pytest.approx(total)

    def test_zero_players_reinserted(self):
        sa = self.make_standalone({"b1": [10.0], "s1": [0.0]})
        series = allocate_hourly(sa, "nucleolus")
        assert series.per_hour[0].phi["s1"] == 0.0

    def test_technology_rollup(self):
        sa = self.make_standalone({"b1": [10.0, 8.0], "s1": [4.0, 2.0]})
        series = allocate_hourly(sa, "proportional")
        assert series.by_technology["big"] + series.by_technology["small"] == pytest.approx(18.0)

    def test_unknown_rule(self):
        sa = self.make_standalone({"b1": [1.0]})
        with pytest.raises(AllocationError):
            allocate_hourly(sa, "banzhaf")


def test_negative_cost_rejected():
    with pytest.raises(AllocationError):
        game(1.0, -0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_cost_rejected(bad):
    with pytest.raises(AllocationError, match="non-finite stand-alone cost for 'b'"):
        AirportGame.from_costs([("a", 1.0), ("b", bad), ("c", 2.0)])


def test_duplicate_player_id_rejected():
    with pytest.raises(AllocationError, match="duplicate player id 'a'"):
        AirportGame.from_costs([("a", 1.0), ("b", 2.0), ("a", 0.5)])


@pytest.mark.parametrize("rule", list(RULES))
def test_negative_zero_cost_is_charged_plus_zero(rule):
    alloc = RULES[rule](AirportGame.from_costs([("a", -0.0), ("b", 2.0)]))
    assert alloc.phi == {"a": 0.0, "b": 2.0}
    assert math.copysign(1.0, alloc.phi["a"]) == 1.0  # printed as 0.0, not -0.0


def test_directional_ordering_constructed_hour():
    # one large unit and several mid-size ones: proportional charges the
    # largest strictly less than shapley and nucleolus; nucleolus does not
    # exceed shapley for that unit
    g = game(300, 400, 500, 600, 600, 1000)
    big = g.players[-1][0]
    p = proportional(g).phi[big]
    s = shapley_airport(g).phi[big]
    nu = nucleolus(g).phi[big]
    assert p < s and p < nu
    assert nu <= s + 1e-9
