import math

import numpy as np
import pytest

from asmarket.frequency import (
    cut_coefficients,
    nadir_feasible,
    nadir_feasible_product,
    nadir_residual,
    nadir_terms,
    rocof_min_inertia,
    separating_cut,
)
from asmarket.scenario import SystemParams

GB = SystemParams()


class TestRocof:
    def test_zero_loss(self):
        assert rocof_min_inertia(0.0, GB) == 0.0

    def test_gb_value(self):
        # 1800 * 50 / (2 * 1) by hand
        assert rocof_min_inertia(1800.0, GB) == pytest.approx(45_000.0)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        for p in rng.uniform(0, 5000, 50):
            assert rocof_min_inertia(2 * p, GB) == pytest.approx(2 * rocof_min_inertia(p, GB))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rocof_min_inertia(-1.0, GB)


class TestNadir:
    def test_zero_loss_feasible(self):
        # with p_loss = 0 any point with nonnegative cone rhs is a member
        for h, efr, pfr in ((0, 0, 0), (1000, 10, 50), (5000, 0, 0)):
            if h / GB.f0_hz >= GB.t_efr_s * efr / (4 * GB.delta_f_max_hz):
                assert nadir_feasible(h, efr, pfr, 0.0, GB)

    def test_gb_threshold(self):
        # EFR=0, PFR=1800, p_loss=1800 flips at H = 281_250 MWs
        assert nadir_feasible(281_250.0 + 1.0, 0.0, 1800.0, 1800.0, GB)
        assert not nadir_feasible(281_250.0 - 1.0, 0.0, 1800.0, 1800.0, GB)

    def test_cone_matches_product_form(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(20_000):
            h = rng.uniform(0, 4e5)
            efr = rng.uniform(0, 4000)
            pfr = rng.uniform(0, 5000)
            p = rng.uniform(0, 3000)
            u1, u2, v = nadir_terms(h, efr, pfr, p, GB)
            scale = max(1.0, abs(v), math.hypot(u1, u2))
            if abs(nadir_residual(h, efr, pfr, p, GB)) <= 1e-9 * scale:
                continue  # boundary band: float routes may disagree
            assert nadir_feasible(h, efr, pfr, p, GB) == nadir_feasible_product(h, efr, pfr, p, GB)
            checked += 1
        assert checked > 19_000

    def test_cut_direction_uses_math_hypot(self):
        # np.hypot differs from math.hypot in the last bit on some pairs,
        # which would move every later cut
        rng = np.random.default_rng(6)
        u1, u2 = rng.normal(0.0, 1e3, 200_000), rng.normal(0.0, 1e3, 200_000)
        u1[:10] = u2[:10] = 0.0
        a1, a2 = separating_cut(u1, u2)
        nrm = np.array([math.hypot(x, y) for x, y in zip(u1, u2)])
        assert np.array_equal(a1[:10], np.zeros(10)) and np.array_equal(a2[:10], np.zeros(10))
        assert a1[10:].tobytes() == (u1[10:] / nrm[10:]).tobytes()
        assert a2[10:].tobytes() == (u2[10:] / nrm[10:]).tobytes()

    def test_cut_is_supporting(self):
        # a cut separates the violating point but keeps every member
        rng = np.random.default_rng(5)
        for _ in range(200):
            h, efr, pfr, p = rng.uniform(0, 1e5), rng.uniform(0, 2000), rng.uniform(0, 2000), rng.uniform(0, 2500)
            u1, u2, v = nadir_terms(h, efr, pfr, p, GB)
            if math.hypot(u1, u2) <= v:
                continue
            a1, a2 = separating_cut(np.array([u1]), np.array([u2]))
            c = dict(zip(("h", "efr", "pfr", "p_loss"), (float(k[0]) for k in cut_coefficients(a1, a2, GB))))
            val = c["h"] * h + c["efr"] * efr + c["pfr"] * pfr + c["p_loss"] * p
            assert val > 0  # the violating point is cut off
            for _ in range(20):
                h2, efr2, pfr2 = rng.uniform(0, 1e5), rng.uniform(0, 2000), rng.uniform(0, 2000)
                p2 = rng.uniform(0, 2500)
                if nadir_feasible(h2, efr2, pfr2, p2, GB):
                    val2 = c["h"] * h2 + c["efr"] * efr2 + c["pfr"] * pfr2 + c["p_loss"] * p2
                    assert val2 <= 1e-9 * max(1.0, abs(val2))
