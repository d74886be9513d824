"""The HiGHS session against scipy.optimize.linprog, the reference oracle for
objective, primal point and the sign of every marginal family."""
import numpy as np
import pytest
from scipy.optimize import linprog

from asmarket import lp
from asmarket.lp import Csr, LpSession, solve_lp

# min x0 + 2 x1 - 3 x2 + x3
#   x0 + x1      = 2     (active equality)
#   x0 + x2     <= 1.5   (active <= row)
#   x3 >= 0.5 at its lower bound, x2 <= 1 at its upper bound
C = np.array([1.0, 2.0, -3.0, 1.0])
A_EQ = np.array([[1.0, 1.0, 0.0, 0.0]])
B_EQ = np.array([2.0])
A_UB = np.array([[1.0, 0.0, 1.0, 0.0]])
B_UB = np.array([1.5])
LB = np.array([0.0, 0.0, 0.0, 0.5])
UB = np.array([10.0, 10.0, 1.0, 5.0])
# the same rows in HiGHS' form: row_lower <= A x <= row_upper
A = Csr.from_dense(np.vstack([A_EQ, A_UB]))
ROW_LOWER = np.array([2.0, -np.inf])
ROW_UPPER = np.array([2.0, 1.5])


def reference(a_ub, b_ub, ub=UB, b_eq=B_EQ):
    return linprog(C, A_ub=a_ub, b_ub=b_ub, A_eq=A_EQ, b_eq=b_eq,
                   bounds=np.column_stack([LB, ub]), method="highs")


def assert_matches(out, ref, n_rows=None):
    """``n_rows`` leaves out the session's rows past the reference's."""
    assert out.status == lp.OPTIMAL
    assert out.objective == pytest.approx(ref.fun, abs=1e-12)
    np.testing.assert_allclose(out.x, ref.x, atol=1e-12)
    row_marginals = out.row_marginals[:n_rows]
    np.testing.assert_allclose(row_marginals[:1], ref.eqlin.marginals, atol=1e-12)
    np.testing.assert_allclose(row_marginals[1:], ref.ineqlin.marginals, atol=1e-12)
    np.testing.assert_allclose(out.lower_marginals, ref.lower.marginals, atol=1e-12)
    np.testing.assert_allclose(out.upper_marginals, ref.upper.marginals, atol=1e-12)


def test_marginals_match_linprog():
    out = solve_lp(LpSession(C, A, ROW_LOWER, ROW_UPPER, LB, UB))
    assert_matches(out, reference(A_UB, B_UB))
    # the hand-derived sensitivities, so a sign flip on both sides is caught
    np.testing.assert_allclose(out.x, [0.5, 1.5, 1.0, 0.5], atol=1e-12)
    assert out.row_marginals == pytest.approx([2.0, -1.0])
    assert out.lower_marginals == pytest.approx([0.0, 0.0, 0.0, 1.0])
    assert out.upper_marginals == pytest.approx([0.0, 0.0, -2.0, 0.0])


def test_outcome_keeps_its_marginals_after_the_session_changes():
    session = LpSession(C, A, ROW_LOWER, ROW_UPPER, LB, UB)
    first = solve_lp(session)
    session.set_row_bounds(1, -np.inf, 0.5)  # x0 + x2 <= 0.5 moves every marginal family
    second = solve_lp(session)
    assert second.row_marginals == pytest.approx([2.0, -3.0])
    assert second.lower_marginals == pytest.approx([2.0, 0.0, 0.0, 1.0])
    assert second.upper_marginals == pytest.approx([0.0, 0.0, 0.0, 0.0])
    # read only now, after the session moved on
    assert first.row_marginals == pytest.approx([2.0, -1.0])
    assert first.lower_marginals == pytest.approx([0.0, 0.0, 0.0, 1.0])
    assert first.upper_marginals == pytest.approx([0.0, 0.0, -2.0, 0.0])


def test_added_row_marginal_comes_last():
    session = LpSession(C, A, ROW_LOWER, ROW_UPPER, LB, UB)
    solve_lp(session)
    extra = np.array([[0.0, 1.0, 0.0, 0.0]])  # x1 <= 1.2 cuts off the first optimum
    session.add_ub_rows(np.array([0, 1]), np.array([1]), np.array([1.0]), np.array([1.2]))
    out = solve_lp(session)
    ref = reference(np.vstack([A_UB, extra]), np.concatenate([B_UB, [1.2]]))
    assert_matches(out, ref)
    assert len(out.row_marginals) == 3
    assert out.row_marginals[2] < 0.0


def test_bounds_changed_in_place():
    session = LpSession(C, A, ROW_LOWER, ROW_UPPER, LB, UB)
    first = solve_lp(session)
    tighter = UB.copy()
    tighter[2] = 0.4  # x2 <= 0.4 moves the optimum off x2 = 1
    session.set_bounds(LB, tighter)
    out = solve_lp(session)
    assert not np.allclose(out.x, first.x)
    assert_matches(out, reference(A_UB, B_UB, tighter))


def test_bounds_send_only_changed_columns():
    session = LpSession(C, A, ROW_LOWER, ROW_UPPER, LB, UB)
    highs, sent = session.highs, []

    class Recorder:
        def __getattr__(self, name):
            return getattr(highs, name)

        def changeColsBounds(self, n, cols, lower, upper):
            sent.append(cols.tolist())
            return highs.changeColsBounds(n, cols, lower, upper)

    session.highs = Recorder()
    tighter = UB.copy()
    tighter[2] = 0.4
    session.set_bounds(LB, UB)  # what HiGHS already holds: no call
    session.set_bounds(LB, tighter)
    session.set_bounds(LB, tighter)
    assert sent == [[2]]
    assert_matches(solve_lp(session), reference(A_UB, B_UB, tighter))
    session.set_bounds(LB, UB)
    assert sent == [[2], [2]]
    np.testing.assert_array_equal(highs.getLp().col_upper_, UB)
    assert_matches(solve_lp(session), reference(A_UB, B_UB))


def test_row_bounds_changed_in_place():
    session = LpSession(C, A, ROW_LOWER, ROW_UPPER, LB, UB)
    first = solve_lp(session)
    session.set_row_bounds(0, 1.0, 1.0)  # x0 + x1 = 1: the objective presses on the lower side
    pinned = solve_lp(session)
    assert not np.allclose(pinned.x, first.x)
    assert_matches(pinned, reference(A_UB, B_UB, b_eq=np.array([1.0])))
    session.set_row_bounds(1, -np.inf, np.inf)  # a free row constrains nothing
    out = solve_lp(session)
    assert not np.allclose(out.x, pinned.x)
    assert out.row_marginals[1] == 0.0
    ref = reference(None, None, b_eq=np.array([1.0]))
    assert_matches(out, ref, n_rows=1)


def test_coefficient_changed_in_place():
    session = LpSession(C, A, ROW_LOWER, ROW_UPPER, LB, UB)
    first = solve_lp(session)
    session.set_coefficient(1, 2, 0.0)  # x2 leaves the <= row: x0 <= 1.5
    out = solve_lp(session)
    assert not np.allclose(out.x, first.x)
    a_ub = A_UB.copy()
    a_ub[0, 2] = 0.0
    assert_matches(out, reference(a_ub, B_UB))


def test_restored_basis_after_added_rows():
    session = LpSession(C, A, ROW_LOWER, ROW_UPPER, LB, UB)
    basis = solve_lp(session).basis
    tighter = UB.copy()
    tighter[2] = 0.4
    session.set_bounds(LB, tighter)  # leave HiGHS on another basis
    solve_lp(session)
    session.set_bounds(LB, UB)
    extra = np.array([[0.0, 1.0, 0.0, 0.0]])
    session.add_ub_rows(np.array([0, 1]), np.array([1]), np.array([1.0]), np.array([1.2]))
    session.restore(basis)  # taken with one row fewer than the session has now
    out = solve_lp(session)
    assert_matches(out, reference(np.vstack([A_UB, extra]), np.concatenate([B_UB, [1.2]])))


def test_infeasible_status():
    out = solve_lp(LpSession(C, A, ROW_LOWER, ROW_UPPER, LB, np.full(4, 0.5)))
    assert out.status == lp.INFEASIBLE
    assert out.x is None


def test_iis_rows_on_infeasible_lp():
    # x0 + x1 = 2 cannot hold with every column capped at 0.5: the equality
    # row alone is infeasible, and the <= row has room
    session = LpSession(C, A, ROW_LOWER, ROW_UPPER, LB, np.full(4, 0.5))
    assert solve_lp(session).status == lp.INFEASIBLE
    assert session.iis_rows() == [0]
    # the session still holds the original LP
    assert solve_lp(session).status == lp.INFEASIBLE


def test_iis_rows_on_feasible_lp():
    session = LpSession(C, A, ROW_LOWER, ROW_UPPER, LB, UB)
    assert session.iis_rows() == []
    assert_matches(solve_lp(session), reference(A_UB, B_UB))


def test_unbounded_status():
    out = solve_lp(LpSession(-C, A, ROW_LOWER, ROW_UPPER, np.full(4, -np.inf), np.full(4, np.inf)))
    assert out.status == lp.UNBOUNDED
    assert out.x is None
