"""LP sessions on the HiGHS simplex solver that ships with scipy.

scipy's compiled HiGHS extension ``scipy.optimize._highspy._core`` is loaded
straight from its file, under its own name, so that importing this package
runs none of scipy's Python packages: ``scipy.optimize``'s ``__init__``
(linalg, linprog and the optimizers) takes about 0.35 s to import and
``scipy.sparse`` another 0.2 s, and nothing here uses either. The module is
registered in ``sys.modules``, so a later ``import scipy.optimize`` reuses
it. Matrices are held in :class:`Csr`, the row-wise form HiGHS' ``a_matrix_``
takes.

An :class:`LpSession` holds one HiGHS model in HiGHS' own form: ranged rows
``row_lower <= A x <= row_upper`` (an equality row has equal bounds, a ``<=``
row a lower bound of ``-inf``, a free row infinite bounds) and column bounds.
Between solves it is edited in place: rows appended (``add_ub_rows``), column
bounds replaced (``set_bounds``), one row's bounds or one matrix entry changed
(``set_row_bounds``, ``set_coefficient``) and an earlier basis put back
(``restore``). :func:`solve_lp` re-runs dual simplex from the basis HiGHS
holds, which appended rows and changed bounds leave dual feasible; after a
coefficient change HiGHS may first have to regain dual feasibility. Solver
options follow ``scipy.optimize.linprog`` (method ``"highs"``): presolve on,
dual simplex, both feasibility tolerances set to ``FEASIBILITY_TOL``. They
depart from it in one place: dual simplex prices with devex weights, not dual
steepest edge, because steepest-edge weights are recomputed after every
``addRows`` and cost a warm re-solve more than its few pivots. When a solve
reports infeasibility, :meth:`LpSession.iis_rows` asks HiGHS for an
irreducible infeasible subset of the rows.

An :class:`LpOutcome` keeps copies of HiGHS' solution and basis and builds
its marginal arrays when they are first read, so a solve whose duals nobody
reads pays nothing for them, and an outcome keeps its duals after its session
is edited and solved again.

Marginal conventions (verified against scipy): every marginal is the
sensitivity of the optimal objective to the corresponding right-hand side or
bound. For a minimisation this means equality-row marginals are free-signed,
``<=`` row marginals are <= 0, lower-bound marginals >= 0 and upper-bound
marginals <= 0.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np


def _load_highs():
    """scipy's HiGHS extension, loaded from its file without importing scipy.

    The binding is private to scipy; pyproject requires at least the scipy
    release it was tested with."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("asmarket needs scipy >= 1.17 for its HiGHS extension; scipy is not installed")
    folder = Path(scipy.submodule_search_locations[0], "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(
            f"no HiGHS extension _core{importlib.machinery.EXTENSION_SUFFIXES[0]} in {folder}: "
            "asmarket needs scipy >= 1.17"
        )
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


_core = _load_highs()

FEASIBILITY_TOL = 1e-9  # HiGHS primal and dual feasibility tolerance

OPTIMAL = 0
ITERATION_LIMIT = 1
INFEASIBLE = 2
UNBOUNDED = 3
OTHER = 4

# HiGHS model status -> status code, as in scipy's linprog
_STATUS = {
    _core.HighsModelStatus.kOptimal: OPTIMAL,
    _core.HighsModelStatus.kTimeLimit: ITERATION_LIMIT,
    _core.HighsModelStatus.kIterationLimit: ITERATION_LIMIT,
    _core.HighsModelStatus.kInfeasible: INFEASIBLE,
    _core.HighsModelStatus.kModelError: INFEASIBLE,
    _core.HighsModelStatus.kUnbounded: UNBOUNDED,
}
_AT_LOWER = int(_core.HighsBasisStatus.kLower)
_AT_UPPER = int(_core.HighsBasisStatus.kUpper)


def _check(status: _core.HighsStatus, message: str) -> None:
    if status == _core.HighsStatus.kError:
        raise ValueError(message)


@dataclass(frozen=True, eq=False)
class Csr:
    """A sparse matrix in compressed sparse row form, as HiGHS' row-wise
    ``a_matrix_`` takes it: row i holds ``data[indptr[i]:indptr[i + 1]]`` at
    columns ``indices[indptr[i]:indptr[i + 1]]``, in increasing column order.
    Indices are int32, the index type of scipy's HiGHS build."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_triplets(cls, rows, cols, values, shape: tuple[int, int]) -> "Csr":
        """Entry ``values[k]`` at ``(rows[k], cols[k])``, sorted by (row,
        column) as scipy's canonical CSR is; explicit zeros are kept. No
        (row, column) pair may occur twice."""
        rows, cols = np.asarray(rows, dtype=np.int32), np.asarray(cols, dtype=np.int32)
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        duplicate = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        assert not duplicate.any(), "duplicate (row, column) entry"
        indptr = np.zeros(shape[0] + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(indptr, cols, np.asarray(values, dtype=float)[order], shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "Csr":
        """The nonzero entries of a two-dimensional array."""
        dense = np.asarray(dense, dtype=float)
        rows, cols = np.nonzero(dense)
        return cls.from_triplets(rows, cols, dense[rows, cols], dense.shape)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """``A @ x``, each row summed in entry order."""
        row_of = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return np.bincount(row_of, weights=self.data * x[self.indices], minlength=self.shape[0])


@dataclass
class LpOutcome:
    """One solve's result. ``solution`` and ``basis`` are HiGHS' copies of its
    solution and basis right after the solve (``basis`` can be handed to
    :meth:`LpSession.restore`); the marginals are built from them on first
    read, and are ``None`` unless the LP was solved to optimality."""

    status: int
    message: str
    objective: float
    x: np.ndarray | None
    iterations: int
    solution: _core.HighsSolution | None = field(default=None, repr=False)
    basis: _core.HighsBasis | None = field(default=None, repr=False)

    @cached_property
    def row_marginals(self) -> np.ndarray | None:
        return None if self.solution is None else np.array(self.solution.row_dual)

    @cached_property
    def _bound_marginals(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        if self.solution is None:
            return None, None
        col_dual = np.array(self.solution.col_dual)
        col_status = np.array(self.basis.col_status, dtype=np.int8)
        return (
            np.where(col_status == _AT_LOWER, col_dual, 0.0),
            np.where(col_status == _AT_UPPER, col_dual, 0.0),
        )

    @property
    def lower_marginals(self) -> np.ndarray | None:
        return self._bound_marginals[0]

    @property
    def upper_marginals(self) -> np.ndarray | None:
        return self._bound_marginals[1]


class LpSession:
    """min c@x s.t. row_lower <= a@x <= row_upper, lb <= x <= ub, kept in HiGHS."""

    def __init__(
        self,
        c: np.ndarray,
        a: Csr,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
    ):
        model = _core.HighsLp()
        model.num_col_ = len(c)
        model.num_row_ = a.shape[0]
        model.col_cost_ = np.asarray(c, dtype=float)
        self._lb = np.array(lb, dtype=float)  # the column bounds HiGHS holds
        self._ub = np.array(ub, dtype=float)
        model.col_lower_ = self._lb
        model.col_upper_ = self._ub
        model.row_lower_ = np.asarray(row_lower, dtype=float)
        model.row_upper_ = np.asarray(row_upper, dtype=float)
        matrix = model.a_matrix_
        matrix.format_ = _core.MatrixFormat.kRowwise
        matrix.num_col_ = len(c)
        matrix.num_row_ = a.shape[0]
        matrix.start_ = a.indptr
        matrix.index_ = a.indices
        matrix.value_ = a.data
        model.a_matrix_ = matrix

        self.highs = _core._Highs()
        for option, value in (
            ("output_flag", False),
            ("presolve", "on"),
            ("simplex_strategy", 1),  # dual simplex
            ("simplex_dual_edge_weight_strategy", 1),  # devex
            ("primal_feasibility_tolerance", FEASIBILITY_TOL),
            ("dual_feasibility_tolerance", FEASIBILITY_TOL),
        ):
            self.highs.setOptionValue(option, value)
        _check(self.highs.passModel(model), "HiGHS rejected the LP")

    def add_ub_rows(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, b: np.ndarray) -> None:
        """Append rows ``a @ x <= b``, ``a`` given by its CSR arrays (row k
        holds ``data[indptr[k]:indptr[k + 1]]`` at columns ``indices[...]``);
        their marginals come last in ``row_marginals``."""
        status = self.highs.addRows(
            len(b), np.full(len(b), -np.inf), np.asarray(b, dtype=float),
            len(data), indptr[:-1], indices, data,
        )
        _check(status, "HiGHS rejected the added rows")

    def set_bounds(self, lb: np.ndarray, ub: np.ndarray) -> None:
        """Replace every column bound; the current basis is kept. Only the
        columns whose bounds differ from the session's are sent to HiGHS."""
        lb, ub = np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
        changed = np.flatnonzero((lb != self._lb) | (ub != self._ub)).astype(np.int32)
        if not len(changed):
            return
        status = self.highs.changeColsBounds(len(changed), changed, lb[changed], ub[changed])
        _check(status, "HiGHS rejected the column bounds")
        self._lb[changed] = lb[changed]
        self._ub[changed] = ub[changed]

    def set_row_bounds(self, row: int, lower: float, upper: float) -> None:
        """Replace one row's bounds; equal bounds pin it, infinite ones free it."""
        _check(self.highs.changeRowBounds(row, lower, upper), "HiGHS rejected the row bounds")

    def set_coefficient(self, row: int, col: int, value: float) -> None:
        """Replace one matrix entry; a zero removes it."""
        _check(self.highs.changeCoeff(row, col, value), "HiGHS rejected the coefficient")

    def restore(self, basis: _core.HighsBasis) -> None:
        """Start the next solve from ``basis``, an earlier outcome's; rows
        added since it was taken enter basic (``basis.row_status`` is padded
        in place)."""
        rows = basis.row_status
        n_new = self.highs.getNumRow() - len(rows)
        if n_new:
            basis.row_status = rows + [_core.HighsBasisStatus.kBasic] * n_new
        _check(self.highs.setBasis(basis), "HiGHS rejected the basis")

    def iis_rows(self) -> list[int]:
        """The rows of an irreducible infeasible subset (IIS) HiGHS finds,
        preferring rows to column bounds; empty when the LP is feasible. The
        session's LP is left unchanged."""
        self.highs.setOptionValue("iis_strategy", 1)  # from the LP, row priority
        iis = _core.HighsIis()
        _check(self.highs.getIis(iis), "HiGHS could not compute an IIS")
        return list(iis.row_index)


def solve_lp(session: LpSession) -> LpOutcome:
    """Solve the session's current LP, warm from its last basis if it has one."""
    highs = session.highs
    highs.run()
    model_status = highs.getModelStatus()
    status = _STATUS.get(model_status, OTHER)
    message = highs.modelStatusToString(model_status)
    info = highs.getInfo()
    nit = max(int(info.simplex_iteration_count), 0)
    if status != OPTIMAL:
        return LpOutcome(status, message, float("nan"), None, nit)
    solution = highs.getSolution()  # getSolution and getBasis return copies
    return LpOutcome(
        status=OPTIMAL,
        message=message,
        objective=float(info.objective_function_value),
        x=np.array(solution.col_value),
        iterations=nit,
        solution=solution,
        basis=highs.getBasis(),
    )
