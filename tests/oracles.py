"""Independent oracles used by the tests: exhaustive enumeration over binary
commitment patterns (the LP evaluator is shared with the solver, the search
is not: each pattern gets its own cold LP session through
``solve_fixed_binaries``, independent of the branch-and-bound's warm one), and
the per-unit relaxation that the class-column relaxation reduces, and
scipy's CSR matrix of a model's ``lp.Csr``."""
from __future__ import annotations

from dataclasses import replace
from itertools import product

from scipy import sparse

from asmarket.lp import Csr
from asmarket.scenario import Scenario
from asmarket.solve import solve_fixed_binaries
from asmarket.ucmodel import UCModel


def enumerate_commitments(model: UCModel, max_binaries: int = 12):
    """Minimum objective over every assignment of the binary variables.

    Returns (best objective, best assignment dict) or (None, None) when every
    pattern is infeasible.
    """
    idxs = model.binary_indices
    if len(idxs) > max_binaries:
        raise ValueError(f"{len(idxs)} binaries exceeds the enumeration cap {max_binaries}")
    best_obj, best_pattern = None, None
    for bits in product((0, 1), repeat=len(idxs)):
        values = dict(zip(idxs, bits))
        result = solve_fixed_binaries(model, values)
        if result is None:
            continue
        obj, _ = result
        if best_obj is None or obj < best_obj:
            best_obj, best_pattern = obj, values
    return best_obj, best_pattern


def classes_of_one(scenario: Scenario) -> Scenario:
    """``scenario`` with a unique technology label on every unit: no two units
    share a class, so ``build_uc(relaxed=True)`` holds one column block per
    unit, array for array the per-unit relaxation."""
    return replace(
        scenario,
        generators=tuple(replace(u, technology=u.id) for u in scenario.generators),
        res_units=tuple(replace(u, technology=u.id) for u in scenario.res_units),
        storage_units=tuple(replace(u, technology=u.id) for u in scenario.storage_units),
    )


def as_scipy(a: Csr) -> sparse.csr_matrix:
    """``a`` as scipy's CSR matrix, sharing its three arrays."""
    return sparse.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
