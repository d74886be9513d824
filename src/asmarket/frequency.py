"""Frequency-security primitives: RoCoF floor and the nadir cone.

The nadir requirement on the hourly aggregates (H, EFR, PFR, p_loss) is a
two-row second-order cone

    || (u1, u2) ||_2 <= v

with linear terms

    u1 = H/f0 - T_EFR*EFR/(4*df) - PFR/T_PFR
    u2 = (p_loss - EFR)/sqrt(df)
    v  = H/f0 - T_EFR*EFR/(4*df) + PFR/T_PFR

(df is the admissible nadir deviation). Expanding v**2 - u1**2 gives the
equivalent algebraic form used as the independent check:

    (H/f0 - T_EFR*EFR/(4*df)) * PFR/T_PFR >= (p_loss - EFR)**2 / (4*df)

together with v >= 0.

The outer approximation cuts with rows a1*u1 + a2*u2 - v <= 0, ||(a1, a2)|| <= 1,
held as arrays: ``separating_cut`` and ``cut_coefficients`` work elementwise.
"""
from __future__ import annotations

import math

import numpy as np

from .scenario import SystemParams


def rocof_min_inertia(p_loss_mw: float, params: SystemParams) -> float:
    """Least system inertia (MWs) keeping RoCoF within its limit."""
    if p_loss_mw < 0:
        raise ValueError(f"p_loss_mw must be >= 0 (got {p_loss_mw})")
    return p_loss_mw * params.f0_hz / (2.0 * params.rocof_max_hz_per_s)


def nadir_terms(
    h_mws: float, efr_mw: float, pfr_mw: float, p_loss_mw: float, params: SystemParams
) -> tuple[float, float, float]:
    """Cone terms (u1, u2, v) at a point, or elementwise over arrays of points."""
    df = params.delta_f_max_hz
    a = h_mws / params.f0_hz - params.t_efr_s * efr_mw / (4.0 * df)
    u1 = a - pfr_mw / params.t_pfr_s
    u2 = (p_loss_mw - efr_mw) / math.sqrt(df)
    v = a + pfr_mw / params.t_pfr_s
    return u1, u2, v


def nadir_residual(
    h_mws: float, efr_mw: float, pfr_mw: float, p_loss_mw: float, params: SystemParams
) -> float:
    """Signed cone residual ||u|| - v; <= 0 means feasible."""
    u1, u2, v = nadir_terms(h_mws, efr_mw, pfr_mw, p_loss_mw, params)
    return math.hypot(u1, u2) - v


def nadir_feasible(
    h_mws: float, efr_mw: float, pfr_mw: float, p_loss_mw: float, params: SystemParams
) -> bool:
    """Cone membership of the two-row nadir condition (total function)."""
    return nadir_residual(h_mws, efr_mw, pfr_mw, p_loss_mw, params) <= 0.0


def nadir_feasible_product(
    h_mws: float, efr_mw: float, pfr_mw: float, p_loss_mw: float, params: SystemParams
) -> bool:
    """Algebraic product form of the nadir condition, kept independent of
    :func:`nadir_feasible` so the two routes can be checked against each other."""
    df = params.delta_f_max_hz
    a = h_mws / params.f0_hz - params.t_efr_s * efr_mw / (4.0 * df)
    lhs = a * pfr_mw / params.t_pfr_s
    rhs = (p_loss_mw - efr_mw) ** 2 / (4.0 * df)
    v_nonneg = a + pfr_mw / params.t_pfr_s >= 0.0
    return lhs >= rhs and v_nonneg


def cone_norm(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """||(u1, u2)||, elementwise by ``math.hypot``; ``np.hypot`` can differ
    from it in the last bit, which would move cut directions."""
    return np.array(list(map(math.hypot, u1, u2)), dtype=float)


def cut_coefficients(a1: np.ndarray, a2: np.ndarray, params: SystemParams) -> tuple[np.ndarray, ...]:
    """Coefficients on (H, EFR, PFR, p_loss) of the cut rows
    a1*u1 + a2*u2 - v <= 0, elementwise.

    A cut with ||(a1, a2)|| <= 1 linearises the convex map x -> ||u(x)|| - v(x);
    since u and v are linear the cut is homogeneous in the model variables.
    """
    df = params.delta_f_max_hz
    sq = math.sqrt(df)
    te = params.t_efr_s / (4.0 * df)
    c_h = (a1 - 1.0) / params.f0_hz
    c_efr = (1.0 - a1) * te - a2 / sq
    c_pfr = -(a1 + 1.0) / params.t_pfr_s
    c_loss = a2 / sq
    return c_h, c_efr, c_pfr, c_loss


def separating_cut(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut directions (a1, a2) at violating points, elementwise: the unit
    subgradient of ||u||, or (0, 0), the v >= 0 facet, where u vanishes."""
    nrm = cone_norm(u1, u2)
    live = nrm != 0.0
    return (np.divide(u1, nrm, out=np.zeros_like(nrm), where=live),
            np.divide(u2, nrm, out=np.zeros_like(nrm), where=live))
