"""Direct numerical integration of the Heisenberg equations of the modes.

This module is the independent ground truth for the production propagator
and for the paper's closed form.  The mode vector v = (alpha_s, alpha_i+,
beta_s, beta_i+) obeys v' = A(z) v, with the oscillatory phase factors
exp(i Delta z) of A evaluated exactly at every stage point (no
rotating-frame transformation), so the transfer matrix T with v(z) =
T v(0) is the solution of T' = A(z) T from T(0) = I.  Its 16 entries are
integrated as one state with an adaptive high-order embedded Runge-Kutta
scheme.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .bogoliubov import BogoliubovMatrix
from .params import ModelParams, is_degenerate

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
DEFAULT_GRID_POINTS = 512


class StepSizeUnderflow(ArithmeticError):
    """The adaptive step controller stalled (step size below machine
    resolution), which signals pathological input magnitudes."""


@dataclass(frozen=True)
class Trajectory:
    """Bogoliubov matrices on an increasing z grid starting at 0, plus a
    conservative a-posteriori error estimate for the entries."""

    z_grid: tuple
    matrices: tuple
    estimated_error: float


def _rhs(params: ModelParams):
    """T' = A(z) T on the 16 entries of T, row by row: A(z) is the system
    of :mod:`cascade.analytic` under the direct mapping (a = kappa,
    b = eta_s, c = eta_i, D1 = delta_tilde, D2 = delta_s, D3 = delta_i)."""
    a = params.kappa
    es, ei = params.eta_s, params.eta_i
    dt, ds, di = params.delta_tilde, params.delta_s, params.delta_i
    ac, esc, eic = np.conj(a), np.conj(es), np.conj(ei)

    def rhs(z, y):
        e1 = cmath.exp(1j * dt * z)
        e2 = cmath.exp(1j * ds * z)
        e3 = cmath.exp(1j * di * z)
        c1, c2, c3 = e1.conjugate(), e2.conjugate(), e3.conjugate()
        a_z = np.array([[0, 1j * a * e1, 1j * esc * e2, 0],
                        [-1j * ac * c1, 0, 0, -1j * ei * c3],
                        [1j * es * c2, 0, 0, 0],
                        [0, -1j * eic * e3, 0, 0]])
        return (a_z @ y.reshape(4, 4)).ravel()

    return rhs


def integrate(params: ModelParams, z_grid=None,
              rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> Trajectory:
    """Integrate T' = A(z) T from T(0) = I, its 16 entries as one state,
    and return the Bogoliubov matrices on the requested grid.

    The grid must be finite, strictly increasing, start at 0 and stay
    within [0, length]; by default 512 uniform points on [0, length].
    """
    L = params.length
    if z_grid is None:
        z_grid = np.linspace(0.0, L, DEFAULT_GRID_POINTS) if L > 0 else np.array([0.0])
    z_grid = np.asarray(z_grid, dtype=float)
    if not np.isfinite(z_grid).all():
        raise ValueError("z grid must be finite")
    if z_grid[0] != 0.0:
        raise ValueError("z grid must start at 0")
    if np.any(np.diff(z_grid) <= 0) and len(z_grid) > 1:
        raise ValueError("z grid must be strictly increasing")
    if z_grid[-1] > L * (1 + 1e-12) + 1e-300:
        raise ValueError("z grid exceeds the crystal length")

    degenerate = is_degenerate(params)

    if z_grid[-1] == 0.0:
        mats = tuple(BogoliubovMatrix.identity(0.0, degenerate) for _ in z_grid)
        return Trajectory(z_grid=tuple(z_grid), matrices=mats, estimated_error=0.0)

    # imported here so that importing the package does not load scipy
    from scipy.integrate import solve_ivp

    # with no events the status is 0, or -1 where the steps stall; an
    # entry beyond double precision stalls them without numpy warnings
    with np.errstate(all="ignore"):
        sol = solve_ivp(_rhs(params), (0.0, float(z_grid[-1])),
                        np.identity(4, dtype=complex).ravel(),
                        method="DOP853", t_eval=z_grid, rtol=rtol, atol=atol)
    if sol.status != 0:
        raise StepSizeUnderflow(sol.message)

    mats = tuple(BogoliubovMatrix(float(z_grid[j]), sol.y[:, j].reshape(4, 4), degenerate)
                 for j in range(len(z_grid)))
    peak = max(m.max_abs() for m in mats)
    resid = max(max(canonical_residuals(m)) for m in mats)
    est = max(resid, rtol * max(1.0, peak))
    return Trajectory(z_grid=tuple(float(t) for t in z_grid), matrices=mats,
                      estimated_error=float(est))


def matrix_at(params: ModelParams, z: float,
              rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> BogoliubovMatrix:
    """Single-point convenience wrapper around :func:`integrate`."""
    if z == 0.0:
        return BogoliubovMatrix.identity(0.0, is_degenerate(params))
    grid = np.array([0.0, z])
    return integrate(params, grid, rtol=rtol, atol=atol).matrices[-1]


#: the commutator matrix [v_j, v_k+] of the mode vector (alpha_s, alpha_i+,
#: beta_s, beta_i+)
_J = np.diag([1.0, -1.0, 1.0, -1.0])


def canonical_residuals(m: BogoliubovMatrix) -> list:
    """Absolute violations of the canonical-transformation identities: the
    16 entries of |T J T^H - J|, row by row.

    The Bogoliubov map preserves bosonic commutators, [v_j, v_k+] = J_jk
    with J = diag(1, -1, 1, -1) on v = (alpha_s, alpha_i+, beta_s,
    beta_i+), so T J T^H = J.  The diagonal holds the four normalizations,
    entry 0 that of alpha_s,

        |U_s|^2 + |W_s|^2 - |V_s|^2 - |Q_s|^2 = 1,

    and the off-diagonal entries the six cross relations (each twice, as
    the matrix is Hermitian), for example entry (0, 1):

        U_s V_i + W_s Q_i = U_i V_s + W_i Q_s.
    """
    t = m.t
    return np.abs(t @ _J @ t.conj().T - _J).ravel().tolist()


def canonical_residuals_scaled(m: BogoliubovMatrix) -> list:
    """Canonical-identity violations normalized by the magnitude of the
    terms entering each identity (floored at 1): |T J T^H - J| divided
    entry by entry by max(1, |T| |T|^T + I).

    The absolute violations grow with the squared matrix entries, i.e. like
    exp(2 Gamma) in the high-gain regime, so fixed absolute bounds are
    meaningless there; the scaled residuals are the quantity that stays at
    the solver accuracy level for any gain.
    """
    a = np.abs(m.t)
    scale = np.maximum(1.0, a @ a.T + np.eye(4))
    return np.divide(canonical_residuals(m), scale.ravel()).tolist()
