"""Direct numerical integration of the Bogoliubov-function mode equations.

This module is the independent ground truth for the production propagator
and for the paper's closed form.  It integrates a literal
transcription of the four coupled linear systems, oscillatory phase factors
exp(i Delta z) evaluated exactly at every stage point (no rotating-frame
transformation), with an adaptive high-order embedded Runge-Kutta scheme.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .bogoliubov import BogoliubovMatrix
from .params import ModelParams

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
DEFAULT_GRID_POINTS = 512


class StepSizeUnderflow(Exception):
    """The adaptive step controller stalled (step size below machine
    resolution), which signals pathological input magnitudes."""


@dataclass(frozen=True)
class Trajectory:
    """Bogoliubov matrices on an increasing z grid starting at 0, plus a
    conservative a-posteriori error estimate for the entries."""

    z_grid: tuple
    matrices: tuple
    estimated_error: float

    def to_json_lines(self) -> str:
        """One JSON object per grid point, in grid order."""
        import json

        return "\n".join(json.dumps(m.to_dict()) for m in self.matrices)


def _rhs(params: ModelParams):
    a = params.kappa
    es, ei = params.eta_s, params.eta_i
    dt, ds, di = params.delta_tilde, params.delta_s, params.delta_i
    ac, esc, eic = np.conj(a), np.conj(es), np.conj(ei)

    def rhs(z, y):
        e1 = cmath.exp(1j * dt * z)
        e2 = cmath.exp(1j * ds * z)
        e3 = cmath.exp(1j * di * z)
        c1, c2, c3 = e1.conjugate(), e2.conjugate(), e3.conjugate()
        out = np.empty(16, dtype=complex)
        # systems 1, 2: direct mapping (b = eta_s, c = eta_i)
        for k in (0, 4):
            y1, y2, y3, y4 = y[k], y[k + 1], y[k + 2], y[k + 3]
            out[k] = 1j * a * e1 * y2 + 1j * esc * e2 * y3
            out[k + 1] = -1j * ac * c1 * y1 - 1j * ei * c3 * y4
            out[k + 2] = 1j * es * c2 * y1
            out[k + 3] = -1j * eic * e3 * y2
        # systems 3, 4: swapped roles (b = eta_i, c = eta_s)
        for k in (8, 12):
            y1, y2, y3, y4 = y[k], y[k + 1], y[k + 2], y[k + 3]
            out[k] = 1j * a * e1 * y2 + 1j * eic * e3 * y3
            out[k + 1] = -1j * ac * c1 * y1 - 1j * es * c2 * y4
            out[k + 2] = 1j * ei * c3 * y1
            out[k + 3] = -1j * esc * e2 * y2
        return out

    return rhs


def integrate(params: ModelParams, z_grid=None,
              rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> Trajectory:
    """Integrate all four 4-dimensional systems (stacked into one
    16-dimensional complex state so step-size decisions are shared) and
    return the Bogoliubov matrices on the requested grid.

    The grid must be strictly increasing, start at 0 and stay within
    [0, length]; by default 512 uniform points on [0, length].
    """
    L = params.length
    if z_grid is None:
        z_grid = np.linspace(0.0, L, DEFAULT_GRID_POINTS) if L > 0 else np.array([0.0])
    z_grid = np.asarray(z_grid, dtype=float)
    if z_grid[0] != 0.0:
        raise ValueError("z grid must start at 0")
    if np.any(np.diff(z_grid) <= 0) and len(z_grid) > 1:
        raise ValueError("z grid must be strictly increasing")
    if z_grid[-1] > L * (1 + 1e-12) + 1e-300:
        raise ValueError("z grid exceeds the crystal length")

    y0 = np.zeros(16, dtype=complex)
    y0[0] = y0[6] = y0[8] = y0[14] = 1.0

    if z_grid[-1] == 0.0:
        mats = tuple(BogoliubovMatrix.identity(0.0) for _ in z_grid)
        return Trajectory(z_grid=tuple(z_grid), matrices=mats, estimated_error=0.0)

    # imported here so that importing the package does not load scipy
    from scipy.integrate import solve_ivp

    sol = solve_ivp(_rhs(params), (0.0, float(z_grid[-1])), y0,
                    method="DOP853", t_eval=z_grid, rtol=rtol, atol=atol)
    if sol.status == -1:
        raise StepSizeUnderflow(sol.message)
    if sol.status != 0:
        raise RuntimeError(f"integration failed: {sol.message}")

    # the stacked state holds the four systems' (Y1, Y2, Y3, Y4) in turn
    mats = tuple(BogoliubovMatrix.from_branches(float(z_grid[j]),
                                                *sol.y[:, j].reshape(4, 4))
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
        return BogoliubovMatrix.identity(0.0)
    grid = np.array([0.0, z])
    return integrate(params, grid, rtol=rtol, atol=atol).matrices[-1]


def canonical_residuals(m: BogoliubovMatrix) -> list:
    """Absolute violations of the canonical-transformation identities.

    The Bogoliubov map preserves bosonic commutators, which pins two
    normalizations per branch,

        |U|^2 + |W|^2 - |V|^2 - |Q|^2 = 1
        |K|^2 + |M|^2 - |L|^2 - |N|^2 = 1,

    and four cross relations (with their index-swapped twins):

        U* K + W* M = V* L + Q* N
        U_s V_i + W_s Q_i = U_i V_s + W_i Q_s
        K_s L_i + M_s N_i = K_i L_s + M_i N_s
        U_s L_i + W_s N_i = K_i V_s + M_i Q_s
    """
    e = m.entries()
    out = []
    for s, i in (("s", "i"), ("i", "s")):
        U, V, W, Q = e[f"U_{s}"], e[f"V_{s}"], e[f"W_{s}"], e[f"Q_{s}"]
        K, L, M, N = e[f"K_{s}"], e[f"L_{s}"], e[f"M_{s}"], e[f"N_{s}"]
        Ui, Vi, Wi, Qi = e[f"U_{i}"], e[f"V_{i}"], e[f"W_{i}"], e[f"Q_{i}"]
        Ki, Li, Mi, Ni = e[f"K_{i}"], e[f"L_{i}"], e[f"M_{i}"], e[f"N_{i}"]
        out.append(abs(abs(U)**2 + abs(W)**2 - abs(V)**2 - abs(Q)**2 - 1.0))
        out.append(abs(abs(K)**2 + abs(M)**2 - abs(L)**2 - abs(N)**2 - 1.0))
        out.append(abs(np.conj(U) * K + np.conj(W) * M
                       - np.conj(V) * L - np.conj(Q) * N))
        out.append(abs(U * Vi + W * Qi - Ui * V - Wi * Q))
        out.append(abs(K * Li + M * Ni - Ki * L - Mi * N))
        out.append(abs(U * Li + W * Ni - Ki * V - Mi * Q))
    return out


def canonical_residuals_scaled(m: BogoliubovMatrix) -> list:
    """Canonical-identity violations normalized by the magnitude of the
    terms entering each identity (floored at 1).

    The absolute violations grow with the squared matrix entries, i.e. like
    exp(2 Gamma) in the high-gain regime, so fixed absolute bounds are
    meaningless there; the scaled residuals are the quantity that stays at
    the solver accuracy level for any gain.
    """
    e = m.entries()
    raw = canonical_residuals(m)
    scales = []
    for s, i in (("s", "i"), ("i", "s")):
        U, V, W, Q = e[f"U_{s}"], e[f"V_{s}"], e[f"W_{s}"], e[f"Q_{s}"]
        K, L, M, N = e[f"K_{s}"], e[f"L_{s}"], e[f"M_{s}"], e[f"N_{s}"]
        Ui, Vi, Wi, Qi = e[f"U_{i}"], e[f"V_{i}"], e[f"W_{i}"], e[f"Q_{i}"]
        Ki, Li, Mi, Ni = e[f"K_{i}"], e[f"L_{i}"], e[f"M_{i}"], e[f"N_{i}"]
        scales.append(abs(U)**2 + abs(W)**2 + abs(V)**2 + abs(Q)**2 + 1.0)
        scales.append(abs(K)**2 + abs(M)**2 + abs(L)**2 + abs(N)**2 + 1.0)
        scales.append(abs(U * K) + abs(W * M) + abs(V * L) + abs(Q * N))
        scales.append(abs(U * Vi) + abs(W * Qi) + abs(Ui * V) + abs(Wi * Q))
        scales.append(abs(K * Li) + abs(M * Ni) + abs(Ki * L) + abs(Mi * N))
        scales.append(abs(U * Li) + abs(W * Ni) + abs(Ki * V) + abs(Mi * Q))
    return [r / max(1.0, s) for r, s in zip(raw, scales)]
