"""The paper's closed-form Bogoliubov solution, kept as an independent
reference for the production propagator :func:`cascade.analytic.transfer_matrix`.
No command or scan calls it, and ``import cascade`` does not load it: the
package re-exports :func:`full_matrix`, :func:`f_kernel` and
:class:`MultipleRootsError` on first use.

Each of the four coupled mode systems of :mod:`cascade.analytic` is solved
in closed form.  For distinct characteristic roots lambda_k, Y1 is a sum of
four exponentials exp(alpha_k z) with alpha_k = lambda_k + i(2 D1 + D2 -
D3)/4; the expansion coefficients follow from one 4x4 Vandermonde system in
the alpha_k with a right-hand side per initial condition, and Y2..Y4 are
explicit combinations involving the integral kernel

    F(z, g) = (e^{g z} - 1) / g.

Every 1/xi occurrence in the printed combinations has a removable
singularity; it is routed through F-kernel divided differences so xi -> 0
stays finite.  Near-multiple roots make the Vandermonde system
ill-conditioned, in which case MultipleRootsError is raised.
"""

from __future__ import annotations

import cmath

import numpy as np

from .bogoliubov import _SWAP, BogoliubovMatrix
from .characteristic import QuarticRoots, solve_quartic
from .params import ModelParams, derive, is_degenerate

#: estimated relative forward error above which the Vandermonde solve is
#: considered unusable (MultipleRootsError)
FORWARD_ERROR_LIMIT = 1e-6

_EPS = float(np.finfo(float).eps)


class MultipleRootsError(Exception):
    """The closed-form solution is invalid: characteristic roots coincide
    (or nearly so) and the exponential basis degenerates."""


def f_kernel(z: float, gamma: complex) -> complex:
    """F(z, gamma) = (exp(gamma z) - 1) / gamma, with F(z, 0) = z: the
    moment :func:`_f_moment` of order 0."""
    return _f_moment(z, gamma, 0)


def _f_moment(z: float, gamma: complex, m: int) -> complex:
    """Integral of t^m exp(gamma t) over [0, z] (the m-th moment of the
    F kernel).

    For |gamma z| < 0.25 its Taylor series in gamma z is summed to relative
    accuracy below 1e-14, which removes the cancellation of the direct
    formula near gamma z = 0.
    """
    w = gamma * z
    if abs(w) < 0.25:
        total = 0j
        term = 1.0 + 0j
        n = 0
        while True:
            total += term / (m + n + 1)
            n += 1
            term *= w / n
            if abs(term) / (m + n + 1) < 1e-18:
                break
        return z ** (m + 1) * total
    ew = cmath.exp(w)
    fk = (ew - 1.0) / gamma
    for k in range(1, m + 1):
        fk = (z**k * ew - k * fk) / gamma
    return fk


def _f_div(z: float, base: complex, h: complex) -> complex:
    """Divided difference (F(z, base + h) - F(z, base)) / h.

    Direct evaluation cancels catastrophically for |h z| << 1, so a Taylor
    expansion in h around base is used there.
    """
    if abs(h * z) < 1e-3:
        return (_f_moment(z, base, 1)
                + h / 2 * _f_moment(z, base, 2)
                + h**2 / 6 * _f_moment(z, base, 3)
                + h**3 / 24 * _f_moment(z, base, 4)
                + h**4 / 120 * _f_moment(z, base, 5))
    return (f_kernel(z, base + h) - f_kernel(z, base)) / h


def _sinc(x: float) -> float:
    return 1.0 if x == 0.0 else float(np.sin(x) / x)


def _branch_no_pump(b: complex, d2: float, z: float) -> np.ndarray:
    """Closed form for a = 0: the (Y1, Y3) pair is a two-mode rotation with
    frequency g_b = sqrt(|b|^2 + D2^2/4); (Y2, Y4) stays identically zero.
    Columns as for :func:`_branch_functions`."""
    gb = (abs(b) ** 2 + d2**2 / 4) ** 0.5
    cos = np.cos(gb * z)
    snc = _sinc(gb * z) * z  # sin(g z)/g, finite at g = 0
    y1 = np.array([cos - 1j * d2 / 2 * snc, 1j * np.conj(b) * snc]) * cmath.exp(1j * d2 * z / 2)
    y3 = np.array([1j * b * snc, cos + 1j * d2 / 2 * snc]) * cmath.exp(-1j * d2 * z / 2)
    return np.array([y1, [0j, 0j], y3, [0j, 0j]])


def _branch_functions(a: complex, b: complex, c: complex,
                      d1: float, d2: float, d3: float,
                      lams: np.ndarray, z: float) -> np.ndarray:
    """(Y1, Y2, Y3, Y4) at z of one generic system as a (4, 2) array: its
    columns are the solutions from (1, 0, 0, 0) and from (0, 0, 1, 0)."""
    if a == 0:
        return _branch_no_pump(b, d2, z)

    alpha = np.asarray(lams, dtype=complex) + 1j * (2 * d1 + d2 - d3) / 4
    vand = np.vander(alpha, 4, increasing=True).T
    a2 = abs(a) ** 2
    b2 = abs(b) ** 2
    bc = np.conj(b)
    # Y1 and its first three derivatives at z = 0, one column per solution
    rhs = np.array([[1.0, 0.0],
                    [0.0, 1j * bc],
                    [a2 - b2, -bc * d2],
                    [1j * (d1 * a2 - d2 * b2), 1j * bc * (a2 - b2 - d2**2)]],
                   dtype=complex)
    cond = np.linalg.cond(vand, 1)
    if not np.isfinite(cond) or cond * _EPS > FORWARD_ERROR_LIMIT:
        raise MultipleRootsError(
            f"Vandermonde system too ill-conditioned (cond ~ {cond:.2e}); "
            "roots are effectively multiple; use transfer_matrix or the "
            "ODE oracle")
    # one row per solution, so that np.sum adds each row as it adds a vector
    coef = np.linalg.solve(vand, rhs).T.copy()

    delta3 = d2 - d1
    delta4 = 1j * (d2 + d3 - d1)
    xi1 = alpha - 1j * d2
    xi2 = alpha - 1j * d1 + 1j * d3
    f_xi1 = np.array([f_kernel(z, x) for x in xi1])
    f_xi2 = np.array([f_kernel(z, x) for x in xi2])
    # (F(z, xi2) - F(z, delta4)) / xi1, using xi2 = delta4 + xi1
    f_dd = np.array([_f_div(z, delta4, h) for h in xi1])

    def expand(x):
        return np.sum(coef * x, axis=-1)

    # the second solution starts from Y3(0) = 1, which adds the terms in bc
    y1 = expand(np.exp(alpha * z))
    y2 = cmath.exp(1j * delta3 * z) / (1j * a) * (
        expand(alpha * np.exp(xi1 * z) + b2 * f_xi1) - [0, 1j * bc])
    y3 = [0, 1] + 1j * b * expand(f_xi1)
    y4 = -np.conj(c) / a * (expand(alpha * f_xi2 + b2 * f_dd)
                            - [0, 1j * bc * f_kernel(z, delta4)])
    return np.array([y1, y2, y3, y4])


def _check_roots(params: ModelParams, roots: QuarticRoots) -> np.ndarray:
    if params.kappa == 0:
        # the a = 0 closed form does not use the exponential basis
        return np.zeros(4, dtype=complex)
    if roots.near_multiple:
        raise MultipleRootsError(
            f"characteristic roots separated by {roots.min_root_separation:.3e}; "
            "closed-form solution invalid; use transfer_matrix or the ODE "
            "oracle")
    return np.array(roots.roots, dtype=complex)


def from_branches(z: float, branches, degenerate: bool = False) -> BogoliubovMatrix:
    """Assemble T from the solutions (Y1, Y2, Y3, Y4) of the branch
    systems, stacked as a (2, 4, 2) array: the direct parameter mapping
    and the signal/idler-swapped one, each with the solutions started
    from (1, 0, 0, 0) and from (0, 0, 1, 0) as its two columns.  The
    direct pair is columns 0 and 2 of T; the swapped pair, conjugated and
    with its signal and idler rows exchanged, is columns 1 and 3."""
    direct, swapped = np.asarray(branches)
    t = np.empty((4, 4), dtype=complex)
    t[:, ::2] = direct
    t[:, 1::2] = swapped.conj()[_SWAP]
    return BogoliubovMatrix(z, t, degenerate)


def full_matrix(params: ModelParams, z: float) -> BogoliubovMatrix:
    """All 16 Bogoliubov functions at z from the closed-form solution.

    Each parameter mapping is solved once, for both of its initial
    conditions: the direct one (a = kappa, b = eta_s, c = eta_i,
    D1 = delta_tilde, D2 = delta_s, D3 = delta_i) gives columns 0 and 2 of T,
    (U_s, V_i*, K_s, L_i*) from U_s(0) = 1 and (W_s, Q_i*, M_s, N_i*) from
    M_s(0) = 1, and the signal/idler-swapped one columns 1 and 3.  The
    swapped system's characteristic roots are the complex conjugates of the
    direct ones, so the quartic is solved only once.
    """
    roots = solve_quartic(derive(params))
    lams = _check_roots(params, roots)
    a, dt = params.kappa, params.delta_tilde
    es, ei, ds, di = params.eta_s, params.eta_i, params.delta_s, params.delta_i
    return from_branches(z, [
        _branch_functions(a, es, ei, dt, ds, di, lams, z),
        _branch_functions(a, ei, es, dt, di, ds, np.conj(lams), z)],
        is_degenerate(params))
