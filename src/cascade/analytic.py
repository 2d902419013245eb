"""The 16 Bogoliubov transfer functions: the production propagator and the
paper's closed form.

The coupled mode equations split into four independent linear systems of the
generic form

    Y1' =  i a e^{i D1 z} Y2 + i b* e^{i D2 z} Y3
    Y2' = -i a* e^{-i D1 z} Y1 - i c e^{-i D3 z} Y4
    Y3' =  i b e^{-i D2 z} Y1
    Y4' = -i c* e^{i D3 z} Y2

In the rotating frame Y_k = e^{i theta_k z} X_k, theta = (0, -D1, -D2,
D3 - D1), each becomes X' = G X with the constant generator

    X1' =  i a X2 + i b* X3
    X2' = -i a* X1 + i D1 X2 - i c X4
    X3' =  i b X1 + i D2 X3
    X4' = -i c* X2 - i (D3 - D1) X4

so X(z) = exp(G z) X(0).  :func:`transfer_matrix` evaluates the two
exponentials (direct and signal/idler-swapped mapping) by [13/13] Pade
scaling and squaring; it needs no characteristic roots and holds in every
regime, multiple roots included.  This is the production solver.

:func:`full_matrix` is the paper's closed form, kept as an independent
reference.  For distinct characteristic roots lambda_k, Y1 is a sum of four
exponentials exp(alpha_k z) with alpha_k = lambda_k + i(2 D1 + D2 - D3)/4;
the expansion coefficients follow from a 4x4 Vandermonde system in the
alpha_k, and Y2..Y4 are explicit combinations involving the integral kernel

    F(z, g) = (e^{g z} - 1) / g.

Every 1/xi occurrence in the printed combinations has a removable
singularity; it is routed through F-kernel divided differences so xi -> 0
stays finite.  Near-multiple roots make the Vandermonde system
ill-conditioned, in which case MultipleRootsError is raised.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .bogoliubov import BogoliubovMatrix
from .characteristic import QuarticRoots, solve_quartic
from .params import ModelParams, derive

#: estimated relative forward error above which the Vandermonde solve is
#: considered unusable and the ODE oracle must take over
FORWARD_ERROR_LIMIT = 1e-6

_EPS = float(np.finfo(float).eps)


class MultipleRootsError(Exception):
    """The closed-form solution is invalid: characteristic roots coincide
    (or nearly so) and the exponential basis degenerates."""


def f_kernel(z: float, gamma: complex) -> complex:
    """F(z, gamma) = (exp(gamma z) - 1) / gamma, with F(z, 0) = z.

    For |gamma z| < 0.25 the Taylor series z (1 + w/2! + w^2/3! + ...) is
    summed to relative accuracy below 1e-14, which removes the cancellation
    of the direct formula near gamma z = 0.
    """
    w = gamma * z
    if abs(w) < 0.25:
        total = 0j
        term = 1.0 + 0j
        n = 0
        while True:
            total += term / (n + 1)
            n += 1
            term *= w / n
            if abs(term) / (n + 1) < 1e-18:
                break
        return z * total
    return (cmath.exp(w) - 1.0) / gamma


def _f_moment(z: float, gamma: complex, m: int) -> complex:
    """Integral of t^m exp(gamma t) over [0, z] (the m-th moment of the
    F kernel; _f_moment(z, g, 0) == f_kernel(z, g))."""
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
    fk = f_kernel(z, gamma)
    ew = cmath.exp(w)
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


def _branch_no_pump(b: complex, d2: float, z: float, second: bool) -> np.ndarray:
    """Closed form for a = 0: the (Y1, Y3) pair is a two-mode rotation with
    frequency g_b = sqrt(|b|^2 + D2^2/4); (Y2, Y4) stays identically zero
    for both branch initial conditions."""
    gb = (abs(b) ** 2 + d2**2 / 4) ** 0.5
    cos = np.cos(gb * z)
    snc = _sinc(gb * z) * z  # sin(g z)/g, finite at g = 0
    p, q = (0.0, 1.0) if second else (1.0, 0.0)
    y1 = (p * cos - 1j * d2 / 2 * p * snc + 1j * np.conj(b) * q * snc) * cmath.exp(1j * d2 * z / 2)
    y3 = (1j * b * p * snc + q * cos + 1j * d2 / 2 * q * snc) * cmath.exp(-1j * d2 * z / 2)
    return np.array([y1, 0j, y3, 0j])


def _branch_functions(a: complex, b: complex, c: complex,
                      d1: float, d2: float, d3: float,
                      lams: np.ndarray, z: float, second: bool) -> np.ndarray:
    """Evaluate (Y1, Y2, Y3, Y4) at z for one generic system.

    second=False: initial conditions (1, 0, 0, 0);
    second=True:  initial conditions (0, 0, 1, 0).
    """
    if a == 0:
        return _branch_no_pump(b, d2, z, second)

    alpha = np.asarray(lams, dtype=complex) + 1j * (2 * d1 + d2 - d3) / 4
    vand = np.vander(alpha, 4, increasing=True).T
    a2 = abs(a) ** 2
    b2 = abs(b) ** 2
    bc = np.conj(b)
    if second:
        rhs = np.array([0.0, 1j * bc, -bc * d2, 1j * bc * (a2 - b2 - d2**2)],
                       dtype=complex)
    else:
        rhs = np.array([1.0, 0.0, a2 - b2, 1j * (d1 * a2 - d2 * b2)],
                       dtype=complex)
    cond = np.linalg.cond(vand, 1)
    if not np.isfinite(cond) or cond * _EPS > FORWARD_ERROR_LIMIT:
        raise MultipleRootsError(
            f"Vandermonde system too ill-conditioned (cond ~ {cond:.2e}); "
            "roots are effectively multiple, use the ODE oracle")
    coef = np.linalg.solve(vand, rhs)

    delta3 = d2 - d1
    delta4 = 1j * (d2 + d3 - d1)
    xi1 = alpha - 1j * d2
    xi2 = alpha - 1j * d1 + 1j * d3
    e_alpha = np.exp(alpha * z)
    f_xi1 = np.array([f_kernel(z, x) for x in xi1])
    f_xi2 = np.array([f_kernel(z, x) for x in xi2])
    # (F(z, xi2) - F(z, delta4)) / xi1, using xi2 = delta4 + xi1
    f_dd = np.array([_f_div(z, delta4, h) for h in xi1])

    y1 = np.sum(coef * e_alpha)
    s2 = np.sum(coef * (alpha * np.exp(xi1 * z) + b2 * f_xi1))
    s4 = np.sum(coef * (alpha * f_xi2 + b2 * f_dd))
    phase = cmath.exp(1j * delta3 * z)
    if second:
        y2 = phase / (1j * a) * (-1j * bc + s2)
        y3 = 1.0 + 1j * b * np.sum(coef * f_xi1)
        y4 = -np.conj(c) / a * (s4 - 1j * bc * f_kernel(z, delta4))
    else:
        y2 = phase / (1j * a) * s2
        y3 = 1j * b * np.sum(coef * f_xi1)
        y4 = -np.conj(c) / a * s4
    return np.array([y1, y2, y3, y4])


def _check_roots(params: ModelParams, roots: QuarticRoots) -> np.ndarray:
    if params.kappa == 0:
        # the a = 0 closed form does not use the exponential basis
        return np.zeros(4, dtype=complex)
    if roots.near_multiple:
        raise MultipleRootsError(
            f"characteristic roots separated by {roots.min_root_separation:.3e}; "
            "closed-form solution invalid, use the ODE oracle")
    return np.array(roots.roots, dtype=complex)


def solve_branch_one(params: ModelParams, roots: QuarticRoots,
                     z: float) -> tuple[complex, complex, complex, complex]:
    """First-branch functions (U_s, V_i*, K_s, L_i*) at z.

    Parameter mapping a = kappa, b = eta_s, c = eta_i, D1 = delta_tilde,
    D2 = delta_s, D3 = delta_i; initial condition U_s(0) = 1, others 0.
    """
    lams = _check_roots(params, roots)
    y = _branch_functions(params.kappa, params.eta_s, params.eta_i,
                          params.delta_tilde, params.delta_s, params.delta_i,
                          lams, z, second=False)
    return complex(y[0]), complex(y[1]), complex(y[2]), complex(y[3])


def solve_branch_two(params: ModelParams, roots: QuarticRoots,
                     z: float) -> tuple[complex, complex, complex, complex]:
    """Second-branch functions (W_s, Q_i*, M_s, N_i*) at z; initial
    condition M_s(0) = 1, others 0."""
    lams = _check_roots(params, roots)
    y = _branch_functions(params.kappa, params.eta_s, params.eta_i,
                          params.delta_tilde, params.delta_s, params.delta_i,
                          lams, z, second=True)
    return complex(y[0]), complex(y[1]), complex(y[2]), complex(y[3])


def full_matrix(params: ModelParams, z: float) -> BogoliubovMatrix:
    """All 16 Bogoliubov functions at z from the closed-form solution.

    The two branch systems are solved twice: once with the direct parameter
    mapping and once with the signal/idler roles swapped.  The swapped
    system's characteristic roots are the complex conjugates of the direct
    ones, so the quartic is solved only once.
    """
    roots = solve_quartic(derive(params))
    a = params.kappa
    lams = _check_roots(params, roots)
    lams_sw = np.conj(lams)

    def run(b, c, d2, d3, lam_set, second):
        return _branch_functions(a, b, c, params.delta_tilde, d2, d3,
                                 lam_set, z, second)

    es, ei, ds, di = params.eta_s, params.eta_i, params.delta_s, params.delta_i
    return BogoliubovMatrix.from_branches(
        z,
        run(es, ei, ds, di, lams, False), run(es, ei, ds, di, lams, True),
        run(ei, es, di, ds, lams_sw, False), run(ei, es, di, ds, lams_sw, True))


#: [13/13] Pade coefficients b_0..b_13 and the largest 1-norm for which that
#: approximant of exp is accurate to double precision (Higham, SIAM J. Matrix
#: Anal. Appl. 26(4), 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152

#: the Pade approximant is (V - U)^-1 (V + U) with U odd and V even in A;
#: rows: the coefficients of (I, A^2, A^4, A^6) in the two sums that A^6
#: multiplies, then in the two sums added to those products
_PADE13_TERMS = np.array([
    [0.0, _PADE13[9], _PADE13[11], _PADE13[13]],
    [0.0, _PADE13[8], _PADE13[10], _PADE13[12]],
    [_PADE13[1], _PADE13[3], _PADE13[5], _PADE13[7]],
    [_PADE13[0], _PADE13[2], _PADE13[4], _PADE13[6]],
])


def _expm(g: np.ndarray) -> np.ndarray:
    """exp of each matrix in a stack (k, n, n), by [13/13] Pade scaling and
    squaring with one scaling for the whole stack."""
    norm = float(np.abs(g).sum(axis=-2).max())
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a = g * 0.5**s
    powers = np.empty((4,) + g.shape, dtype=complex)
    powers[0] = np.eye(g.shape[-1])
    np.matmul(a, a, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    terms = (_PADE13_TERMS @ powers.reshape(4, -1)).reshape(powers.shape)
    u_inner, v = powers[3] @ terms[:2] + terms[2:]
    u = a @ u_inner
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _generator(a: complex, b: complex, c: complex,
               d1: float, d2: float, d3: float) -> list:
    return [[0, 1j * a, 1j * b.conjugate(), 0],
            [-1j * a.conjugate(), 1j * d1, 0, -1j * c],
            [1j * b, 0, 1j * d2, 0],
            [0, -1j * c.conjugate(), 0, -1j * (d3 - d1)]]


def transfer_matrix(params: ModelParams, z: float) -> BogoliubovMatrix:
    """All 16 Bogoliubov functions at z from the rotating-frame matrix
    exponential, valid in every regime.

    Raises OverflowError when an entry exceeds double precision.
    """
    a, es, ei = params.kappa, params.eta_s, params.eta_i
    d1, ds, di = params.delta_tilde, params.delta_s, params.delta_i
    g = np.array([_generator(a, es, ei, d1, ds, di),
                  _generator(a, ei, es, d1, di, ds)], dtype=complex)
    theta = np.array([[0.0, -d1, -ds, di - d1], [0.0, -d1, -di, ds - d1]])
    # columns e1 and e3 are the two initial conditions of each branch pair
    y = np.exp(1j * z * theta)[:, :, None] * _expm(g * z)[:, :, ::2]
    if not np.isfinite(y).all():
        raise OverflowError("transfer matrix entries exceed double precision")
    (direct_one, direct_two), (swapped_one, swapped_two) = \
        y.transpose(0, 2, 1).tolist()
    return BogoliubovMatrix.from_branches(z, direct_one, direct_two,
                                          swapped_one, swapped_two)
