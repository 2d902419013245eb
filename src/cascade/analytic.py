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

so X(z) = exp(G z) X(0).  Under the direct mapping (a = kappa, b = eta_s,
c = eta_i, D1 = delta_tilde, D2 = delta_s, D3 = delta_i) Y is the mode
vector (alpha_s, alpha_i+, beta_s, beta_i+), so one exponential gives all of
T = diag(e^{i theta z}) exp(G z); the signal/idler-swapped generator,
P conj(G) P + i D1 I with P exchanging entries 0 <-> 1 and 2 <-> 3, adds
nothing.  :func:`transfer_matrix` evaluates exp(G z) by [13/13] Pade
scaling and squaring; it needs no characteristic roots and holds in every
regime, multiple roots included.  This is the production solver.  Every
product in it is one real matmul: the left factor's rows, viewed as reals,
times a real operand built from the right factor by a constant table.

At a degenerate point (eta_i = eta_s and delta_i = delta_s exactly) alpha_i
= alpha_s and beta_i = beta_s, and X = G z - i (delta_tilde z / 2) I equals
P conj(X) P: its rows 1 and 3 are rows 0 and 2 conjugated with each column
pair exchanged.  exp(X) is then taken on rows 0 and 2 alone (the rows
form), with products in which an entry that vanishes in every factor stays
exactly 0, so a mode that does not squeeze stays exactly unsqueezed, and
T's idler rows are the exact conjugates of its signal rows.  The other
points, which have no such symmetry, take the same products on all four
rows of G z.

:func:`full_matrix` is the paper's closed form, kept as an independent
reference.  For distinct characteristic roots lambda_k, Y1 is a sum of four
exponentials exp(alpha_k z) with alpha_k = lambda_k + i(2 D1 + D2 - D3)/4;
the expansion coefficients follow from one 4x4 Vandermonde system in the
alpha_k with a right-hand side per initial condition, and Y2..Y4 are
explicit combinations involving the integral kernel

    F(z, g) = (e^{g z} - 1) / g.

Every 1/xi occurrence in the printed combinations has a removable
singularity; it is routed through F-kernel divided differences so xi -> 0
stays finite.  Near-multiple roots make the Vandermonde system
ill-conditioned, in which case MultipleRootsError is raised.
"""

from __future__ import annotations

import cmath
from dataclasses import fields

import numpy as np

from .bogoliubov import BogoliubovMatrix
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
    return BogoliubovMatrix.from_branches(z, [
        _branch_functions(a, es, ei, dt, ds, di, lams, z),
        _branch_functions(a, ei, es, dt, di, ds, np.conj(lams), z)],
        is_degenerate(params))


#: [13/13] Pade coefficients b_0..b_13 and the largest 1-norm for which that
#: approximant of exp is accurate to double precision (Higham, SIAM J. Matrix
#: Anal. Appl. 26(4), 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152

#: the Pade approximant is (V - U)^-1 (V + U) with U odd and V even in A;
#: rows: the coefficients of (A^2, A^4, A^6) in the two sums that A^6
#: multiplies, then in the two sums added to those products
_PADE13_TERMS = np.array([
    [_PADE13[9], _PADE13[11], _PADE13[13]],
    [_PADE13[8], _PADE13[10], _PADE13[12]],
    [_PADE13[3], _PADE13[5], _PADE13[7]],
    [_PADE13[2], _PADE13[4], _PADE13[6]],
])
#: the identity terms of the four sums, one 4x4 block each, as 4 x 8 reals
_PADE13_IDENTITY = np.multiply.outer((0.0, 0.0, _PADE13[1], _PADE13[0]),
                                     np.identity(4))[:, None].astype(complex).view(float)

# The product form.  A complex 4x4 stack Y viewed as (m, 4, 8) reals is
# multiplied from the left by one real matmul, X Y = X @ right(Y): right(Y)
# is the real 8x8 matrix in which each complex entry y becomes the block
# [[Re y, Im y], [-Im y, Re y]], and it is linear in Y, one np.dot against a
# constant table of 0 and +-1, so each of its entries is one entry of Y,
# negated or not.
#
# The rows form of a degenerate point.  There X = G z - i h I, h =
# delta_tilde z / 2, equals P conj(X) P, P exchanging entries 0 <-> 1 and
# 2 <-> 3: rows 1 and 3 of X are rows 0 and 2 conjugated, with the columns of
# each pair (0, 1), (2, 3) exchanged.  Products, sums with real coefficients
# and inverses keep that symmetry, so exp(X) is taken on rows 0 and 2 alone,
# viewed as 2 x 8 reals: the rows of X Y are rows(X) @ right(Y), with right(Y)
# read from the rows of Y.  An entry that vanishes in every factor (the
# creation entries of a mode that does not squeeze) is then a sum of exact
# zeros, and T's idler rows are the exact conjugates of its signal rows.

#: the exchange P
_P = [1, 0, 3, 2]
#: the full matrices of the rows forms whose 16 reals are the unit vectors
_UNITS_FULL = np.zeros((16, 4, 4), dtype=complex)
_UNITS_FULL[:, ::2] = np.identity(16).view(complex).reshape(16, 2, 4)
_UNITS_FULL[:, 1::2] = _UNITS_FULL[:, ::2, _P].conj()
#: rows form, as 16 reals -> its full matrix, as 32 reals
_FULL = _UNITS_FULL.view(float).reshape(16, 32)
#: rows forms of V and U side by side, as 32 reals -> the full matrices
#: V - U and V + U, as 2 x 32 reals
_PADE_TO_FULL = np.block([[_FULL, _FULL], [-_FULL, _FULL]])
#: the full matrices whose 32 reals are the unit vectors
_UNITS = np.identity(32).view(complex).reshape(32, 4, 4)
#: full matrix Y, as 32 reals -> right(Y), flat
_RIGHT_FULL = (np.kron(_UNITS.real, np.identity(2))
               + np.kron(_UNITS.imag, [[0.0, 1.0], [-1.0, 0.0]])).reshape(32, 64)
#: rows form of Y, as 16 reals -> right(Y), flat
_RIGHT_ROWS = _FULL @ _RIGHT_FULL


def _full(rows: np.ndarray) -> np.ndarray:
    """The complex matrices (..., 4, 4) of rows forms (..., 2, 4): rows 0 and
    2 as given, rows 1 and 3 their conjugates with each column pair
    exchanged."""
    lead = rows.shape[:-2]
    flat = np.dot(rows.view(float).reshape(lead + (16,)), _FULL)
    return flat.view(complex).reshape(lead + (4, 4))


def _expm(g: np.ndarray) -> np.ndarray:
    """exp of each matrix in a stack, by [13/13] Pade scaling and squaring
    with one scaling exponent per matrix, so that a small matrix is not
    overscaled by a large stack-mate (Al-Mohy & Higham, SIAM J. Matrix Anal.
    Appl. 31(3), 2009).  Every product is one matrix's, and the extra
    squarings run only on the matrices that need them, so no result depends
    on the rest of the stack.  The stack holds full complex matrices
    (m, 4, 4), or the rows forms (m, 2, 4) of degenerate points (above),
    which come back as the rows forms of their exponentials.  Both are taken
    in the one product form, real rows @ right(Y), except for the one linear
    solve, which runs on the full complex matrices; the scaling reads the
    full matrices' 1-norms.  An entry beyond double precision comes back as
    inf or NaN, with numpy warnings unless the caller is under
    ``np.errstate``."""
    m = g.shape[0]
    rows = g.shape[-2] == 2
    col = np.abs(g).sum(axis=-2, keepdims=True)
    if rows:  # column j of the full matrix holds rows 0 and 2 at j and P j
        col = col + col[..., _P]
    norm = col.max(axis=-1, keepdims=True)
    table, identity = ((_RIGHT_ROWS, _PADE13_IDENTITY[..., ::2, :]) if rows
                       else (_RIGHT_FULL, _PADE13_IDENTITY))

    def right(y):  # right(Y) (n, 8, 8) of a stack Y (n, 2 or 4, 8) of reals
        return np.dot(y.reshape(len(y), -1), table).reshape(-1, 8, 8)

    # s: the smallest s >= 0 with |g|_1 / 2^s < theta, shaped (m, 1, 1);
    # x = mant 2^s exactly, so mant / x = 2^-s
    x = np.maximum(norm / _THETA13, 0.5)
    mant, s = np.frexp(x)
    a = (g * (mant / x)).view(float)
    powers = np.empty((3,) + a.shape)
    right_a = right(a)
    np.matmul(a, right_a, out=powers[0])
    right_a2 = right(powers[0])
    np.matmul(powers[0], right_a2, out=powers[1])
    np.matmul(powers[1], right_a2, out=powers[2])
    # the sums (u2, v2, u1, v1), one 2-D product over every entry; the
    # first two are multiplied by A^6, with which they commute
    terms = (_PADE13_TERMS @ powers.reshape(3, -1)).reshape((4,) + a.shape) + identity
    uv = terms[:2] @ right(powers[2]) + terms[2:]
    # U = A u2 = u2 A, so it reuses A's right operand
    u, v = uv[0] @ right_a, uv[1]
    if rows:
        dn = np.dot(np.concatenate((v, u), axis=1).reshape(m, 32), _PADE_TO_FULL)
        dn = dn.view(complex).reshape(m, 2, 4, 4)
        r = np.linalg.solve(dn[:, 0], dn[:, 1])[:, ::2]
    else:
        r = np.linalg.solve((v - u).view(complex), (v + u).view(complex))
    r = np.ascontiguousarray(r).view(float)
    s = s.ravel()
    exponents = s.tolist()
    common = min(exponents)
    for k in range(max(exponents)):
        if k < common:
            r = r @ right(r)
        else:
            sel = s > k
            q = r[sel]
            r[sel] = q @ right(q)
    return r.view(complex)


def _generators(params: ModelParams, z) -> tuple:
    """The rotating-frame phases e^{i theta z}, (..., 4, 1), and the
    generator G of the direct mapping times z, (..., 4, 4), with which
    T = diag(e^{i theta z}) exp(G z).  The fields of params are scalars or
    arrays of one shape (...), a batch of points; z is a scalar or an array
    of shape (..., 1, 1)."""
    a, b, c = params.kappa, params.eta_s, params.eta_i
    d1, d2, d3 = params.delta_tilde, params.delta_s, params.delta_i
    zero = 0.0 * abs(a)
    g = np.array([zero, 1j * a, 1j * b.conjugate(), zero,
                  -1j * a.conjugate(), 1j * d1, zero, -1j * c,
                  1j * b, zero, 1j * d2, zero,
                  zero, -1j * c.conjugate(), zero, -1j * (d3 - d1)], dtype=complex)
    if g.ndim > 1:  # a batch: its axes go first, contiguous for float views
        g = np.moveaxis(g, 0, -1).copy()
    gz = g.reshape(g.shape[:-1] + (4, 4)) * z
    # Y_k = e^{i theta_k z} X_k, and diag(G) = -i theta
    return np.exp(-gz.diagonal(axis1=-2, axis2=-1))[..., None], gz


def _row_generators(params: ModelParams, z) -> tuple:
    """The phases (e^{i h}, e^{-i w}), (..., 2, 1), of rows 0 and 2 of T and
    the rows form (..., 2, 4) of X = G z - i h I at a degenerate point, with
    which T = _full(phases * rows of exp(X)).  With h = delta_tilde z / 2 and
    w = delta_s z - h, rows 0 and 2 of X are

        (-i h,  i kappa z,  i eta_s* z,  0)
        (i eta_s z,  0,     i w,         0)

    Fields and z as for :func:`_generators`, but z has the fields' shape."""
    kz, ez = params.kappa * z, params.eta_s * z
    h = params.delta_tilde * z / 2
    w = params.delta_s * z - h
    zero = 0.0 * abs(h)
    x = np.array([-1j * h, 1j * kz, 1j * ez.conjugate(), zero,
                  1j * ez, zero, 1j * w, zero], dtype=complex)
    angles = np.array([h, -w], dtype=float)
    if x.ndim > 1:  # a batch: its axes go first, contiguous for float views
        x, angles = np.moveaxis(x, 0, -1).copy(), np.moveaxis(angles, 0, -1).copy()
    return np.exp(1j * angles)[..., None], x.reshape(x.shape[:-1] + (2, 4))


def transfer_matrix(params: ModelParams, z: float) -> BogoliubovMatrix:
    """All 16 Bogoliubov functions at z from the rotating-frame matrix
    exponential, valid in every regime; a degenerate point takes the rows
    form.

    Raises OverflowError when an entry exceeds double precision.
    """
    degenerate = is_degenerate(params)
    with np.errstate(all="ignore"):
        phases, g = (_row_generators if degenerate else _generators)(params, z)
        t = phases * _expm(g[None])[0]
    if not np.isfinite(t).all():
        raise OverflowError("transfer matrix entries exceed double precision")
    return BogoliubovMatrix(z, _full(t) if degenerate else t, degenerate)


def transfer_matrices(params: ModelParams, z) -> np.ndarray:
    """The transfer matrices T (..., 4, 4) of a batch: params' fields and z
    are arrays of one shape (...).  The same exponentials as
    :func:`transfer_matrix`, one stack of rows forms for the degenerate
    points and one of full matrices for the rest; an entry beyond double
    precision comes back as inf or NaN instead of raising, so call it under
    ``np.errstate``."""
    z = np.asarray(z, dtype=float)
    degenerate = is_degenerate(params)
    t = np.empty(degenerate.shape + (4, 4), dtype=complex)
    if degenerate.any():
        phases, x = _row_generators(_select(params, degenerate), z[degenerate])
        t[degenerate] = _full(phases * _expm(x))
    if not degenerate.all():
        rest = ~degenerate
        phases, gz = _generators(_select(params, rest), z[rest][:, None, None])
        t[rest] = phases * _expm(gz)
    return t


def _select(params: ModelParams, mask: np.ndarray) -> ModelParams:
    """The points of a batch where mask holds, as a batch (n,)."""
    return ModelParams(*(np.asarray(getattr(params, f.name))[mask]
                         for f in fields(ModelParams)))
