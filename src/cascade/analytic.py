"""The 16 Bogoliubov transfer functions: the production propagator.

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

The paper's closed form, kept as an independent reference, is
:mod:`cascade.closed_form`.
"""

from __future__ import annotations

import math

import numpy as np

from .bogoliubov import _SWAP, BogoliubovMatrix
from .params import ModelParams, is_degenerate, select

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
                                     np.identity(4)).astype(complex).view(float)

# The product form.  A complex 4x4 stack Y viewed as (m, 4, 8) reals is
# multiplied from the left by one real matmul, X Y = X @ right(Y): right(Y)
# is the real 8x8 matrix in which each complex entry y becomes the block
# [[Re y, Im y], [-Im y, Re y]], and it is linear in Y, one np.dot against a
# constant table of 0 and +-1, so each of its entries is one entry of Y,
# negated or not.
#
# The rows form of a degenerate point.  There X = G z - i h I, h =
# delta_tilde z / 2, equals P conj(X) P, P exchanging entries 0 <-> 1 and
# 2 <-> 3 (the signal/idler exchange _SWAP of T's layout): rows 1 and 3 of X
# are rows 0 and 2 conjugated, with the columns of each pair (0, 1), (2, 3)
# exchanged.  Products, sums with real coefficients and inverses keep that
# symmetry, so exp(X) is taken on rows 0 and 2 alone, viewed as 2 x 8 reals:
# the rows of X Y are rows(X) @ right(Y), with right(Y) read from the rows of
# Y.  An entry that vanishes in every factor (the creation entries of a mode
# that does not squeeze) is then a sum of exact zeros, and T's idler rows are
# the exact conjugates of its signal rows.

#: the full matrices of the rows forms whose 16 reals are the unit vectors
_UNITS_FULL = np.zeros((16, 4, 4), dtype=complex)
_UNITS_FULL[:, ::2] = np.identity(16).view(complex).reshape(16, 2, 4)
_UNITS_FULL[:, 1::2] = _UNITS_FULL[:, ::2, _SWAP].conj()
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
    """exp of one matrix, or of each matrix in a stack, by [13/13] Pade
    scaling and squaring with one scaling exponent per matrix, so that a
    small matrix is not overscaled by a large stack-mate (Al-Mohy & Higham,
    SIAM J. Matrix Anal. Appl. 31(3), 2009).  Every product is one matrix's,
    and the extra squarings run only on the matrices that need them, so no
    result depends on the rest of the stack.  g is a full complex matrix
    (4, 4), or the rows form (2, 4) of a degenerate point (above), which
    comes back as the rows form of its exponential, or a stack (m, 4, 4) or
    (m, 2, 4) of them.  One matrix takes the same products on 2-D arrays,
    with its scaling exponent a Python int and its squarings a plain loop.
    Both forms are taken in the one product form, real rows @ right(Y),
    except for the one linear solve, which runs on the full complex
    matrices; the scaling reads the full matrices' 1-norms.  An entry
    beyond double precision comes back as inf or NaN, with numpy warnings
    unless the caller is under ``np.errstate``.

    The solve calls numpy's LAPACK gufunc, not np.linalg.solve, whose
    wrapper costs more than the solve on one 4x4 system; the wrapper's
    only check, "Singular matrix" on the invalid flag, cannot fire here:
    for a finite generator scaled to 1-norm theta_13 or less, Higham (2005)
    bounds the condition number of the Pade denominator q_13(A) = V - U.
    A generator that is not finite (or whose 1-norm is not) gives inf or
    NaN entries, which :func:`transfer_matrix` names
    :func:`entries_beyond_double`, as does the engine."""
    lead = g.shape[:-2]
    rows = g.shape[-2] == 2
    col = np.abs(g).sum(axis=-2, keepdims=True)
    if rows:  # column j of the full matrix holds rows 0 and 2 at j and P j
        col = col + col[..., _SWAP]
    table, identity = ((_RIGHT_ROWS, _PADE13_IDENTITY[..., ::2, :]) if rows
                       else (_RIGHT_FULL, _PADE13_IDENTITY))

    def right(y):  # right(Y) (..., 8, 8) of Y (..., 2 or 4, 8) as reals
        stack = y.shape[:-2]
        return np.dot(y.reshape(stack + (-1,)), table).reshape(stack + (8, 8))

    # s: the smallest s >= 0 with |g|_1 / 2^s < theta, an int for one
    # matrix and shaped (m, 1, 1) for a stack
    if lead:
        s = np.frexp(np.maximum(col.max(axis=-1, keepdims=True) / _THETA13, 0.5))[1]
        identity = identity[:, None]
    else:
        s = math.frexp(max(col.max() / _THETA13, 0.5))[1]
    a = np.ldexp(g.view(float), -s)
    powers = np.empty((3,) + a.shape)
    right_a = right(a)
    np.matmul(a, right_a, out=powers[0])
    right_a2 = right(powers[0])
    np.matmul(powers[0], right_a2, out=powers[1])
    np.matmul(powers[1], right_a2, out=powers[2])
    del right_a2  # each temporary goes at its last use: a chunk's stack is large
    # the sums (u2, v2, u1, v1), one 2-D product over every entry; the
    # first two are multiplied by A^6, with which they commute
    terms = (_PADE13_TERMS @ powers.reshape(3, -1)).reshape((4,) + a.shape)
    terms += identity
    uv = terms[:2] @ right(powers[2])
    del powers
    uv += terms[2:]
    del terms
    # U = A u2 = u2 A, so it reuses A's right operand
    u, v = uv[0] @ right_a, uv[1]
    del right_a
    solve = np.linalg._umath_linalg.solve
    if rows:
        dn = np.dot(np.concatenate((v, u), axis=-2).reshape(lead + (32,)), _PADE_TO_FULL)
        dn = dn.view(complex).reshape(lead + (2, 4, 4))
        r = solve(dn[..., 0, :, :], dn[..., 1, :, :], signature="DD->D")[..., ::2, :]
    else:
        r = solve((v - u).view(complex), (v + u).view(complex), signature="DD->D")
    r = np.ascontiguousarray(r).view(float)
    if not lead:
        for _ in range(s):
            r = r @ right(r)
        return r.view(complex)
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


def entries_beyond_double() -> OverflowError:
    """The failure of a transfer matrix with an entry beyond double
    precision, for one point and for a batch's failure rows."""
    return OverflowError("transfer matrix entries exceed double precision")


def transfer_matrix(params: ModelParams, z: float) -> BogoliubovMatrix:
    """All 16 Bogoliubov functions at z from the rotating-frame matrix
    exponential, valid in every regime; a degenerate point takes the rows
    form.

    Raises :func:`entries_beyond_double` when an entry leaves double
    precision.
    """
    degenerate = is_degenerate(params)
    with np.errstate(all="ignore"):
        phases, g = (_row_generators if degenerate else _generators)(params, z)
        t = phases * _expm(g)
    if not np.isfinite(t).all():
        raise entries_beyond_double()
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
        phases, x = _row_generators(select(params, degenerate), z[degenerate])
        t[degenerate] = _full(phases * _expm(x))
    if not degenerate.all():
        rest = ~degenerate
        phases, gz = _generators(select(params, rest), z[rest][:, None, None])
        t[rest] = phases * _expm(gz)
    return t

