"""Characteristic quartic of the coupled PDC/CUpC mode equations.

The transfer functions of the four-mode interaction grow like exp(lambda z)
where lambda solves the depressed quartic

    lambda^4 + P lambda^2 + i Q lambda + R = 0

with real P, Q, R from :func:`cascade.params.derive`.  The substitution
mu = i lambda turns it into a quartic with real coefficients,

    mu^4 - P mu^2 + Q mu + R = 0,

so classical real-quartic root theory applies: imaginary lambda (bounded,
oscillating solutions) correspond to real mu, real lambda (pure exponential
amplification) to imaginary mu.  Parametric amplification exists whenever
some root has a positive real part.

Regimes are labelled by the root pattern:

    I    all roots imaginary               no amplification
    II   two real, two imaginary           amplification
    III  four complex (Re and Im nonzero)  amplification with oscillation
    IV   all roots real                    amplification (degenerate case)
    V    multiple roots                    boundary; closed forms invalid
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

from .params import (DerivedParams, ModelParams, _abs_sq, derive,
                     is_degenerate, is_three_mode)

#: roots closer than MULT_TOL * max(1, max|root|) are flagged as multiple
MULT_TOL = 1e-6

#: "zero" band prefactor for classification boundaries (scaled by the
#: appropriate power of the root-magnitude scale, see _scale)
CLASS_TOL = 1e-9


class Area(Enum):
    """Regime label; serialized as the bare string "I".."V"."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"


@dataclass(frozen=True)
class Regime:
    label: Area
    max_growth_rate: float  # largest Re(lambda) [cm^-1]


@dataclass(frozen=True)
class QuarticRoots:
    """The four roots lambda [cm^-1] in canonical order (descending real
    part, then descending imaginary part)."""

    roots: tuple
    min_root_separation: float
    near_multiple: bool


def _max(*values):
    """The largest of scalars, or the elementwise largest of arrays."""
    if isinstance(values[-1], np.ndarray):
        return reduce(np.maximum, values)
    return max(values)


def _scale(p, q, r):
    """Root-magnitude scale of the quartic: homogeneous degree-1 combination
    of the coefficients, floored at 1."""
    return _max(1.0, abs(p) ** 0.5, abs(q) ** (1 / 3), abs(r) ** 0.25)


def _roots(*coefficients) -> np.ndarray:
    """Roots (..., n) of x^n + c_1 x^(n-1) + ... + c_n, coefficients scalars
    or arrays (...): eigenvalues of the companion matrix numpy.roots builds."""
    n = len(coefficients)
    c = np.zeros(np.broadcast(*coefficients).shape + (n, n))
    for k, ck in enumerate(coefficients):
        c[..., 0, k] = -ck
    c[..., range(1, n), range(n - 1)] = 1.0
    return np.linalg.eigvals(c)


def solve_quartic(d: DerivedParams) -> QuarticRoots:
    """Roots of lambda^4 + P lambda^2 + i Q lambda + R = 0.

    Solved through the real-coefficient form in mu = i lambda via companion
    matrix eigenvalues (numerically robust near multiple roots, no explicit
    radical branch cuts), then mapped back by lambda = -i mu.
    """
    lam = sorted(-1j * _roots(0.0, -d.p_coef, d.q_coef, d.r_coef),
                 key=lambda x: (-x.real, -x.imag))
    sep = min(abs(lam[i] - lam[j]) for i in range(4) for j in range(i + 1, 4))
    big = max(abs(x) for x in lam)
    return QuarticRoots(
        roots=tuple(complex(x) for x in lam),
        min_root_separation=float(sep),
        near_multiple=bool(sep < MULT_TOL * max(1.0, big)),
    )


def discriminant_general(d: DerivedParams) -> float:
    """Discriminant of the characteristic quartic.

    Evaluated for the real-coefficient form mu^4 - P mu^2 + Q mu + R, which
    equals prod_{j<k} (mu_j - mu_k)^2 for the monic quartic (and also equals
    the same product over the lambda roots).  Sign determines the root
    pattern: D < 0 gives two real mu and a complex pair, D > 0 gives all
    real or none real, D = 0 multiple roots.
    """
    p, q, r = d.p_coef, d.q_coef, d.r_coef
    p2, q2, r2 = p * p, q * q, r * r
    return (256 * r2 * r - 128 * p2 * r2 - 144 * p * q2 * r
            - 27 * q2 * q2 + 16 * p2 * p2 * r + 4 * p2 * p * q2)


def _biquadratic_growth(params: ModelParams, d: DerivedParams, sqrt):
    """|Re lambda| over the two roots lambda^2 of x^2 + P x + R, the quartic
    of equal arms (Q = 0), taken without cancellation: x = -sgn(P) (|P| +
    sqrt(P^2 - 4R)) / 2 and R / x, with P^2 - 4R expanded as (phi^2 -
    |kappa|^2)(4 g_s^2 - |kappa|^2) + |kappa|^2 (phi - delta_s)^2.  sqrt is
    cmath.sqrt for one point and np.sqrt for a batch (bit for bit alike)."""
    a2, phi, p = _abs_sq(params.kappa), d.phi, d.p_coef
    ds = phi - params.delta_s
    s = sqrt((phi * phi - a2) * (4 * d.g_s_sq - a2) + a2 * ds * ds + 0j)
    x = (abs(p) + s) / ((p < 0) * 4 - 2)
    m = x.real * x.real + x.imag * x.imag  # 0 only where P = 0 = P^2 - 4R
    y = d.r_coef / (m + (m == 0)) * x.conjugate()
    return abs(sqrt(x).real), abs(sqrt(y).real)


def growth_rate(d: DerivedParams, params: ModelParams):
    """The largest Re(lambda) [cm^-1]: a float for one point, or for a batch
    an array, NaN where a coefficient is not finite.  Degenerate points of
    params (:func:`is_degenerate`, so Q = 0) take the biquadratic's closed
    form, and three-mode points (:func:`is_three_mode`) max(0, Im s) over
    the cubic's roots s: at weak pump the quartic has a (near-)double root
    there, where companion eigenvalues lose about sqrt(eps).  Elsewhere Im
    mu over the quartic's roots mu."""
    degenerate = is_degenerate(params)
    if not isinstance(d.p_coef, np.ndarray):
        if degenerate:
            return max(_biquadratic_growth(params, d, cmath.sqrt))
        if is_three_mode(params):
            p3, q3, _ = _three_mode_discriminant(params, d)
            return float(max(_roots(0.0, -p3, q3).imag.max(), 0.0))
        return float(_roots(0.0, -d.p_coef, d.q_coef, d.r_coef).imag.max())
    p, q, r = d.p_coef, d.q_coef, d.r_coef
    out = np.full(p.shape, np.nan)
    general = np.isfinite(p) & np.isfinite(q) & np.isfinite(r)
    closed = general & degenerate
    cubic = general & is_three_mode(params) & ~closed
    out[closed] = np.maximum(*_biquadratic_growth(params, d, np.sqrt))[closed]
    p3, q3, _ = _three_mode_discriminant(params, d)
    out[cubic] = np.maximum(_roots(0.0, -p3[cubic], q3[cubic]).imag.max(axis=-1), 0.0)
    general &= ~(closed | cubic)
    out[general] = _roots(0.0, -p[general], q[general], r[general]).imag.max(axis=-1)
    return out


def _label(cases: list, default: Area):
    """The label of the first case whose condition holds, else default.
    Conditions are bools, or boolean arrays of one shape; then the result
    is an array of label strings."""
    if isinstance(cases[0][1], np.ndarray):
        return np.select([c for _, c in cases], [a.value for a, _ in cases],
                         default.value)
    for area, condition in cases:
        if condition:
            return area
    return default


def _general_label(d: DerivedParams):
    p, q, r = d.p_coef, d.q_coef, d.r_coef
    disc = discriminant_general(d)
    return _label([(Area.V, abs(disc) <= CLASS_TOL * _scale(p, q, r) ** 12),
                   (Area.II, disc < 0),
                   (Area.I, (p > 0) & (r < p * p / 4))], Area.III)


def _degenerate_label(d: DerivedParams):
    p, r = d.p_coef, d.r_coef
    tol = CLASS_TOL * _scale(p, 0.0, r) ** 4
    quarter = p * p / 4
    return _label([(Area.V, (abs(r) <= tol) | (abs(r - quarter) <= tol)),
                   (Area.II, r < 0), (Area.III, r > quarter), (Area.I, p > 0)],
                  Area.IV)


def _three_mode_discriminant(params: ModelParams, d: DerivedParams):
    """(P3, Q3, D3) of the three-mode cubic s^3 - P3 s + Q3 = 0."""
    a2 = _abs_sq(params.kappa)
    gs2, phi = d.g_s_sq, d.phi
    p3 = gs2 - a2 + phi * phi / 3
    q3 = params.delta_s / 2 * a2 - 2 * phi / 3 * (gs2 + a2 / 2 - phi * phi / 9)
    return p3, q3, 27 * q3 * q3 - 4 * p3 * p3 * p3


def _three_mode_label(params: ModelParams, d: DerivedParams):
    p3, q3, d3 = _three_mode_discriminant(params, d)
    tol = CLASS_TOL * _max(1.0, abs(p3) ** 0.5, abs(q3) ** (1 / 3)) ** 6
    return _label([(Area.V, abs(d3) <= tol), (Area.II, d3 > 0)], Area.I)


def classify(params: ModelParams) -> Regime:
    """The regime from the most specific label the parameters admit, as
    :func:`classify_batch` picks it, and :func:`growth_rate`; LinAlgError
    where a coefficient overflowed.  The special cases are equalities with
    no tolerance (:func:`is_degenerate`, :func:`is_three_mode`): a point
    only near one takes the general label.

    Degenerate points (eta_i = eta_s, delta_i = delta_s): the quartic is
    biquadratic (Q = 0), lambda^2 = (-P +- sqrt(P^2 - 4R))/2, and

        I: P>0 and 0<R<P^2/4;  II: R<0;  III: R>P^2/4;
        IV: P<0 and 0<R<P^2/4;  V: R=0 or R=P^2/4 within tolerance.

    Three-mode points (eta_i = 0, delta_i = 0): one root is always
    lambda_4 = i phi / 2 and the quartic reduces to a cubic.  In the real
    variable s = i lambda - phi/6 the cubic reads s^3 - P3 s + Q3 = 0 with

        P3 = g_s^2 - |kappa|^2 + phi^2/3
        Q3 = (delta_s/2)|kappa|^2 - (2 phi/3)(g_s^2 + |kappa|^2/2 - phi^2/9)

    and amplification (II) exists exactly when that real cubic has a
    complex-conjugate pair, i.e. when D3 = 27 Q3^2 - 4 P3^3 > 0.  D3 < 0
    gives three real s (I: all lambda imaginary, oscillating solutions);
    D3 = 0 within tolerance multiple roots (V).

    Every other point, from the quartic discriminant D:

        D > 0, P > 0, R < P^2/4  ->  I   (all mu real: all lambda imaginary)
        D < 0                    ->  II  (two real lambda, two imaginary)
        D > 0 otherwise          ->  III (no real mu; the all-real-lambda case
                                          is folded in here, so consumers
                                          needing the I..IV distinction
                                          should use max_growth_rate)
        D = 0 within tolerance   ->  V
    """
    d = derive(params)
    if is_degenerate(params):
        label = _degenerate_label(d)
    elif is_three_mode(params):
        label = _three_mode_label(params, d)
    else:
        label = _general_label(d)
    rate = growth_rate(d, params)
    if cmath.isnan(rate):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    return Regime(label=label, max_growth_rate=rate)


def classify_batch(params: ModelParams) -> np.ndarray:
    """The regime label strings ("I".."V") of a batch: params' fields are
    arrays of one shape, and each point gets the label :func:`classify`
    gives it, from the same masks on P, Q and R."""
    d = derive(params)
    return np.where(is_degenerate(params), _degenerate_label(d),
                    np.where(is_three_mode(params), _three_mode_label(params, d),
                             _general_label(d)))


def roots_to_json(roots: QuarticRoots) -> list:
    """Roots as [re, im] pairs in the canonical ordering."""
    return [[x.real, x.imag] for x in roots.roots]
