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
import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

from .params import (DerivedParams, ModelParams, _abs_sq, derive, is_degenerate,
                     is_three_mode, select)

#: roots no farther apart than MULT_TOL * max|root| are flagged as multiple,
#: so four roots at 0 are
MULT_TOL = 1e-6

#: "zero" band prefactor for classification boundaries (scaled by the
#: appropriate power of the root-magnitude scale, see _scale)
CLASS_TOL = 1e-9

#: the constant part of the companion matrices of degree 3 and 4: ones on
#: the subdiagonal
_SUBDIAGONAL = {n: np.eye(n, k=-1) for n in (3, 4)}


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
    """The largest of scalars, or the elementwise largest of arrays (the
    first of them an array)."""
    if isinstance(values[0], np.ndarray):
        return reduce(np.maximum, values)
    return max(values)


def _scale(p, q, r):
    """Root-magnitude scale of the quartic: homogeneous degree-1 combination
    of the coefficients, with no floor, so that a band CLASS_TOL * scale^k
    is relative at every unit of length: multiplying every rate by c and
    dividing the length by c keeps each label."""
    return _max(abs(p) ** 0.5, abs(q) ** (1 / 3), abs(r) ** 0.25)


def _roots(*coefficients) -> np.ndarray:
    """Roots (..., n) of x^n + c_1 x^(n-1) + ... + c_n, coefficients scalars
    or arrays (...), the last of full shape: eigenvalues of the companion
    matrix numpy.roots builds, bit for bit as np.linalg.eigvals gives them.

    On a 4x4 companion the wrapper np.linalg.eigvals costs more than the
    LAPACK gufunc it calls, so the gufunc is called directly, and the
    wrapper's rules are kept: a coefficient that is not finite raises
    :func:`non_finite_quartic`; LAPACK's failure, NaN with the invalid
    flag (ignored here), raises LinAlgError("Eigenvalues did not
    converge"); and an all-real result comes back real, which keeps the
    sign of zero in -1j * roots."""
    n, lead = len(coefficients), np.shape(coefficients[-1])
    sub = _SUBDIAGONAL[n]
    if lead:
        c = np.broadcast_to(sub, lead + (n, n)).copy()
        for k, ck in enumerate(coefficients):
            c[..., 0, k] = -ck
        finite = np.isfinite(c).all()
    else:
        c = sub.copy()
        c[0] = [-ck for ck in coefficients]
        finite = all(map(cmath.isfinite, coefficients))
    if not finite:
        raise non_finite_quartic()
    with np.errstate(all="ignore"):
        w = np.linalg._umath_linalg.eigvals(c, signature="d->D")
    if not np.isfinite(w).all():
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w if w.imag.any() else w.real


def solve_quartic(d: DerivedParams) -> QuarticRoots:
    """Roots of lambda^4 + P lambda^2 + i Q lambda + R = 0.

    Solved through the real-coefficient form in mu = i lambda via companion
    matrix eigenvalues (numerically robust near multiple roots, no explicit
    radical branch cuts), then mapped back by lambda = -i mu.
    """
    lam = sorted((-1j * _roots(0.0, -d.p_coef, d.q_coef, d.r_coef)).tolist(),
                 key=lambda x: (-x.real, -x.imag))
    sep = min(abs(lam[i] - lam[j]) for i in range(4) for j in range(i + 1, 4))
    big = max(abs(x) for x in lam)
    return QuarticRoots(roots=tuple(lam), min_root_separation=sep,
                        near_multiple=sep <= MULT_TOL * big)


def _discriminant(p, q, r):
    """Discriminant of mu^4 - p mu^2 + q mu + r (see discriminant_general)."""
    p2, q2, r2 = p * p, q * q, r * r
    return (256 * r2 * r - 128 * p2 * r2 - 144 * p * q2 * r
            - 27 * q2 * q2 + 16 * p2 * p2 * r + 4 * p2 * p * q2)


def discriminant_general(d: DerivedParams) -> float:
    """Discriminant of the characteristic quartic.

    Evaluated for the real-coefficient form mu^4 - P mu^2 + Q mu + R, which
    equals prod_{j<k} (mu_j - mu_k)^2 for the monic quartic (and also equals
    the same product over the lambda roots).  Sign determines the root
    pattern: D < 0 gives two real mu and a complex pair, D > 0 gives all
    real or none real, D = 0 multiple roots.
    """
    return _discriminant(d.p_coef, d.q_coef, d.r_coef)


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


def growth_rate(d: DerivedParams, params: ModelParams, label):
    """The largest Re(lambda) [cm^-1] of points with the label (:func:`labels`
    gives it): a float for one point, or for a batch an array, NaN where a
    coefficient is not finite.  Where the label is I every root lambda is
    imaginary, and the rate is exactly 0.0, with no roots taken.  Elsewhere
    degenerate points of params (:func:`is_degenerate`, so Q = 0) take the
    biquadratic's closed form wherever it is finite (its P^2 - 4R
    overflows from a root scale of about 1e77 cm^-1), and three-mode points
    (:func:`is_three_mode`) max(0, Im s) over the cubic's roots s: at weak
    pump the quartic has a (near-)double root there, where companion
    eigenvalues lose about sqrt(eps).  The rest take Im mu over the
    quartic's roots mu."""
    if not isinstance(d.p_coef, np.ndarray):
        if label is Area.I:
            return 0.0
        if is_degenerate(params):
            rate = max(_biquadratic_growth(params, d, cmath.sqrt))
            if math.isfinite(rate):
                return rate
        elif is_three_mode(params):
            p3, q3 = _three_mode_cubic(params, d)
            return float(max(_roots(0.0, -p3, q3).imag.max(), 0.0))
        return float(_roots(0.0, -d.p_coef, d.q_coef, d.r_coef).imag.max())
    p, q, r = d.p_coef, d.q_coef, d.r_coef
    out = np.full(p.shape, np.nan)
    general = np.isfinite(p) & np.isfinite(q) & np.isfinite(r)
    oscillating = general & (label == Area.I.value)
    out[oscillating] = 0.0
    general &= ~oscillating
    closed = general & is_degenerate(params)
    cubic = general & is_three_mode(params) & ~closed
    if closed.any():
        out[closed] = np.maximum(*_biquadratic_growth(select(params, closed),
                                                      select(d, closed), np.sqrt))
    if cubic.any():
        p3, q3 = _three_mode_cubic(select(params, cubic), select(d, cubic))
        out[cubic] = np.maximum(_roots(0.0, -p3, q3).imag.max(axis=-1), 0.0)
    general &= ~cubic & ~np.isfinite(out)
    out[general] = _roots(0.0, -p[general], q[general], r[general]).imag.max(axis=-1)
    return out


def _normalized(p, q, r):
    """(m, p', q', r') for coefficients p, q, r of degrees 2, 3 and 4 in
    the roots, floats or arrays: their root scale (:func:`_scale`) is
    m * 2 ** e with m in [0.5, 1) (m is the scale where that is 0 or not
    finite), and p', q', r' are p / 2 ** (2 e), q / 2 ** (3 e) and
    r / 2 ** (4 e).  The divisions are exact and bring each coefficient to
    at most about m ** k, so a label compares an expression of degree k in
    them with the zero band CLASS_TOL * m ** k, relative to the root scale,
    and neither side overflows or underflows."""
    scale = _scale(p, q, r)
    if isinstance(scale, np.ndarray):
        m, e = np.frexp(scale)
        return m, np.ldexp(p, -2 * e), np.ldexp(q, -3 * e), np.ldexp(r, -4 * e)
    m, e = math.frexp(scale)
    return m, math.ldexp(p, -2 * e), math.ldexp(q, -3 * e), math.ldexp(r, -4 * e)


def _label(cases: list, default: Area):
    """The label of the first case whose condition holds, else default.
    Conditions are bools, or boolean arrays of one shape; then the result
    is an array of label strings."""
    if isinstance(cases[0][1], np.ndarray):
        return np.select([c for _, c in cases], [a.value for a, _ in cases], default.value)
    for area, condition in cases:
        if condition:
            return area
    return default


def _general_label(d: DerivedParams):
    m, p, q, r = _normalized(d.p_coef, d.q_coef, d.r_coef)
    disc = _discriminant(p, q, r)
    return _label([(Area.V, abs(disc) <= CLASS_TOL * m ** 12), (Area.II, disc < 0),
                   (Area.I, (p > 0) & (r < p * p / 4))], Area.III)


def _degenerate_label(d: DerivedParams):
    m, p, _, r = _normalized(d.p_coef, 0.0, d.r_coef)
    band, quarter = CLASS_TOL * m ** 4, p * p / 4
    return _label([(Area.V, (abs(r) <= band) | (abs(r - quarter) <= band)),
                   (Area.II, r < 0), (Area.III, r > quarter), (Area.I, p > 0)],
                  Area.IV)


def _three_mode_cubic(params: ModelParams, d: DerivedParams):
    """(P3, Q3) of the three-mode cubic s^3 - P3 s + Q3 = 0."""
    a2, gs2, phi = _abs_sq(params.kappa), d.g_s_sq, d.phi
    p3 = gs2 - a2 + phi * phi / 3
    q3 = params.delta_s / 2 * a2 - 2 * phi / 3 * (gs2 + a2 / 2 - phi * phi / 9)
    return p3, q3


def _three_mode_label(params: ModelParams, d: DerivedParams):
    m, p3, q3, _ = _normalized(*_three_mode_cubic(params, d), 0.0)
    d3 = 27 * q3 * q3 - 4 * p3 * p3 * p3
    return _label([(Area.V, abs(d3) <= CLASS_TOL * m ** 6), (Area.II, d3 > 0)], Area.I)


def non_finite_quartic() -> np.linalg.LinAlgError:
    """The failure of a growth rate whose quartic has a coefficient that is
    not finite, for one point and for a batch's failure rows: the error
    numpy's eigenvalue solver raises on such a companion matrix."""
    return np.linalg.LinAlgError("Array must not contain infs or NaNs")


def classify(params: ModelParams) -> Regime:
    """The regime from the most specific label the parameters admit
    (:func:`labels`), and :func:`growth_rate`.  Raises
    :func:`non_finite_quartic` where a coefficient overflowed.  Each label
    compares the coefficients over a power of two of their root scale
    (:func:`_normalized`) with a zero band relative to that scale, so it
    does not depend on the unit of length, and neither side of the
    comparison leaves double precision.  The special cases are equalities
    with no tolerance (:func:`is_degenerate`, :func:`is_three_mode`): a
    point only near one takes the general label.

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
    label = labels(params, d)
    if not all(map(cmath.isfinite, (d.p_coef, d.q_coef, d.r_coef))):
        raise non_finite_quartic()
    return Regime(label=label, max_growth_rate=growth_rate(d, params, label))


def labels(params: ModelParams, d: DerivedParams):
    """The label of one point (an Area) or of a batch (label strings "I".."V")
    with derived parameters d, from its most specific case: degenerate,
    three-mode, else general.  A batch's point gets the label
    :func:`classify` gives it, from the same masks on P, Q and R."""
    if isinstance(d.p_coef, np.ndarray):
        return np.where(is_degenerate(params), _degenerate_label(d),
                        np.where(is_three_mode(params), _three_mode_label(params, d),
                                 _general_label(d)))
    if is_degenerate(params):
        return _degenerate_label(d)
    if is_three_mode(params):
        return _three_mode_label(params, d)
    return _general_label(d)


def roots_to_json(roots: QuarticRoots) -> list:
    """Roots as [re, im] pairs in the canonical ordering."""
    return [[x.real, x.imag] for x in roots.roots]
