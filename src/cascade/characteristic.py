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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import (DerivedParams, ModelParams, derive, is_degenerate,
                     is_three_mode)

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


def _scale(p: float, q: float, r: float) -> float:
    """Root-magnitude scale of the quartic: homogeneous degree-1 combination
    of the coefficients, floored at 1."""
    return max(1.0, abs(p) ** 0.5, abs(q) ** (1 / 3), abs(r) ** 0.25)


def solve_quartic(d: DerivedParams) -> QuarticRoots:
    """Roots of lambda^4 + P lambda^2 + i Q lambda + R = 0.

    Solved through the real-coefficient form in mu = i lambda via companion
    matrix eigenvalues (numerically robust near multiple roots, no explicit
    radical branch cuts), then mapped back by lambda = -i mu.
    """
    p, q, r = d.p_coef, d.q_coef, d.r_coef
    mu = np.roots([1.0, 0.0, -p, q, r])
    lam = -1j * mu
    lam = sorted(lam, key=lambda x: (-x.real, -x.imag))
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
    return (256 * r**3 - 128 * p**2 * r**2 - 144 * p * q**2 * r
            - 27 * q**4 + 16 * p**4 * r + 4 * p**3 * q**2)


def _max_growth(d: DerivedParams) -> float:
    return max(x.real for x in solve_quartic(d).roots)


def classify_general(d: DerivedParams) -> Regime:
    """Regime of the full four-mode interaction from the quartic discriminant.

    D > 0, P > 0, R < P^2/4  ->  I   (all mu real: all lambda imaginary)
    D < 0                    ->  II  (two real lambda, two imaginary)
    D > 0 otherwise          ->  III (no real mu; the all-real-lambda case
                                      is folded in here, so consumers needing
                                      the I..IV distinction should use
                                      max_growth_rate)
    D = 0 within tolerance   ->  V
    """
    p, q, r = d.p_coef, d.q_coef, d.r_coef
    disc = discriminant_general(d)
    s = _scale(p, q, r)
    if abs(disc) <= CLASS_TOL * s**12:
        label = Area.V
    elif disc < 0:
        label = Area.II
    elif p > 0 and r < p * p / 4:
        label = Area.I
    else:
        label = Area.III
    return Regime(label=label, max_growth_rate=_max_growth(d))


def classify_degenerate(params: ModelParams) -> Regime:
    """Regime for the degenerate configuration (eta_i = eta_s,
    delta_i = delta_s), where the quartic is biquadratic (Q = 0) and
    lambda^2 = (-P +- sqrt(P^2 - 4R))/2.

    I: P>0 and 0<R<P^2/4;  II: R<0;  III: R>P^2/4;
    IV: P<0 and 0<R<P^2/4;  V: R=0 or R=P^2/4 within tolerance.
    """
    if not is_degenerate(params):
        raise ValueError("classify_degenerate requires eta_i = eta_s and delta_i = delta_s")
    d = derive(params)
    p, r = d.p_coef, d.r_coef
    tol = CLASS_TOL * _scale(p, 0.0, r) ** 4
    s = complex(p * p - 4 * r) ** 0.5
    lam_sq = ((-p + s) / 2, (-p - s) / 2)
    growth = max(abs((l2**0.5).real) for l2 in lam_sq)
    if abs(r) <= tol or abs(r - p * p / 4) <= tol:
        label = Area.V
    elif r < 0:
        label = Area.II
    elif r > p * p / 4:
        label = Area.III
    elif p > 0:
        label = Area.I
    else:
        label = Area.IV
    return Regime(label=label, max_growth_rate=float(growth))


def classify_three_mode(params: ModelParams) -> tuple[Regime, complex]:
    """Regime for the three-mode interaction (eta_i = 0, delta_i = 0).

    One root is always lambda_4 = i phi / 2 and the quartic reduces to a
    cubic.  In the real variable s = i lambda - phi/6 the cubic reads
    s^3 - P3 s + Q3 = 0 with

        P3 = g_s^2 - |kappa|^2 + phi^2/3
        Q3 = (delta_s/2)|kappa|^2 - (2 phi/3)(g_s^2 + |kappa|^2/2 - phi^2/9)

    and amplification exists exactly when that real cubic has a complex-
    conjugate pair, i.e. when D3 = 27 Q3^2 - 4 P3^3 > 0.  D3 < 0 gives three
    real s (all lambda imaginary, oscillating solutions); D3 = 0 multiple
    roots.  Returns (regime, lambda_4).
    """
    if not is_three_mode(params):
        raise ValueError("classify_three_mode requires eta_i = 0 and delta_i = 0")
    d = derive(params)
    a2 = abs(params.kappa) ** 2
    gs2, phi = d.g_s_sq, d.phi
    p3 = gs2 - a2 + phi**2 / 3
    q3 = params.delta_s / 2 * a2 - 2 * phi / 3 * (gs2 + a2 / 2 - phi**2 / 9)
    d3 = 27 * q3**2 - 4 * p3**3
    tol = CLASS_TOL * max(1.0, abs(p3) ** 0.5, abs(q3) ** (1 / 3)) ** 6
    lam4 = 1j * phi / 2
    s_roots = np.roots([1.0, 0.0, -p3, q3])
    growth = max(((-1j) * (s + phi / 6)).real for s in s_roots)
    growth = max(growth, lam4.real)
    if abs(d3) <= tol:
        label = Area.V
    elif d3 > 0:
        label = Area.II
    else:
        label = Area.I
    return Regime(label=label, max_growth_rate=float(growth)), lam4


def classify(params: ModelParams) -> Regime:
    """Dispatch to the most specific classifier the parameters admit."""
    if is_degenerate(params):
        return classify_degenerate(params)
    if is_three_mode(params):
        return classify_three_mode(params)[0]
    return classify_general(derive(params))


def roots_to_json(roots: QuarticRoots) -> list:
    """Roots as [re, im] pairs in the canonical ordering."""
    return [[x.real, x.imag] for x in roots.roots]
