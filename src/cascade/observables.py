"""Physical observables of the vacuum-seeded PDC/CUpC interaction.

Everything here is a quadratic form of Bogoliubov matrix entries: mean
photon numbers, second-order correlators, and quadrature variances.  For a
quadrature X(theta) = f e^{i theta} + f+ e^{-i theta} of a mode with mean
photon number N and anomalous correlator F = <f f>, the variance is

    (dX)^2 = 1 + 2N + 2|F| cos(2 theta + arg F),

minimized at theta = (pi - arg F)/2 where it equals 1 + 2N - 2|F|.  Deep in
the squeezed regime that expression cancels catastrophically (it can reach
e^{-2 Gamma} while N ~ e^{2 Gamma}), so it is evaluated through the
algebraically equivalent stable form

    1 + 2N - 2|F| = (1 + 4 |U Q* - W V*|^2) / (1 + 2N + 2|F|),

exact for any matrix satisfying the canonical normalization.

The balanced collective mode (a + e^{i delta} b)/sqrt(2) is minimized over
the relative phase as well.  Its N, F and Lagrange-identity term are
trigonometric polynomials of degree two in delta, so seven complex
coefficients of T describe it at every phase (_collective_coefficients);
the search refines the lowest local minimum of a 64-point phase grid, and
the second-lowest where there is one, by a fixed number of golden-section
steps, to brackets below 1e-10 rad.

Every formula takes Python complex values or numpy arrays: the
single-point functions evaluate one matrix, and :func:`stack_observables`
a stack of them with the same formulas and the same steps, so no element's
result depends on the rest of the stack.

Single-mode and collective squeezing metrics are defined for the degenerate
configuration only, eta_i = eta_s and delta_i = delta_s exactly
(:func:`cascade.params.is_degenerate`).  The solvers record that rule of
their parameters on the matrix (``BogoliubovMatrix.degenerate``), and the
single-point metrics raise ValueError(DEGENERATE_ONLY) on any other matrix;
four-mode scans report photon numbers alone.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .bogoliubov import BogoliubovMatrix
from .params import ModelParams, validate


@dataclass(frozen=True)
class PhotonNumbers:
    """Mean photon numbers of the four modes (vacuum input)."""

    n_as: float
    n_ai: float
    n_bs: float
    n_bi: float


@dataclass(frozen=True)
class Correlators:
    """Anomalous and cross correlators of the degenerate configuration:
    F_a = <a a>, F_b = <b b>, F_ab = <alpha beta>, G_ab = <alpha+ beta>."""

    f_a: complex
    f_b: complex
    f_ab: complex
    g_ab: complex


@dataclass(frozen=True)
class SqueezingReport:
    """Minimal quadrature variance and the optimizing angles [rad].
    delta_opt is the collective-mode relative phase (collective case only)."""

    min_variance: float
    theta_opt: float
    delta_opt: float | None = None


def _occupations(rows) -> tuple:
    """(n_as, n_ai, n_bs, n_bi) from the rows of T, whose entries are
    scalars or arrays of one shape."""
    (_, v_s, _, q_s), (v_i, _, q_i, _), (_, l_s, _, n_s), (l_i, _, n_i, _) = rows
    return (abs(v_s) ** 2 + abs(q_s) ** 2, abs(v_i) ** 2 + abs(q_i) ** 2,
            abs(l_s) ** 2 + abs(n_s) ** 2, abs(l_i) ** 2 + abs(n_i) ** 2)


def photon_numbers(m: BogoliubovMatrix) -> PhotonNumbers:
    """Vacuum expectation of the mode occupations: each mode collects the
    squared magnitudes of its creation-operator coefficients: the entries of
    its row of T (alpha_s, alpha_i+, beta_s, beta_i+) in the columns of the
    other parity."""
    try:
        return PhotonNumbers(*_occupations(m.rows))
    except OverflowError:  # Python's float ** 2; named as the engine names it
        raise OverflowError("photon number exceeds double precision") from None


#: the failure of a squeezing metric off the degenerate configuration, for
#: one matrix and for a scan's failure rows
DEGENERATE_ONLY = ("squeezing metrics are defined for degenerate parameters "
                   "only (eta_i = eta_s and delta_i = delta_s)")


def _require_degenerate(m: BogoliubovMatrix) -> None:
    if not m.degenerate:
        raise ValueError(DEGENERATE_ONLY)


def correlators(m: BogoliubovMatrix) -> Correlators:
    """Degenerate-case correlators built from the signal rows of T."""
    _require_degenerate(m)
    (u, v, w, q), _, (k, l, mm, n), _ = m.rows
    return Correlators(
        f_a=u * v + w * q,
        f_b=k * l + mm * n,
        f_ab=u * l + w * n,
        g_ab=v.conjugate() * l + q.conjugate() * n,
    )


def _stable_min_variance(x1, x2, y1, y2):
    """1 + 2N - 2|F| for N = |y1|^2 + |y2|^2, F = x1 y1 + x2 y2, evaluated
    through the cancellation-free Lagrange-identity form (x1, x2 are the
    annihilation-row entries, y1, y2 the creation-row entries).  Takes
    complex scalars or arrays of them."""
    n = abs(y1) ** 2 + abs(y2) ** 2
    f = x1 * y1 + x2 * y2
    gap = abs(x1 * y2.conjugate() - x2 * y1.conjugate()) ** 2
    return (1.0 + 4.0 * gap) / (1.0 + 2.0 * n + 2.0 * abs(f))


def single_mode_min_variance(m: BogoliubovMatrix, mode: str) -> SqueezingReport:
    """Minimal single-mode quadrature variance for the PDC mode ("a") or the
    up-converted mode ("b") of a degenerate matrix."""
    _require_degenerate(m)
    if mode not in ("a", "b"):
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    # the mode's signal row of T: annihilation entries x, creation entries y
    x1, y1, x2, y2 = m.rows[0 if mode == "a" else 2]
    f = x1 * y1 + x2 * y2
    theta = (math.pi - cmath.phase(f)) / 2 if f != 0 else math.pi / 2
    try:
        min_variance = _stable_min_variance(x1, x2, y1, y2)
    except OverflowError:
        raise OverflowError(f"minvar_{mode} exceeds double precision") from None
    return SqueezingReport(min_variance=min_variance, theta_opt=theta)


#: the coarse phase grid of the collective minimum and the fixed number of
#: golden-section steps that shrink a bracket of two spacings below 1e-10 rad
_GRID_POINTS = 64
_STEP = 2.0 * math.pi / _GRID_POINTS
_GRID = _STEP * np.arange(_GRID_POINTS)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = math.ceil(math.log(2.0 * _STEP / 1e-10) / -math.log(_GOLDEN))


def _collective_coefficients(a_row, b_row) -> tuple:
    """The collective mode (a + e b)/sqrt(2), e = e^{i delta}, as seven
    complex numbers and a real one.  With the signal rows a, b of T (columns
    0, 2 annihilation, 1, 3 creation entries), the mode's occupation N,
    anomalous correlator F and Lagrange-identity term L are

        1 + 2 N(delta) = m0 + Re(m1 e)
        2 F(delta)     = f0 + f1 e + f2 e^2
        2 L(delta)     = g0 + g1 e + g_{-1} e*

    and its minimal variance is 1 + 2N - 2|F| = (1 + 4|L|^2) / (1 + 2N +
    2|F|).  The entries are scalars or arrays of one shape, and so are the
    coefficients (m0, m1, f0, f1, f2, g0, g1, g_{-1})."""
    a0, a1, a2, a3 = a_row
    b0, b1, b2, b3 = b_row
    a1c, a3c, b1c, b3c = (v.conjugate() for v in (a1, a3, b1, b3))
    return (1.0 + (abs(a1) ** 2 + abs(b1) ** 2 + abs(a3) ** 2 + abs(b3) ** 2),
            2.0 * (a1c * b1 + a3c * b3),
            a0 * a1 + a2 * a3,
            a0 * b1 + b0 * a1 + a2 * b3 + b2 * a3,
            b0 * b1 + b2 * b3,
            a0 * a3c + b0 * b3c - a2 * a1c - b2 * b1c,
            b0 * a3c - b2 * a1c,
            a0 * b3c - a2 * b1c)


def _collective_variance(c: tuple, exp):
    """Minimal quadrature variance of the collective mode as a function of
    the relative phase delta, from its coefficients c; exp is cmath.exp for
    scalars or np.exp for arrays that broadcast against c."""
    m0, m1, f0, f1, f2, g0, g1, gm1 = c

    def variance(delta):
        e = exp(1j * delta)
        gap = abs(g0 + g1 * e + gm1 * e.conjugate()) ** 2
        return (1.0 + gap) / (m0 + (m1 * e).real + abs(f0 + (f1 + f2 * e) * e))

    return variance


def _starts(values: np.ndarray) -> tuple:
    """The grid starts of the collective search as flat index arrays
    (points, phases), from values (n, _GRID_POINTS) on the periodic phase
    grid: each point's lowest local minimum, then the second-lowest of the
    points that have one.  The objective often has two deep, narrow minima
    about pi apart, and the coarse grid can rank them wrongly, so both are
    refined.  A grid without a local minimum is flat (all values equal), so
    its first phase is its lowest value and every point has a start."""
    wrapped = np.concatenate([values[:, -1:], values, values[:, :1]], axis=-1)
    local = (values < wrapped[:, :-2]) & (values <= wrapped[:, 2:])
    minima = np.where(local, values, np.inf)
    first = minima.argmin(axis=-1)
    points = np.arange(len(values))
    minima[points, first] = np.inf
    second = local.sum(axis=-1) > 1
    return (np.concatenate([points, points[second]]),
            np.concatenate([first, minima.argmin(axis=-1)[second]]))


def _choose(cond, x, y):
    return x if cond else y


def _golden(f, lo, width: float, select):
    """Minimum of f on [lo, lo + width] by _GOLDEN_STEPS golden-section
    steps; the midpoint of the last bracket.  lo is a scalar with
    select=_choose, or an array with select=np.where: every element takes
    the same steps, so the bracket width stays one number."""
    a = lo
    inner = 1.0 - _GOLDEN  # = _GOLDEN^2: where the interior points sit
    f1, f2 = f(a + inner * width), f(a + _GOLDEN * width)
    for _ in range(_GOLDEN_STEPS):
        # the minimum is in the left or the right _GOLDEN of the bracket;
        # the interior point inside it is the new bracket's other one
        left = f1 < f2
        a = select(left, a, a + inner * width)
        width *= _GOLDEN
        kept = select(left, f1, f2)
        new = f(a + select(left, inner, _GOLDEN) * width)
        f1, f2 = select(left, new, kept), select(left, kept, new)
    return a + width / 2


def collective_min_variance(m: BogoliubovMatrix) -> SqueezingReport:
    """Minimal quadrature variance of the balanced collective mode
    (a + e^{i delta} b)/sqrt(2) of a degenerate matrix.

    At fixed relative phase the theta minimum is the single-mode one of the
    collective mode, evaluated in the cancellation-free form from seven
    coefficients of T (see _collective_coefficients; the expanded
    1 + N_a + N_b + 2 Re[G e^{i d}] - |F(d)| cancels at high gain).  The
    lowest local minimum of a 64-point grid over [0, 2 pi), and the
    second-lowest where there is one (see _starts), are each refined by a
    fixed number of golden-section steps to a bracket below 1e-10 rad, and
    the lower one is reported: the same starts and steps
    :func:`stack_observables` runs on arrays.  Since the report minimizes
    over the phase, bare carrier wavevectors (which only shift it) never
    enter.
    """
    _require_degenerate(m)
    a_row, _, b_row, _ = m.rows
    try:
        c = _collective_coefficients(a_row, b_row)
        variance = _collective_variance(c, cmath.exp)
        with np.errstate(over="ignore", invalid="ignore"):
            grid = _collective_variance(c, np.exp)(_GRID)
        _, phases = _starts(grid[None])
        best = None
        for k in phases.tolist():
            d = _golden(variance, k * _STEP - _STEP, 2.0 * _STEP, _choose)
            value = float(variance(d))
            if best is None or value < best[0]:
                best = value, d
    except OverflowError:
        raise OverflowError("minvar_c exceeds double precision") from None
    value, d_opt = best
    e = cmath.exp(1j * d_opt)
    _, _, f0, f1, f2, _, _, _ = c
    f_tot = f0 + (f1 + f2 * e) * e  # 2 F
    theta = (math.pi - cmath.phase(f_tot)) / 2 if f_tot != 0 else math.pi / 2
    return SqueezingReport(min_variance=value, theta_opt=theta,
                           delta_opt=d_opt % (2.0 * math.pi))


def stack_observables(t: np.ndarray, quantities) -> dict:
    """Photon numbers of a stack of transfer matrices (n, 4, 4), always all
    four ("n_as", "n_ai", "n_bs", "n_bi"), and the squeezing minima among
    quantities ("minvar_a", "minvar_b", "minvar_c"), as arrays (n,): the
    formulas and the phase search of the single-point functions: the
    collective search refines every point's grid starts (see _starts) as one
    flat array and keeps each point's lowest result.  The minima are
    meaningful at degenerate points only; the caller reads
    :func:`cascade.params.is_degenerate` of the stack's parameters."""
    rows = np.moveaxis(t, (-2, -1), (0, 1))
    out = dict(zip(("n_as", "n_ai", "n_bs", "n_bi"), _occupations(rows)))
    for q, row in (("minvar_a", rows[0]), ("minvar_b", rows[2])):
        if q in quantities:
            x1, y1, x2, y2 = row
            out[q] = _stable_min_variance(x1, x2, y1, y2)
    if "minvar_c" in quantities:
        c = _collective_coefficients(rows[0], rows[2])
        points, phases = _starts(_collective_variance([v[:, None] for v in c], np.exp)(_GRID))
        variance = _collective_variance([v[points] for v in c], np.exp)
        d = _golden(variance, phases * _STEP - _STEP, 2.0 * _STEP, np.where)
        out["minvar_c"] = np.full(len(t), np.inf)
        np.minimum.at(out["minvar_c"], points, variance(d))
    return out


def _sinhc_sq(t: float, L: float) -> float:
    """[sinh(sqrt(t) L) / (sqrt(t) L)]^2 as a function of t = gamma^2,
    valid for either sign of t (oscillatory for t < 0)."""
    w = t * L * L
    if abs(w) < 1e-12:
        return 1.0 + w / 3.0
    if w > 0:
        x = math.sqrt(w)
        return (math.sinh(x) / x) ** 2
    x = math.sqrt(-w)
    return (math.sin(x) / x) ** 2


def pdc_only_reference(kappa: complex, delta_tilde: float,
                       length: float) -> tuple[float, float | None]:
    """Closed-form photon number of plain PDC (no up-conversion),

        N_a(L) = |kappa|^2 L^2 [sinh(gamma L) / (gamma L)]^2,
        gamma^2 = |kappa|^2 - delta_tilde^2 / 4,

    plus the phase-matched minimal variance exp(-2 |kappa| L), returned as
    None when delta_tilde != 0 (no closed form applies there)."""
    a2 = abs(kappa) ** 2
    t = a2 - delta_tilde**2 / 4
    n_a = a2 * length**2 * _sinhc_sq(t, length)
    min_var = math.exp(-2.0 * abs(kappa) * length) if delta_tilde == 0 else None
    return n_a, min_var


def lossy_approximation(kappa: complex, eta_s: complex, delta_s: float,
                        length: float) -> tuple[float, float, float]:
    """Strongly mismatched up-conversion acting as an effective loss on
    phase-matched PDC: with eps = |eta_s| / |delta_s| << 1 and
    G = |kappa| L (1 - eps^2),

        N_a ~ (1 - eps^2) sinh^2 G
        N_b ~ eps^2 sinh^2 G
        (dX_a^min)^2 ~ (1 - eps^2) e^{-2G} + eps^2.
    """
    if delta_s == 0:
        raise ValueError("lossy approximation requires delta_s != 0")
    eps2 = (abs(eta_s) / abs(delta_s)) ** 2
    if eps2 > 0.04:
        warnings.warn(f"eps_b = {math.sqrt(eps2):.3f} > 0.2: the lossy "
                      "approximation is outside its validity range",
                      stacklevel=2)
    g = abs(kappa) * length * (1.0 - eps2)
    sh2 = math.sinh(g) ** 2
    return ((1.0 - eps2) * sh2, eps2 * sh2,
            (1.0 - eps2) * math.exp(-2.0 * g) + eps2)


#: a sine below this many ulps of its own argument is rounding noise of a
#: zero, and is flushed to +0.0
_FLUSH = 8.0 * sys.float_info.epsilon


def zeta(delta, length):
    """Crystal-length average of the running phase exp(i delta z):

        zeta = sinc(delta L / 2) exp(i delta L / 2),  sinc(x) = sin(x)/x.

    A sine magnitude below the roundoff of its own argument is flushed to
    exactly zero, so delta L at an exact multiple of 2 pi (to double
    precision) yields a vanishing averaged coupling.  Numbers give a
    complex number, and arrays that broadcast an array of the same values
    elementwise: the selections are arithmetic, not branches."""
    x = delta * length / 2.0
    s = np.sin(x)
    at_zero = x == 0.0
    # the flush multiplies s by False, which leaves -0.0 for a negative s;
    # adding at_zero (0 or 1) turns that into +0.0, and at x = +-0, where
    # s = x, makes the numerator and the denominator both 1
    return (s * (abs(s) >= _FLUSH * abs(x)) + at_zero) / (x + at_zero) * np.exp(1j * x)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b of complex arrays, each part rounded as Python rounds the product
    of two complex numbers; numpy's vector loops fuse the multiply-adds."""
    return np.stack([a.real * b.real - a.imag * b.imag,
                     a.real * b.imag + a.imag * b.real], axis=-1).view(complex)[..., 0]


def averaged_model(params: ModelParams) -> ModelParams:
    """Replace the mismatched system by a phase-matched one with sinc-reduced
    coupling constants: kappa -> kappa zeta(delta_tilde), eta -> eta
    zeta(delta), all mismatches set to zero.  The result feeds the ordinary
    solvers; it approximates the non-autonomous dynamics.

    Takes one point, which it validates, or a batch whose fields are arrays
    of one shape, which its caller validates
    (:func:`cascade.params.validate_batch`): a point that fails gets values
    to discard.  Each point of a batch gets its values as one point, bit
    for bit."""
    L = params.length
    couplings = (params.kappa, params.eta_s, params.eta_i)
    mismatches = (params.delta_tilde, params.delta_s, params.delta_i)
    if not isinstance(L, np.ndarray):  # one point
        validate(params)
        averaged = [c * complex(zeta(d, L)) for c, d in zip(couplings, mismatches)]
        return ModelParams(*averaged, 0.0, 0.0, 0.0, L)
    zero = np.zeros(L.shape)
    averaged = _product(np.array(couplings), zeta(np.array(mismatches), L))
    return ModelParams(*averaged, zero, zero, zero, L)


def observables_summary(m: BogoliubovMatrix) -> dict:
    """Flat JSON-ready bundle: photon numbers always; correlators and the
    three squeezing minima when the matrix was solved for degenerate
    parameters (m.degenerate)."""
    n = photon_numbers(m)
    out = {
        "n_as": n.n_as, "n_ai": n.n_ai, "n_bs": n.n_bs, "n_bi": n.n_bi,
    }
    if m.degenerate:
        c = correlators(m)
        ra = single_mode_min_variance(m, "a")
        rb = single_mode_min_variance(m, "b")
        rc = collective_min_variance(m)
        out.update({
            "f_a": [c.f_a.real, c.f_a.imag],
            "f_b": [c.f_b.real, c.f_b.imag],
            "f_ab": [c.f_ab.real, c.f_ab.imag],
            "g_ab": [c.g_ab.real, c.g_ab.imag],
            "minvar_a": ra.min_variance, "theta_opt_a": ra.theta_opt,
            "minvar_b": rb.min_variance, "theta_opt_b": rb.theta_opt,
            "minvar_c": rc.min_variance, "theta_opt_c": rc.theta_opt,
            "delta_opt_c": rc.delta_opt,
        })
    return out
