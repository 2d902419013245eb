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
coefficients of T describe it (_collective_coefficients), and one
evaluator gives its variance and the exact derivatives of its logarithm at
any phase (_objective).  The search evaluates a 64-point phase grid in real
arithmetic, the polynomials' coefficients times constant tables of cos and
sin (_grid), and refines its lowest local minimum, and the second-lowest
where there is one, by safeguarded Newton steps (_newton) to a step below
1e-10 rad, each start leaving the working arrays once it stops; the
reported minimum is the evaluator's variance at the phase where its start
stopped, and a search still moving at its cap fails with ConvergenceError.

Every formula takes Python complex values or numpy arrays: the
single-point functions evaluate one matrix, and :func:`stack_observables`
a stack of them with the same formulas and the same steps, and every
element stops on its own state, so no element's result depends on the rest
of the stack.  Each |z|^2 is :func:`cascade.params._abs_sq` (re re + im
im), so a photon number of one matrix equals its stack row bit for bit; a
minimum may differ in its last bits, where numpy fuses the complex
products of the Lagrange minor.  Both paths have one overflow rule: a
value is computed first, and one that is not finite is a failure,
beyond_double(name), which a single-point function raises and a scan
records in the point's row.

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
from .params import COUPLINGS, FIELDS, ModelParams, _abs_sq, beyond_double, validate


@dataclass(frozen=True)
class PhotonNumbers:
    """Mean photon numbers of the four modes (vacuum input)."""

    n_as: float
    n_ai: float
    n_bs: float
    n_bi: float


#: the observables' names, in the order of a scan's columns and of
#: :func:`observables_summary`: the four photon numbers, and the squeezing
#: minima of modes a and b and of the balanced collective mode
PHOTONS = tuple(PhotonNumbers.__dataclass_fields__)
MINIMA = ("minvar_a", "minvar_b", "minvar_c")


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
    return (_abs_sq(v_s) + _abs_sq(q_s), _abs_sq(v_i) + _abs_sq(q_i),
            _abs_sq(l_s) + _abs_sq(n_s), _abs_sq(l_i) + _abs_sq(n_i))


def photon_numbers(m: BogoliubovMatrix) -> PhotonNumbers:
    """Vacuum expectation of the mode occupations: each mode collects the
    squared magnitudes of its creation-operator coefficients: the entries of
    its row of T (alpha_s, alpha_i+, beta_s, beta_i+) in the columns of the
    other parity.  beyond_double("photon number") where one is not
    finite."""
    n = _occupations(m.rows)
    if not all(map(math.isfinite, n)):
        raise beyond_double("photon number")
    return PhotonNumbers(*n)


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


def _stable_min_variance(x1, x2, y1, y2, n):
    """1 + 2N - 2|F| for N = n = |y1|^2 + |y2|^2 (the mode's photon number),
    F = x1 y1 + x2 y2, evaluated through the cancellation-free
    Lagrange-identity form (x1, x2 are the annihilation-row entries, y1, y2
    the creation-row entries).  Takes complex scalars or arrays of them.
    Where the denominator 1 + 2N + 2|F| is not finite, also while N is, the
    quotient reads exactly 0.0 (or NaN), so the minimum is inf there, and
    its caller names it beyond_double(f"minvar_{mode}"); a finite
    denominator keeps the quotient's bits."""
    f = x1 * y1 + x2 * y2
    gap = _abs_sq(x1 * y2.conjugate() - x2 * y1.conjugate())
    den = 1.0 + 2.0 * n + 2.0 * abs(f)
    return _where(den < math.inf, (1.0 + 4.0 * gap) / den, math.inf)  # false at inf and NaN


def single_mode_min_variance(m: BogoliubovMatrix, mode: str) -> SqueezingReport:
    """Minimal single-mode quadrature variance for the PDC mode ("a") or the
    up-converted mode ("b") of a degenerate matrix.  A bad mode is a
    ValueError first; then the failures of the point's scan row, in its
    order: beyond_double("photon number") where any photon number of the
    matrix is not finite, ValueError(DEGENERATE_ONLY) off the degenerate
    configuration, and beyond_double(f"minvar_{mode}") where the minimum
    is not finite."""
    if mode not in ("a", "b"):
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    n = photon_numbers(m)
    _require_degenerate(m)
    # the mode's signal row of T: annihilation entries x, creation entries y
    x1, y1, x2, y2 = m.rows[0 if mode == "a" else 2]
    f = x1 * y1 + x2 * y2
    theta = (math.pi - cmath.phase(f)) / 2 if f != 0 else math.pi / 2
    min_variance = _stable_min_variance(x1, x2, y1, y2, n.n_as if mode == "a" else n.n_bs)
    if not math.isfinite(min_variance):
        raise beyond_double(f"minvar_{mode}")
    return SqueezingReport(min_variance=min_variance, theta_opt=theta)


#: the coarse phase grid of the collective minimum; Newton steps refine its
#: starts until a step is at most _TOL rad, or until h' times the bracket is
#: at most _FLAT, so that the objective cannot move by more than rounding
#: across its bracket
_GRID_POINTS = 64
_STEP = 2.0 * math.pi / _GRID_POINTS
_GRID = _STEP * np.arange(_GRID_POINTS)
_TOL = 1e-10
_FLAT = 8.0 * sys.float_info.epsilon
#: the steps a start may take: twice the bisections that alone shrink its
#: bracket of two grid spacings below _TOL
_MAX_STEPS = 2 * math.ceil(math.log2(2.0 * _STEP / _TOL))


class ConvergenceError(ArithmeticError):
    """The collective phase search was still moving after its last step."""


def unconverged() -> ConvergenceError:
    """The failure of a collective search still moving at its cap, for one
    matrix and for a scan's failure rows."""
    return ConvergenceError(f"minvar_c: the phase search was still moving "
                            f"after {_MAX_STEPS} Newton steps")


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
    return (1.0 + (_abs_sq(a1) + _abs_sq(b1) + _abs_sq(a3) + _abs_sq(b3)),
            2.0 * (a1c * b1 + a3c * b3),
            a0 * a1 + a2 * a3,
            a0 * b1 + b0 * a1 + a2 * b3 + b2 * a3,
            b0 * b1 + b2 * b3,
            a0 * a3c + b0 * b3c - a2 * a1c - b2 * b1c,
            b0 * a3c - b2 * a1c,
            a0 * b3c - a2 * b1c)


#: the trigonometric basis of the grid: rows 1, cos d, sin d, cos 2d and
#: sin 2d at the grid phases
_BASIS = np.array([np.ones(_GRID_POINTS), np.cos(_GRID), np.sin(_GRID),
                   np.cos(2.0 * _GRID), np.sin(2.0 * _GRID)])


def _grid(c: tuple) -> np.ndarray:
    """The collective variance with coefficients c at the grid phases, in
    real arithmetic.  With A = g1 + g_{-1} and B = g1 - g_{-1},

        Re Lc = Re g0 + Re A cos d - Im B sin d
        Im Lc = Im g0 + Im A cos d + Re B sin d
        1 + 2N = m0 + Re m1 cos d - Im m1 sin d

    and Re F, Im F are polynomials of degree two in cos d, sin d, cos 2d and
    sin 2d, so the five are one table of coefficients times _BASIS, and

        g = (1 + (Re Lc)^2 + (Im Lc)^2) / (1 + 2N + sqrt((Re F)^2 + (Im F)^2)).

    c holds Python numbers (one matrix; values (64,)) or arrays (n,)
    (values (n, 64)).  The products are one np.einsum: it sums each value
    in the same order in both cases and whatever n is, where a BLAS product
    would not, so no value depends on the rest of its stack.  The einsum
    lays its output out in its table's memory order, and the tail below
    runs on each of the five polynomials' planes, so the table is
    polynomial-major, (5 polynomials, n, 5 basis functions): each plane is
    then one contiguous (n, 64) block.  A point-major table (n, 5, 5) would
    leave each plane runs of 64 values with the other four planes' runs in
    between, on which the tail runs several times slower."""
    m0, m1, f0, f1, f2, g0, g1, gm1 = c
    a, b = g1 + gm1, g1 - gm1
    # one row per polynomial (Re Lc, Im Lc, 1 + 2N, Re F, Im F), one column
    # per basis function
    rows = [[g0.real, a.real, -b.imag, 0.0, 0.0],
            [g0.imag, a.imag, b.real, 0.0, 0.0],
            [m0, m1.real, -m1.imag, 0.0, 0.0],
            [f0.real, f1.real, -f1.imag, f2.real, -f2.imag],
            [f0.imag, f1.imag, f1.real, f2.imag, f2.real]]
    if isinstance(m0, np.ndarray):  # a stack's (5, n, 5) table, written
        # through its (5, 5, n) view; the zero columns are not written
        table = np.zeros((5,) + m0.shape + (5,))
        table.swapaxes(1, -1)[:3, :3] = [row[:3] for row in rows[:3]]
        table.swapaxes(1, -1)[3:] = rows[3:]
    else:
        table = np.array(rows)
    re_l, im_l, n, re_f, im_f = np.einsum("p...k,kj->p...j", table, _BASIS)
    del rows, table  # gone before the tail, where a chunk's memory peaks
    # the formula above in place, operation for operation: a chunk's
    # values are large
    re_l *= re_l
    re_l += 1.0
    im_l *= im_l
    re_l += im_l
    re_f *= re_f
    im_f *= im_f
    re_f += im_f
    np.sqrt(re_f, out=re_f)
    n += re_f
    return re_l / n  # a new array, so the einsum's block goes on return


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


def _objective(c: tuple, d) -> tuple:
    """The collective variance g with coefficients c at delta = d, and h'
    and h'' of h = log g: with e = e^{i d}, Lc = g0 + g1 e + g_{-1} e* and
    F = f0 + (f1 + f2 e) e,

        g = (1 + |Lc|^2) / (m0 + Re(m1 e) + |F|),

    and the derivatives are exact ones of the trigonometric polynomials.
    c and d are Python numbers (cmath) or arrays that broadcast (numpy).  A
    vanishing |F| divides by 1 (F = 0 at every phase at T = I), so no
    division fails: where g leaves double precision it is inf or NaN, for
    Python numbers as for arrays, and the callers check the minimum."""
    m0, m1, f0, f1, f2, g0, g1, gm1 = c
    e = np.exp(1j * d) if isinstance(d, np.ndarray) else cmath.exp(1j * d)
    ge, gme, fe, ffe, me = g1 * e, gm1 * e.conjugate(), f1 * e, f2 * e * e, m1 * e
    lc, lc1, lc2 = g0 + ge + gme, 1j * (ge - gme), -(ge + gme)
    f, fd1, fd2 = f0 + (f1 + f2 * e) * e, 1j * (fe + 2.0 * ffe), -(fe + 4.0 * ffe)
    p = 1.0 + _abs_sq(lc)
    p1 = 2.0 * (lc.conjugate() * lc1).real
    p2 = 2.0 * ((lc1 * lc1.conjugate()).real + (lc.conjugate() * lc2).real)
    af = abs(f)
    af0 = af + (af == 0)
    # z = F* F' / |F|: |F|' = Re z, and |F'|^2 - (|F|')^2 = (Im z)^2
    z = f.conjugate() * fd1 / af0
    q = m0 + me.real + af
    q1 = z.real - me.imag
    q2 = (z.imag * z.imag + (f.conjugate() * fd2).real) / af0 - me.real
    r, s = p1 / p, q1 / q
    return p / q, r - s, p2 / p - r * r - q2 / q + s * s


def _where(cond, x, y):
    """x where cond holds, else y: np.where for arrays, a branch for the
    Python numbers of one matrix (np.where would make them numpy's)."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def _step(c: tuple, d, lo, hi) -> tuple:
    """One safeguarded Newton step of _newton from d in the bracket
    [lo, hi]: the variance at d, the next iterate, the shrunk bracket, and
    whether the start still moves (elementwise for arrays)."""
    g, h1, h2 = _objective(c, d)
    lo, hi = _where(h1 < 0, d, lo), _where(h1 > 0, d, hi)
    newton = d - h1 / (h2 + (h2 == 0))  # at h2 = 0 it bisects: no step
    nxt = _where((h2 > 0) & (lo <= newton) & (newton <= hi), newton, (lo + hi) / 2)
    return g, nxt, lo, hi, (abs(nxt - d) > _TOL) & (abs(h1) * (hi - lo) > _FLAT)


def _newton(c: tuple, d) -> tuple:
    """Refine grid starts d to a local minimum of the collective variance
    with coefficients c, by Newton steps on h' with a bisection safeguard
    (Numerical Recipes, 3rd ed., section 9.4).  d and c are Python numbers
    (one start), or arrays of one shape (n,).

    Each start keeps a closed bracket, at first one grid spacing on either
    side, which the sign of h' shrinks to one side of the iterate.  It
    bisects where h'' <= 0 or the Newton step leaves the bracket, and it
    freezes, keeping its iterate, once its step is at most _TOL rad or
    |h'| times the bracket is at most _FLAT.  A frozen start leaves the
    working arrays (its coefficients, iterate and bracket) and is written
    to the output at its index; the loop runs until no start moves, for at
    most _MAX_STEPS steps.  Every test is elementwise, so no start depends
    on the others.  Returns the iterate each start stopped on (its last
    evaluated one), the variance there, and whether the start was still
    moving after the last step."""
    lo, hi = d - _STEP, d + _STEP
    if not isinstance(d, np.ndarray):  # one start
        for k in range(_MAX_STEPS):
            g, nxt, lo, hi, moving = _step(c, d, lo, hi)
            if not moving or k == _MAX_STEPS - 1:
                return d, g, moving
            d = nxt
    out, values, at = np.empty_like(d), np.empty_like(d), np.arange(len(d))
    for _ in range(_MAX_STEPS):
        g, nxt, lo, hi, moving = _step(c, d, lo, hi)
        out[at], values[at] = d, g
        keep = np.flatnonzero(moving)
        if not len(keep):
            return out, values, np.zeros(len(out), dtype=bool)
        at, d, lo, hi = at[keep], nxt[keep], lo[keep], hi[keep]
        c = [v[keep] for v in c]
    still = np.zeros(len(out), dtype=bool)
    still[at] = True
    return out, values, still


def collective_min_variance(m: BogoliubovMatrix) -> SqueezingReport:
    """Minimal quadrature variance of the balanced collective mode
    (a + e^{i delta} b)/sqrt(2) of a degenerate matrix.

    At fixed relative phase the theta minimum is the single-mode one of the
    collective mode, evaluated in the cancellation-free form from seven
    coefficients of T (see _collective_coefficients; the expanded
    1 + N_a + N_b + 2 Re[G e^{i d}] - |F(d)| cancels at high gain).  The
    lowest local minimum of a 64-point grid over [0, 2 pi), and the
    second-lowest where there is one (see _starts), are each refined by
    safeguarded Newton steps (see _newton), and the lower of the variances
    where they stopped is reported: the same starts and steps
    :func:`stack_observables` runs on arrays.
    Since the report minimizes over the phase, bare carrier wavevectors
    (which only shift it) never enter.  Its failures are the point's scan
    row's, in the row's order: beyond_double("photon number") where any
    photon number of the matrix is not finite and ValueError(DEGENERATE_ONLY)
    off the degenerate configuration, both before the search, then
    ConvergenceError where a start is still moving after its last step, and
    beyond_double("minvar_c") where the minimum is not finite.
    """
    photon_numbers(m)
    _require_degenerate(m)
    a_row, _, b_row, _ = m.rows
    c = _collective_coefficients(a_row, b_row)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = _grid(c)
    _, phases = _starts(grid[None])
    best = None
    for k in phases.tolist():
        d, value, moving = _newton(c, k * _STEP)
        if moving:
            raise unconverged()
        if best is None or value < best[0]:
            best = value, d
    value, d_opt = best
    if not math.isfinite(value):
        raise beyond_double("minvar_c")
    e = cmath.exp(1j * d_opt)
    _, _, f0, f1, f2, _, _, _ = c
    f_tot = f0 + (f1 + f2 * e) * e  # 2 F
    theta = (math.pi - cmath.phase(f_tot)) / 2 if f_tot != 0 else math.pi / 2
    return SqueezingReport(min_variance=value, theta_opt=theta,
                           delta_opt=d_opt % (2.0 * math.pi))


def stack_observables(t: np.ndarray, quantities) -> dict:
    """Photon numbers of a stack of transfer matrices (n, 4, 4), always all
    four (PHOTONS), and the squeezing minima among quantities (of MINIMA),
    as arrays (n,): the formulas and the phase search of the single-point
    functions: the collective search refines every point's grid starts (see
    _starts) as one flat array and keeps each point's lowest result; with it
    comes "unconverged", True at the points with a finite minimum where a
    start was still moving after its last step.  The minima are meaningful
    at degenerate points only; the caller reads
    :func:`cascade.params.is_degenerate` of the stack's parameters."""
    rows = np.moveaxis(t, (-2, -1), (0, 1))
    out = dict(zip(PHOTONS, _occupations(rows)))
    for q, row, n in (("minvar_a", rows[0], "n_as"), ("minvar_b", rows[2], "n_bs")):
        if q in quantities:
            x1, y1, x2, y2 = row
            out[q] = _stable_min_variance(x1, x2, y1, y2, out[n])
    if "minvar_c" in quantities:
        c = _collective_coefficients(rows[0], rows[2])
        points, phases = _starts(_grid(c))
        c = [v[points] for v in c]
        _, values, moving = _newton(c, phases * _STEP)
        out["minvar_c"] = np.full(len(t), np.inf)
        np.minimum.at(out["minvar_c"], points, values)
        out["unconverged"] = np.zeros(len(t), dtype=bool)
        out["unconverged"][points[moving & np.isfinite(values)]] = True
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


#: the mismatches, in the order the averaged model checks their products
#: with the length
MISMATCHES = FIELDS[3:6]


def averaged_model(params: ModelParams) -> ModelParams:
    """Replace the mismatched system by a phase-matched one with sinc-reduced
    coupling constants: kappa -> kappa zeta(delta_tilde), eta -> eta
    zeta(delta), all mismatches set to zero.  The result feeds the ordinary
    solvers; it approximates the non-autonomous dynamics.

    Takes one point, which it validates, or a batch whose fields are arrays
    of one shape, which its caller validates
    (:func:`cascade.params.validate_batch`): a point that fails gets values
    to discard.  Each point of a batch gets its values as one point, bit
    for bit, except that one point whose mismatch name times the length
    leaves double precision raises beyond_double(f"{name} * length"), where
    a batch gives it NaN couplings and the engine records that error as its
    failure."""
    L = params.length
    couplings = [getattr(params, name) for name in COUPLINGS]
    mismatches = [getattr(params, name) for name in MISMATCHES]
    if not isinstance(L, np.ndarray):  # one point
        validate(params)
        for name, d in zip(MISMATCHES, mismatches):
            if math.isinf(d * L):
                raise beyond_double(f"{name} * length")
        averaged = [c * complex(zeta(d, L)) for c, d in zip(couplings, mismatches)]
        return ModelParams(*averaged, 0.0, 0.0, 0.0, L)
    zero = np.zeros(L.shape)
    averaged = _product(np.array(couplings), zeta(np.array(mismatches), L))
    return ModelParams(*averaged, zero, zero, zero, L)


def observables_summary(m: BogoliubovMatrix) -> dict:
    """Flat JSON-ready bundle: photon numbers always; correlators and the
    three squeezing minima when the matrix was solved for degenerate
    parameters (m.degenerate)."""
    out = dict(vars(photon_numbers(m)))
    if m.degenerate:
        c = correlators(m)
        ra = single_mode_min_variance(m, "a")
        rb = single_mode_min_variance(m, "b")
        rc = collective_min_variance(m)
        out.update({name: [z.real, z.imag] for name, z in vars(c).items()})
        out.update({
            "minvar_a": ra.min_variance, "theta_opt_a": ra.theta_opt,
            "minvar_b": rb.min_variance, "theta_opt_b": rb.theta_opt,
            "minvar_c": rc.min_variance, "theta_opt_c": rc.theta_opt,
            "delta_opt_c": rc.delta_opt,
        })
    return out
