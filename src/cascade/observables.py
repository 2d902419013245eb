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

Single-mode and collective squeezing metrics are defined for the degenerate
configuration only (signal and idler branches coincide); four-mode scans
report photon numbers alone.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bogoliubov import BogoliubovMatrix, branches_coincide
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


def photon_numbers(m: BogoliubovMatrix) -> PhotonNumbers:
    """Vacuum expectation of the mode occupations: each mode collects the
    squared magnitudes of its creation-operator coefficients."""
    return PhotonNumbers(
        n_as=abs(m.V_s) ** 2 + abs(m.Q_s) ** 2,
        n_ai=abs(m.V_i) ** 2 + abs(m.Q_i) ** 2,
        n_bs=abs(m.L_s) ** 2 + abs(m.N_s) ** 2,
        n_bi=abs(m.L_i) ** 2 + abs(m.N_i) ** 2,
    )


def _require_degenerate(m: BogoliubovMatrix) -> None:
    if not branches_coincide(m):
        raise ValueError("squeezing metrics are defined for degenerate "
                         "matrices only (signal branch != idler branch)")


def correlators(m: BogoliubovMatrix) -> Correlators:
    """Degenerate-case correlators built from the signal branch."""
    _require_degenerate(m)
    return Correlators(
        f_a=m.U_s * m.V_s + m.W_s * m.Q_s,
        f_b=m.K_s * m.L_s + m.M_s * m.N_s,
        f_ab=m.U_s * m.L_s + m.W_s * m.N_s,
        g_ab=np.conj(m.V_s) * m.L_s + np.conj(m.Q_s) * m.N_s,
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
    if mode == "a":
        x1, x2, y1, y2 = m.U_s, m.W_s, m.V_s, m.Q_s
        f = m.U_s * m.V_s + m.W_s * m.Q_s
    elif mode == "b":
        x1, x2, y1, y2 = m.K_s, m.M_s, m.L_s, m.N_s
        f = m.K_s * m.L_s + m.M_s * m.N_s
    else:
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    theta = (math.pi - cmath.phase(f)) / 2 if f != 0 else math.pi / 2
    return SqueezingReport(
        min_variance=_stable_min_variance(x1, x2, y1, y2),
        theta_opt=theta,
    )


_DELTA_GRID = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
_E1 = np.exp(1j * _DELTA_GRID)


def collective_min_variance(m: BogoliubovMatrix) -> SqueezingReport:
    """Minimal quadrature variance of the balanced collective mode
    (a + e^{i delta} b)/sqrt(2) of a degenerate matrix.

    At fixed relative phase the theta minimum is the single-mode one of the
    collective mode's rows x = (x_a + e^{i d} x_b)/sqrt(2) and
    y = (y_a + e^{i d} y_b)/sqrt(2), evaluated in the cancellation-free form
    (the expanded 1 + N_a + N_b + 2 Re[G e^{i d}] - |F(d)| cancels at high
    gain).  The phase minimum is located on a 1024-point grid over [0, 2 pi)
    followed by golden-section refinement to 1e-10.  Since the report
    minimizes over the phase, bare carrier wavevectors (which only shift it)
    never enter.
    """
    _require_degenerate(m)
    r = math.sqrt(0.5)
    rows = [(r * xa, r * xb) for xa, xb in
            ((m.U_s, m.K_s), (m.W_s, m.M_s), (m.V_s, m.L_s), (m.Q_s, m.N_s))]

    def collective(e):
        return [xa + e * xb for xa, xb in rows]

    def theta_min(e):
        return _stable_min_variance(*collective(e))

    values = theta_min(_E1)
    k = int(np.argmin(values))
    lo = _DELTA_GRID[k] - 2.0 * np.pi / 1024
    hi = _DELTA_GRID[k] + 2.0 * np.pi / 1024
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - ratio * (b - a)
    x2 = a + ratio * (b - a)
    f1 = theta_min(cmath.exp(1j * x1))
    f2 = theta_min(cmath.exp(1j * x2))
    while b - a > 1e-10:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - ratio * (b - a)
            f1 = theta_min(cmath.exp(1j * x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + ratio * (b - a)
            f2 = theta_min(cmath.exp(1j * x2))
    d_opt = (a + b) / 2
    e_opt = cmath.exp(1j * d_opt)
    x1, x2, y1, y2 = collective(e_opt)
    f_tot = x1 * y1 + x2 * y2
    theta = (math.pi - cmath.phase(f_tot)) / 2 if f_tot != 0 else math.pi / 2
    return SqueezingReport(
        min_variance=float(_stable_min_variance(x1, x2, y1, y2)),
        theta_opt=theta,
        delta_opt=d_opt % (2.0 * math.pi),
    )


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


def zeta(delta: float, length: float) -> complex:
    """Crystal-length average of the running phase exp(i delta z):

        zeta = sinc(delta L / 2) exp(i delta L / 2),  sinc(x) = sin(x)/x.

    A sine magnitude below the roundoff of its own argument is flushed to
    exactly zero, so delta L at an exact multiple of 2 pi (to double
    precision) yields a vanishing averaged coupling."""
    x = delta * length / 2.0
    if x == 0.0:
        return 1.0 + 0j
    s = math.sin(x)
    if abs(s) < 8.0 * np.finfo(float).eps * abs(x):
        s = 0.0
    return s / x * cmath.exp(1j * x)


def averaged_model(params: ModelParams) -> ModelParams:
    """Replace the mismatched system by a phase-matched one with sinc-reduced
    coupling constants: kappa -> kappa zeta(delta_tilde), eta -> eta
    zeta(delta), all mismatches set to zero.  The result feeds the ordinary
    solvers; it approximates the non-autonomous dynamics."""
    validate(params)
    L = params.length
    return replace(
        params,
        kappa=params.kappa * zeta(params.delta_tilde, L),
        eta_s=params.eta_s * zeta(params.delta_s, L),
        eta_i=params.eta_i * zeta(params.delta_i, L),
        delta_tilde=0.0, delta_s=0.0, delta_i=0.0,
    )


def observables_summary(m: BogoliubovMatrix) -> dict:
    """Flat JSON-ready bundle: photon numbers always; correlators and the
    three squeezing minima when the matrix is degenerate."""
    n = photon_numbers(m)
    out = {
        "n_as": n.n_as, "n_ai": n.n_ai, "n_bs": n.n_bs, "n_bi": n.n_bi,
    }
    if branches_coincide(m):
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
