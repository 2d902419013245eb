"""Correctness checks of benchmark outputs against bench/reference.py and
the method's exact properties.  Nothing is compared with stored output.

Tolerances sit one to three orders of magnitude above the largest error
seen over 15 000 random points of the point_queries distribution (photon
numbers 7e-10, squeezing minima 1.4e-9, photon balance 1e-11, scaled
symplectic residuals 2e-11, growth rates 2.5e-14 of the root scale) and far
below any physically visible difference.
"""

from __future__ import annotations

import math

import numpy as np

import reference

PHOTON_RTOL = 1e-7
MINVAR_RTOL = 1e-6
BALANCE_RTOL = 1e-9
#: criterion 01's gate on the scaled canonical residuals
SYMPLECTIC_TOL = 1e-8
#: growth-rate agreement, relative to the root scale max(1, max |eig G|)
GROWTH_TOL = 1e-9
#: a point amplifies when max Re eig(G) exceeds this share of the root
#: scale; at a double root eigenvalues are resolved only to ~sqrt(eps)
AMPLIFYING_TOL = 1e-8
#: absolute error allowed in the collective minimum per unit of the terms
#: that cancel in its formula (errors seen: up to 1e-15 of 1 + N_a + N_b)
CANCELLATION_TOL = 1e-13
PLAIN_PDC_RTOL = 1e-9
#: |n_bs| on the |eta_s| = 0 row, where the up-converted mode stays empty
EMPTY_MODE_ATOL = 1e-12


class Checker:
    """Counts checked values and keeps the first few failures per check."""

    def __init__(self):
        self.checked = 0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(what)

    def close(self, got, ref, rtol: float, what: str, atol: float = 0.0) -> None:
        got = np.asarray(got, dtype=float).ravel()
        ref = np.asarray(ref, dtype=float).ravel()
        bad = np.flatnonzero(~(np.abs(got - ref) <= rtol * np.abs(ref) + atol))
        self.checked += got.size
        for i in bad[:3]:
            self.failures.append(f"{what}[{i}]: got {got[i]!r}, reference {ref[i]!r}")
        if len(bad) > 3:
            self.failures.append(f"{what}: {len(bad) - 3} more mismatches")


def _eig_real_parts(params_list) -> tuple[np.ndarray, np.ndarray]:
    ev = reference.eigenvalues(params_list)
    return np.sort(ev.real, axis=1), np.maximum(1.0, np.abs(ev).max(axis=1))


def regimes(chk: Checker, labels, params_list, growth=None, roots=None,
            what: str = "regime") -> None:
    """Area I exactly where G has no eigenvalue with positive real part
    (area V excluded); reported growth rates and root real parts equal
    those of eig(G)."""
    if not params_list:
        return
    re, scale = _eig_real_parts(params_list)
    rate = re[:, -1]
    for k, label in enumerate(labels):
        if label == "V":
            continue
        amplifies = rate[k] > AMPLIFYING_TOL * scale[k]
        chk.expect(amplifies == (label != "I"),
                   f"{what}[{k}]: label {label} but max Re eig(G) = {rate[k]:.3e}")
    if growth is not None:
        chk.close(growth, rate, 0.0, f"{what}.growth_rate", atol=GROWTH_TOL * scale)
    if roots is not None:
        got = np.sort(np.array([[r.real for r in rs] for rs in roots]), axis=1)
        chk.close(got, re, 0.0, f"{what}.root_real_parts",
                  atol=np.repeat(GROWTH_TOL * scale, 4))


def photon_numbers(chk: Checker, got: np.ndarray, blocks, columns,
                   what: str) -> None:
    """got[:, j] is the occupation of mode columns[j], an index into
    (n_as, n_ai, n_bs, n_bi)."""
    ref = reference.photon_numbers(*blocks)[:, columns]
    chk.close(got, ref, PHOTON_RTOL, what, atol=1e-12)


def balance(chk: Checker, n: np.ndarray, what: str) -> None:
    """n_as + n_bs = n_ai + n_bi for columns (n_as, n_ai, n_bs, n_bi)."""
    lhs, rhs = n[:, 0] + n[:, 2], n[:, 1] + n[:, 3]
    chk.close(lhs, rhs, BALANCE_RTOL, what, atol=BALANCE_RTOL)


def single_mode_minima(chk: Checker, got_a, got_b, blocks, what: str) -> None:
    ref_a, ref_b = reference.single_mode_minima(*blocks)
    if got_a is not None:
        chk.close(got_a, ref_a, MINVAR_RTOL, f"{what}.minvar_a")
    if got_b is not None:
        chk.close(got_b, ref_b, MINVAR_RTOL, f"{what}.minvar_b")


def collective_minimum(chk: Checker, got_c, blocks, what: str) -> None:
    """The package evaluates 1 + N_a + N_b + 2 Re(G e^{id}) - |F(d)|, whose
    terms cancel down to the minimum, so its error scales with
    1 + N_a + N_b rather than with the result."""
    n = reference.photon_numbers(*blocks)
    chk.close(got_c, reference.collective_minimum(*blocks), MINVAR_RTOL,
              f"{what}.minvar_c", atol=CANCELLATION_TOL * (1.0 + n[:, 0] + n[:, 2]))


def symplectic(chk: Checker, matrices, what: str) -> None:
    """A A^H - B B^H = I and A B^T - B A^T = 0 from ab_blocks(), each entry
    divided by the sum of the magnitudes of its terms (floored at 1), the
    scaling of criterion 01."""
    if not matrices:
        return
    A, B = (np.stack(x) for x in zip(*(m.ab_blocks() for m in matrices)))
    aA, aB = np.abs(A), np.abs(B)
    r1 = A @ A.conj().swapaxes(1, 2) - B @ B.conj().swapaxes(1, 2) - np.eye(4)
    s1 = aA @ aA.swapaxes(1, 2) + aB @ aB.swapaxes(1, 2) + np.eye(4)
    r2 = A @ B.swapaxes(1, 2) - B @ A.swapaxes(1, 2)
    s2 = aA @ aB.swapaxes(1, 2) + aB @ aA.swapaxes(1, 2)
    worst = np.maximum((np.abs(r1) / np.maximum(1.0, s1)).max(axis=(1, 2)),
                       (np.abs(r2) / np.maximum(1.0, s2)).max(axis=(1, 2)))
    chk.close(worst, np.zeros_like(worst), 0.0, what, atol=SYMPLECTIC_TOL)


def plain_pdc(chk: Checker, kappa_l: float, n_as, n_bs, minvar_a,
              what: str) -> None:
    """Without up-conversion: n_a = sinh^2(kappa L), n_b = 0 and the
    squeezed variance e^{-2 kappa L} (phase-matched PDC)."""
    m = len(n_as)
    chk.close(n_as, np.full(m, math.sinh(kappa_l) ** 2), PLAIN_PDC_RTOL, f"{what}.n_as")
    chk.close(n_bs, np.zeros(m), 0.0, f"{what}.n_bs", atol=EMPTY_MODE_ATOL)
    chk.close(minvar_a, np.full(m, math.exp(-2.0 * kappa_l)), PLAIN_PDC_RTOL,
              f"{what}.minvar_a")
