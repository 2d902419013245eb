"""The Bogoliubov map of the four modes as one 4x4 transfer matrix.

The slowly-varying annihilation operators at position z are a linear
canonical (Bogoliubov) map of the input operators:

    alpha_s(z) = U_s alpha_s(0) + V_s alpha_i+(0) + W_s beta_s(0) + Q_s beta_i+(0)
    beta_s(z)  = K_s alpha_s(0) + L_s alpha_i+(0) + M_s beta_s(0) + N_s beta_i+(0)

and the same with s <-> i.  alpha refers to the PDC modes, beta to the
up-converted modes.  On the mode vector v = (alpha_s, alpha_i+, beta_s,
beta_i+) the map is v(z) = T v(0) with

        | U_s   V_s   W_s   Q_s  |
    T = | V_i*  U_i*  Q_i*  W_i* |
        | K_s   L_s   M_s   N_s  |
        | L_i*  K_i*  N_i*  M_i* |

and since [v_j, v_k+] = J_jk with J = diag(1, -1, 1, -1), preserving the
commutators means T J T^H = J.  This module is the only one that knows
which named transfer function sits where in T.  Fast carrier phases
exp(i k z) are never materialized; all observables implemented downstream
are insensitive to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: name -> (row, column, stored conjugated) of each entry of T; the order is
#: the serialization order
_LAYOUT = {
    "U_s": (0, 0, False), "V_s": (0, 1, False), "W_s": (0, 2, False), "Q_s": (0, 3, False),
    "K_s": (2, 0, False), "L_s": (2, 1, False), "M_s": (2, 2, False), "N_s": (2, 3, False),
    "U_i": (1, 1, True), "V_i": (1, 0, True), "W_i": (1, 3, True), "Q_i": (1, 2, True),
    "K_i": (3, 1, True), "L_i": (3, 0, True), "M_i": (3, 3, True), "N_i": (3, 2, True),
}

#: serialization order of the complex entries
ENTRY_NAMES = tuple(_LAYOUT)

#: the columns of the idler rows 1 and 3 that hold, conjugated, the entries
#: that columns 0, 1, 2, 3 of the signal rows 0 and 2 hold (U, V, W, Q and
#: K, L, M, N)
_SWAP = [1, 0, 3, 2]


@dataclass(frozen=True, eq=False)
class BogoliubovMatrix:
    """The transfer matrix t = T at position z.  The named transfer
    functions read as attributes (m.U_s); ``rows`` holds T as nested lists
    of Python complex numbers for scalar arithmetic.  degenerate is
    :func:`cascade.params.is_degenerate` of the parameters T was solved
    for, set by each solver: the squeezing metrics read it."""

    z: float
    t: np.ndarray
    degenerate: bool = False
    rows: list = field(init=False, repr=False)

    def __post_init__(self):
        t = np.array(self.t, dtype=complex)
        if t.shape != (4, 4):
            raise ValueError(f"transfer matrix must be 4x4, got shape {t.shape}")
        t.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "rows", t.tolist())

    def __getattr__(self, name: str) -> complex:
        if name not in _LAYOUT:
            raise AttributeError(name)
        row, col, conj = _LAYOUT[name]
        v = self.rows[row][col]
        return v.conjugate() if conj else v

    @classmethod
    def identity(cls, z: float = 0.0, degenerate: bool = True) -> "BogoliubovMatrix":
        """The z = 0 transfer matrix T = I: the vacuum, degenerate unless a
        solver passes the flag of non-degenerate parameters."""
        t = np.eye(4, dtype=complex)
        t[1::2] = t[1::2].conj()  # stored conjugated, so the entries read +0j
        return cls(z, t, degenerate)

    def max_abs(self) -> float:
        return max(abs(v) for row in self.rows for v in row)

    def ab_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The (A, B) blocks of the canonical transformation written on the
        mode vector (alpha_s, alpha_i, beta_s, beta_i): annihilation part A,
        creation part B."""
        s = self.t.copy()
        s[1::2] = s[1::2].conj()
        creation = np.add.outer(range(4), range(4)) % 2 == 1
        return np.where(creation, 0, s), np.where(creation, s, 0)

    def to_dict(self) -> dict:
        out = {"z": self.z}
        for name, (row, col, conj) in _LAYOUT.items():
            v = self.rows[row][col]
            out[name] = [v.real, -v.imag if conj else v.imag]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "BogoliubovMatrix":
        """T from its :meth:`to_dict` form, which carries no ``degenerate``
        flag: the matrix read back refuses squeezing until it is re-flagged,
        ``BogoliubovMatrix(m.z, m.t, is_degenerate(params))``."""
        t = np.empty((4, 4), dtype=complex)
        for name, (row, col, conj) in _LAYOUT.items():
            v = complex(*data[name])
            t[row, col] = v.conjugate() if conj else v
        return cls(float(data["z"]), t)
