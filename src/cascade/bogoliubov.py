"""Container for the 16 Bogoliubov transfer functions.

The slowly-varying annihilation operators at position z are a linear
canonical (Bogoliubov) map of the input operators:

    alpha_s(z) = U_s alpha_s(0) + V_s alpha_i+(0) + W_s beta_s(0) + Q_s beta_i+(0)
    beta_s(z)  = K_s alpha_s(0) + L_s alpha_i+(0) + M_s beta_s(0) + N_s beta_i+(0)

and the same with s <-> i.  alpha refers to the PDC modes, beta to the
up-converted modes.  Fast carrier phases exp(i k z) are never materialized;
all observables implemented downstream are insensitive to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: serialization order of the complex entries
ENTRY_NAMES = ("U_s", "V_s", "W_s", "Q_s", "K_s", "L_s", "M_s", "N_s",
               "U_i", "V_i", "W_i", "Q_i", "K_i", "L_i", "M_i", "N_i")


@dataclass(frozen=True)
class BogoliubovMatrix:
    z: float
    U_s: complex
    V_s: complex
    W_s: complex
    Q_s: complex
    K_s: complex
    L_s: complex
    M_s: complex
    N_s: complex
    U_i: complex
    V_i: complex
    W_i: complex
    Q_i: complex
    K_i: complex
    L_i: complex
    M_i: complex
    N_i: complex

    @classmethod
    def identity(cls, z: float = 0.0) -> "BogoliubovMatrix":
        """The z = 0 transfer matrix: U = M = 1 on both branches, rest 0."""
        e = {name: 0j for name in ENTRY_NAMES}
        e.update(U_s=1 + 0j, M_s=1 + 0j, U_i=1 + 0j, M_i=1 + 0j)
        return cls(z=z, **e)

    @classmethod
    def from_branches(cls, z: float, direct_one, direct_two, swapped_one,
                      swapped_two) -> "BogoliubovMatrix":
        """Assemble the 16 entries from the solution vectors (Y1, Y2, Y3, Y4)
        of the four branch systems: the direct parameter mapping started from
        (1, 0, 0, 0) and (0, 0, 1, 0), then the signal/idler-swapped mapping
        from the same two initial conditions.  Y2 and Y4 hold conjugated
        entries."""
        def conj(v) -> complex:
            return complex(v).conjugate()

        U_s, V_i, K_s, L_i = direct_one
        W_s, Q_i, M_s, N_i = direct_two
        U_i, V_s, K_i, L_s = swapped_one
        W_i, Q_s, M_i, N_s = swapped_two
        return cls(
            z=z,
            U_s=complex(U_s), V_s=conj(V_s), W_s=complex(W_s), Q_s=conj(Q_s),
            K_s=complex(K_s), L_s=conj(L_s), M_s=complex(M_s), N_s=conj(N_s),
            U_i=complex(U_i), V_i=conj(V_i), W_i=complex(W_i), Q_i=conj(Q_i),
            K_i=complex(K_i), L_i=conj(L_i), M_i=complex(M_i), N_i=conj(N_i),
        )

    def entries(self) -> dict:
        return {name: getattr(self, name) for name in ENTRY_NAMES}

    def max_abs(self) -> float:
        return max(abs(getattr(self, name)) for name in ENTRY_NAMES)

    def ab_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The (A, B) blocks of the canonical transformation written on the
        mode vector (alpha_s, alpha_i, beta_s, beta_i): annihilation part A,
        creation part B."""
        m = self
        A = np.array([
            [m.U_s, 0, m.W_s, 0],
            [0, m.U_i, 0, m.W_i],
            [m.K_s, 0, m.M_s, 0],
            [0, m.K_i, 0, m.M_i],
        ], dtype=complex)
        B = np.array([
            [0, m.V_s, 0, m.Q_s],
            [m.V_i, 0, m.Q_i, 0],
            [0, m.L_s, 0, m.N_s],
            [m.L_i, 0, m.N_i, 0],
        ], dtype=complex)
        return A, B

    def to_dict(self) -> dict:
        out = {"z": self.z}
        for name in ENTRY_NAMES:
            v = getattr(self, name)
            out[name] = [v.real, v.imag]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "BogoliubovMatrix":
        kw = {"z": float(data["z"])}
        for name in ENTRY_NAMES:
            re, im = data[name]
            kw[name] = complex(re, im)
        return cls(**kw)


def branches_coincide(m: BogoliubovMatrix, tol: float = 1e-6) -> bool:
    """True when the signal and idler branches agree entry by entry, as they
    do for degenerate parameters (eta_i = eta_s, delta_i = delta_s)."""
    scale = max(1.0, m.max_abs())
    return all(
        abs(getattr(m, f"{k}_s") - getattr(m, f"{k}_i")) <= tol * scale
        for k in ("U", "V", "W", "Q", "K", "L", "M", "N")
    )
