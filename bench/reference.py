"""Reference computations made apart from the package under test.

The transfer map comes from one 4x4 matrix exponential per branch pair of
the rotating-frame generator G.  With Y_k = exp(i theta_k z) X_k and
theta = (0, -D1, -D2, D3 - D1), each generic system of the closed form
becomes X' = G X with constant

    X1' =  i a X2 + i b* X3
    X2' = -i a* X1 + i D1 X2 - i c X4
    X3' =  i b X1 + i D2 X3
    X4' = -i c* X2 - i (D3 - D1) X4

The direct mapping (b = eta_s, c = eta_i) gives columns e1 and e3 for
(U_s, V_i*, K_s, L_i*) and (W_s, Q_i*, M_s, N_i*); the swapped mapping gives
the idler-branch entries.  The eigenvalues of G are the characteristic roots
shifted along the imaginary axis, so max Re eig(G) is the growth rate.

Squeezing minima are the squared smallest singular value of the real
quadrature map of the output mode (vacuum variance 1), which needs no
closed-form variance formula.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize_scalar


def _generators(a, b, c, d1, d2, d3) -> np.ndarray:
    n = len(a)
    g = np.zeros((n, 4, 4), dtype=complex)
    g[:, 0, 1] = 1j * a
    g[:, 0, 2] = 1j * np.conj(b)
    g[:, 1, 0] = -1j * np.conj(a)
    g[:, 1, 1] = 1j * d1
    g[:, 1, 3] = -1j * c
    g[:, 2, 0] = 1j * b
    g[:, 2, 2] = 1j * d2
    g[:, 3, 1] = -1j * np.conj(c)
    g[:, 3, 3] = -1j * (d3 - d1)
    return g


def _fields(params_list):
    f = {k: np.array([getattr(p, k) for p in params_list])
         for k in ("kappa", "eta_s", "eta_i", "delta_tilde", "delta_s",
                   "delta_i", "length")}
    f["kappa"] = f["kappa"].astype(complex)
    f["eta_s"] = f["eta_s"].astype(complex)
    f["eta_i"] = f["eta_i"].astype(complex)
    return f


def eigenvalues(params_list) -> np.ndarray:
    """The four eigenvalues of G per parameter set (direct mapping; the
    swapped system's are their conjugates)."""
    f = _fields(params_list)
    g = _generators(f["kappa"], f["eta_s"], f["eta_i"], f["delta_tilde"],
                    f["delta_s"], f["delta_i"])
    return np.linalg.eigvals(g)


def _propagate(a, b, c, d1, d2, d3, z) -> np.ndarray:
    g = _generators(a, b, c, d1, d2, d3) * z[:, None, None]
    theta = np.stack([np.zeros_like(d1), -d1, -d2, d3 - d1], axis=1)
    return np.exp(1j * theta * z[:, None])[:, :, None] * expm(g)


def transfer_blocks(params_list) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of the output map at z = length on the mode vector
    (alpha_s, alpha_i, beta_s, beta_i), stacked over the parameter sets."""
    f = _fields(params_list)
    z = f["length"]
    e = _propagate(f["kappa"], f["eta_s"], f["eta_i"], f["delta_tilde"],
                   f["delta_s"], f["delta_i"], z)
    w = _propagate(f["kappa"], f["eta_i"], f["eta_s"], f["delta_tilde"],
                   f["delta_i"], f["delta_s"], z)
    U_s, V_i, K_s, L_i = e[:, 0, 0], np.conj(e[:, 1, 0]), e[:, 2, 0], np.conj(e[:, 3, 0])
    W_s, Q_i, M_s, N_i = e[:, 0, 2], np.conj(e[:, 1, 2]), e[:, 2, 2], np.conj(e[:, 3, 2])
    U_i, V_s, K_i, L_s = w[:, 0, 0], np.conj(w[:, 1, 0]), w[:, 2, 0], np.conj(w[:, 3, 0])
    W_i, Q_s, M_i, N_s = w[:, 0, 2], np.conj(w[:, 1, 2]), w[:, 2, 2], np.conj(w[:, 3, 2])
    n = len(z)
    A = np.zeros((n, 4, 4), dtype=complex)
    B = np.zeros((n, 4, 4), dtype=complex)
    A[:, 0, 0], A[:, 0, 2], A[:, 1, 1], A[:, 1, 3] = U_s, W_s, U_i, W_i
    A[:, 2, 0], A[:, 2, 2], A[:, 3, 1], A[:, 3, 3] = K_s, M_s, K_i, M_i
    B[:, 0, 1], B[:, 0, 3], B[:, 1, 0], B[:, 1, 2] = V_s, Q_s, V_i, Q_i
    B[:, 2, 1], B[:, 2, 3], B[:, 3, 0], B[:, 3, 2] = L_s, N_s, L_i, N_i
    return A, B


def photon_numbers(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Vacuum occupations (n_as, n_ai, n_bs, n_bi): row norms of B."""
    return (np.abs(B) ** 2).sum(axis=-1)


def _quadrature_map(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Real 2 x 2m map from input quadratures (x_j, p_j) to the output
    (x, p) of the mode sum_j c_j a_j + d_j a_j^+, with x = a + a^+ and
    p = -i (a - a^+)."""
    s, t = c + d, c - d
    top = np.stack([s.real, -t.imag], axis=-1).reshape(*c.shape[:-1], -1)
    bot = np.stack([s.imag, t.real], axis=-1).reshape(*c.shape[:-1], -1)
    return np.stack([top, bot], axis=-2)


def _min_variance(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    return np.linalg.svd(_quadrature_map(c, d), compute_uv=False)[..., -1] ** 2


def degenerate_rows(A: np.ndarray, B: np.ndarray):
    """Annihilation and creation coefficients of the PDC mode a and the
    up-converted mode b in the degenerate case, where alpha_i = alpha_s and
    beta_i = beta_s are one mode each (input modes a, b)."""
    ca, da = A[:, 0, [0, 2]], B[:, 0, [1, 3]]
    cb, db = A[:, 2, [0, 2]], B[:, 2, [1, 3]]
    return ca, da, cb, db


def single_mode_minima(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ca, da, cb, db = degenerate_rows(A, B)
    return _min_variance(ca, da), _min_variance(cb, db)


_PHASES = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)


def collective_minimum(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Minimum over the relative phase d and the quadrature angle of the
    variance of (a + e^{i d} b) / sqrt(2): brute force on a 4096-point phase
    grid, then bounded Brent refinement around the best grid point."""
    ca, da, cb, db = degenerate_rows(A, B)
    out = np.empty(len(ca))
    step = _PHASES[1]
    for k in range(len(ca)):
        def var(d):
            e = np.exp(1j * np.atleast_1d(d))[:, None]
            return _min_variance((ca[k] + e * cb[k]) / np.sqrt(2.0),
                                 (da[k] + e * db[k]) / np.sqrt(2.0))
        grid = var(_PHASES)
        d0 = _PHASES[int(np.argmin(grid))]
        res = minimize_scalar(lambda d: float(var(d)[0]),
                              bounds=(d0 - step, d0 + step), method="bounded",
                              options={"xatol": 1e-12})
        out[k] = min(float(res.fun), float(grid.min()))
    return out
