import numpy as np
import pytest

from cascade.analytic import transfer_matrix
from cascade.bogoliubov import ENTRY_NAMES, BogoliubovMatrix
from cascade.oracle import canonical_residuals, canonical_residuals_scaled
from cascade.params import ModelParams, validate

#: a general four-mode point: no degeneracy, every coupling and mismatch set
GENERAL = validate(ModelParams(kappa=3 + 0j, eta_s=2 + 1j, eta_i=1 + 0j,
                               delta_tilde=5.0, delta_s=-3.0, delta_i=7.0,
                               length=2.0))


def test_dict_round_trip_is_bitwise():
    m = transfer_matrix(GENERAL, GENERAL.length)
    data = m.to_dict()
    assert list(data) == ["z", *ENTRY_NAMES]
    back = BogoliubovMatrix.from_dict(data)
    assert back.z == m.z
    def entry_bytes(mat):
        return np.array([getattr(mat, name) for name in ENTRY_NAMES]).tobytes()

    assert entry_bytes(back) == entry_bytes(m)
    assert back.t.tobytes() == m.t.tobytes()


def test_ab_blocks_match_named_layout():
    m = transfer_matrix(GENERAL, GENERAL.length)
    A, B = m.ab_blocks()
    np.testing.assert_array_equal(A, np.array([
        [m.U_s, 0, m.W_s, 0],
        [0, m.U_i, 0, m.W_i],
        [m.K_s, 0, m.M_s, 0],
        [0, m.K_i, 0, m.M_i],
    ], dtype=complex))
    np.testing.assert_array_equal(B, np.array([
        [0, m.V_s, 0, m.Q_s],
        [m.V_i, 0, m.Q_i, 0],
        [0, m.L_s, 0, m.N_s],
        [m.L_i, 0, m.N_i, 0],
    ], dtype=complex))


def test_matrix_is_read_only():
    m = BogoliubovMatrix.identity()
    with pytest.raises(ValueError):
        m.t[0, 0] = 2.0
    with pytest.raises(AttributeError):
        m.U_s = 2.0
    with pytest.raises(AttributeError):
        m.X_s
    with pytest.raises(ValueError, match="4x4"):
        BogoliubovMatrix(0.0, np.identity(3))


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_every_entry_is_constrained(name):
    # the canonical conditions T J T^H = J must notice a change of any one
    # of the 16 entries
    m = transfer_matrix(GENERAL, GENERAL.length)
    assert max(canonical_residuals_scaled(m)) <= 1e-12
    data = m.to_dict()
    data[name][0] += 1e-6 * m.max_abs()
    bad = BogoliubovMatrix.from_dict(data)
    assert max(canonical_residuals_scaled(bad)) > 1e-8


def test_residual_entries_are_the_named_identities():
    # T J T^H = J spelled out: the four normalizations on the diagonal and
    # the six cross relations off it, on a matrix that violates all of them
    rng = np.random.default_rng(3)
    m = BogoliubovMatrix(1.0, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    r = np.reshape(canonical_residuals(m), (4, 4))
    U, V, W, Q, K, L, M, N = (getattr(m, f"{k}_s") for k in "UVWQKLMN")
    Ui, Vi, Wi, Qi, Ki, Li, Mi, Ni = (getattr(m, f"{k}_i") for k in "UVWQKLMN")
    expected = {
        (0, 0): abs(U)**2 + abs(W)**2 - abs(V)**2 - abs(Q)**2 - 1,
        (1, 1): abs(Ui)**2 + abs(Wi)**2 - abs(Vi)**2 - abs(Qi)**2 - 1,
        (2, 2): abs(K)**2 + abs(M)**2 - abs(L)**2 - abs(N)**2 - 1,
        (3, 3): abs(Ki)**2 + abs(Mi)**2 - abs(Li)**2 - abs(Ni)**2 - 1,
        (0, 2): U.conjugate() * K + W.conjugate() * M
        - V.conjugate() * L - Q.conjugate() * N,
        (1, 3): Ui.conjugate() * Ki + Wi.conjugate() * Mi
        - Vi.conjugate() * Li - Qi.conjugate() * Ni,
        (0, 1): U * Vi + W * Qi - Ui * V - Wi * Q,
        (2, 3): K * Li + M * Ni - Ki * L - Mi * N,
        (0, 3): U * Li + W * Ni - Ki * V - Mi * Q,
        (2, 1): Ui * L + Wi * N - K * Vi - M * Qi,
    }
    for (j, k), value in expected.items():
        assert r[j, k] == pytest.approx(abs(value), rel=1e-12)
        assert r[k, j] == pytest.approx(abs(value), rel=1e-12)
