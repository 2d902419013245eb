import math

import numpy as np
import pytest

from cascade.bogoliubov import ENTRY_NAMES, BogoliubovMatrix
from cascade.oracle import (StepSizeUnderflow, canonical_residuals,
                            canonical_residuals_scaled, integrate, matrix_at)
from cascade.params import ModelParams, degenerate_params, validate


def make(kappa=0j, eta_s=0j, eta_i=0j, dt=0.0, ds=0.0, di=0.0, L=1.0):
    return validate(ModelParams(kappa=kappa, eta_s=eta_s, eta_i=eta_i,
                                delta_tilde=dt, delta_s=ds, delta_i=di,
                                length=L))


def test_zero_couplings_identity_everywhere():
    traj = integrate(make(L=2.0), np.linspace(0, 2, 9))
    ref = BogoliubovMatrix.identity()
    for m in traj.matrices:
        for k in ENTRY_NAMES:
            assert getattr(m, k) == pytest.approx(getattr(ref, k), abs=1e-12)


def test_grid_defaults_and_invariants():
    traj = integrate(make(kappa=1 + 0j, L=1.5))
    assert len(traj.z_grid) == 512
    assert traj.z_grid[0] == 0.0
    assert all(b > a for a, b in zip(traj.z_grid, traj.z_grid[1:]))
    m0 = traj.matrices[0]
    assert m0.U_s == 1 and m0.M_s == 1 and m0.V_s == 0


@pytest.mark.parametrize("end", [math.nan, math.inf])
def test_grid_must_be_finite(end):
    with pytest.raises(ValueError, match="finite"):
        integrate(make(kappa=1 + 0j, L=1.0), np.array([0.0, end]))


def test_grid_validation():
    p = make(kappa=1 + 0j, L=1.0)
    with pytest.raises(ValueError):
        integrate(p, np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        integrate(p, np.array([0.0, 2.0]))


def test_pdc_only_photon_number():
    # phase-matched plain PDC: |V(L)|^2 = sinh^2(|kappa| L)
    m = matrix_at(make(kappa=3 + 0j, L=1.0), 1.0)
    assert abs(m.V_s) ** 2 == pytest.approx(math.sinh(3.0) ** 2, rel=1e-8)
    assert m.L_s == 0 and m.N_s == 0


def test_oscillatory_area_iii_energy_exchange():
    # strongly coupled up-conversion: photon numbers oscillate with z while
    # the envelope grows at |kappa|/2
    p = degenerate_params(3, 4, 0, 0, 2)
    traj = integrate(p, np.linspace(0, 2, 41))
    n_a = np.array([abs(m.V_s) ** 2 + abs(m.Q_s) ** 2 for m in traj.matrices])
    envelope = np.sinh(1.5 * np.array(traj.z_grid)) ** 2
    ratio = n_a[5:] / envelope[5:]
    assert ratio.max() / ratio.min() > 1.5  # genuine oscillation
    assert n_a[-1] > 10  # and net growth


def test_canonical_residuals_identity_matrix():
    assert max(canonical_residuals(BogoliubovMatrix.identity())) == 0.0


def test_canonical_residuals_flag_broken_matrix():
    m = matrix_at(make(kappa=2 + 0j, dt=3.0, L=1.0), 1.0)
    data = m.to_dict()
    data["U_s"] = [2 * m.U_s.real, 2 * m.U_s.imag]
    bad = BogoliubovMatrix.from_dict(data)
    res = canonical_residuals(bad)
    assert res[0] == pytest.approx(3 * abs(m.U_s) ** 2, rel=1e-12)


def test_canonical_residuals_small_along_trajectory():
    # absolute violations scale with the squared entries, so the bound is on
    # the scaled residuals (the integration preserves the symplectic
    # structure to solver accuracy)
    rng = np.random.default_rng(77)
    for _ in range(5):
        p = make(kappa=rng.uniform(1, 6) * np.exp(1j * rng.uniform(0, 6.28)),
                 eta_s=rng.uniform(0, 6) * np.exp(1j * rng.uniform(0, 6.28)),
                 eta_i=rng.uniform(0, 6) * np.exp(1j * rng.uniform(0, 6.28)),
                 dt=rng.uniform(-10, 10), ds=rng.uniform(-10, 10),
                 di=rng.uniform(-10, 10), L=2.0)
        traj = integrate(p, np.linspace(0, 2, 17))
        assert max(max(canonical_residuals_scaled(m))
                   for m in traj.matrices) < 1e-8


def test_self_convergence():
    p = make(kappa=3 + 0j, eta_s=2 + 0j, eta_i=1 + 0j, dt=5.0, ds=-3.0,
             di=7.0, L=2.0)
    grid = np.array([0.0, 2.0])
    t1 = integrate(p, grid)
    t2 = integrate(p, grid, rtol=0.5e-10, atol=0.5e-12)
    m1, m2 = t1.matrices[-1], t2.matrices[-1]
    change = max(abs(getattr(m1, k) - getattr(m2, k)) for k in ENTRY_NAMES)
    assert change < 10 * t1.estimated_error


def test_step_size_underflow_on_pathological_magnitudes():
    # the stalled steps' overflows raise no numpy warning
    with pytest.raises(StepSizeUnderflow):
        integrate(make(kappa=1e160 + 0j, L=1.0), np.array([0.0, 1.0]))
