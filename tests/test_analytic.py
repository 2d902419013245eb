import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import cascade
from cascade import analytic, closed_form
from cascade.analytic import entries_beyond_double, transfer_matrix
from cascade.bogoliubov import ENTRY_NAMES, BogoliubovMatrix
from cascade.characteristic import solve_quartic
from cascade.closed_form import MultipleRootsError, f_kernel, full_matrix
from cascade.observables import pdc_only_reference, photon_numbers
from cascade.oracle import (canonical_residuals, canonical_residuals_scaled,
                            matrix_at)
from cascade.params import (ModelParams, degenerate_params, derive,
                            is_degenerate, stack, three_mode_params, validate)


def make(kappa=0j, eta_s=0j, eta_i=0j, dt=0.0, ds=0.0, di=0.0, L=1.0):
    return validate(ModelParams(kappa=kappa, eta_s=eta_s, eta_i=eta_i,
                                delta_tilde=dt, delta_s=ds, delta_i=di,
                                length=L))


def random_params(rng, couple_max=6.0, mismatch_max=10.0):
    mags = rng.uniform(0.2, couple_max, 3)
    phases = rng.uniform(0, 2 * np.pi, 3)
    d = rng.uniform(-mismatch_max, mismatch_max, 3)
    return make(kappa=mags[0] * np.exp(1j * phases[0]),
                eta_s=mags[1] * np.exp(1j * phases[1]),
                eta_i=mags[2] * np.exp(1j * phases[2]),
                dt=d[0], ds=d[1], di=d[2], L=rng.uniform(0.2, 2.5))


def branch_gap(t: np.ndarray) -> float:
    """The largest difference between a signal row of T (0 or 2) and the
    conjugate of its idler row (1 or 3) with the columns exchanged in pairs:
    0 where the signal and idler branches coincide."""
    return np.abs(t[::2] - t[1::2, [1, 0, 3, 2]].conj()).max()


def entry_errors(m: BogoliubovMatrix, ref: BogoliubovMatrix) -> float:
    return max(abs(getattr(m, k) - getattr(ref, k))
               / max(1e-9 / 1e-6, abs(getattr(ref, k)))
               for k in ENTRY_NAMES)


class TestFKernel:
    def test_gamma_zero(self):
        assert f_kernel(1.7, 0j) == 1.7

    def test_z_zero(self):
        assert f_kernel(0.0, 3.2 - 1j) == 0

    def test_exact_value(self):
        # (e^{i pi} - 1)/(i pi) = 2i/pi
        got = f_kernel(1.0, 1j * math.pi)
        assert got == pytest.approx(2j / math.pi, rel=1e-14)

    def test_matches_high_precision_reference(self):
        # the direct formula cancels for small |gamma z|, so the reference
        # is evaluated at 50 digits
        import mpmath

        mpmath.mp.dps = 50
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = rng.uniform(0.1, 2.0)
            g = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            g *= rng.choice([1e-8, 1e-4, 0.1, 1.0, 10.0])
            ref = mpmath.expm1(mpmath.mpc(g) * z) / mpmath.mpc(g)
            assert f_kernel(z, g) == pytest.approx(complex(ref), rel=1e-13)


def branch_one(p: ModelParams, z: float) -> tuple:
    """(U_s, V_i*, K_s, L_i*): column 0 of the closed-form T, the direct
    mapping's solution from U_s(0) = 1."""
    return tuple(full_matrix(p, z).t[:, 0].tolist())


def branch_two(p: ModelParams, z: float) -> tuple:
    """(W_s, Q_i*, M_s, N_i*): column 2 of the closed-form T, the direct
    mapping's solution from M_s(0) = 1."""
    return tuple(full_matrix(p, z).t[:, 2].tolist())


class TestBranchSolvers:
    def test_initial_conditions(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = random_params(rng)
            r = solve_quartic(derive(p))
            if r.near_multiple:
                continue
            u, v, k, l = branch_one(p, 0.0)
            assert abs(u - 1) < 1e-12 and abs(v) < 1e-12
            assert abs(k) < 1e-12 and abs(l) < 1e-12
            w, q, m, n = branch_two(p, 0.0)
            assert abs(m - 1) < 1e-12 and abs(w) < 1e-12
            assert abs(q) < 1e-12 and abs(n) < 1e-12

    def test_pdc_only_closed_form(self):
        # mismatched plain PDC: U and V carry the half-mismatch phase
        ka, dt, z = 3.0 + 0j, 4.0, 1.3
        p = make(kappa=ka, dt=dt)
        g = math.sqrt(abs(ka) ** 2 - dt**2 / 4)
        u_ref = (math.cosh(g * z) - 1j * dt / (2 * g) * math.sinh(g * z)) \
            * cmath.exp(1j * dt * z / 2)
        v_ref = 1j * ka / g * math.sinh(g * z) * cmath.exp(1j * dt * z / 2)
        u, v_conj, k, l = branch_one(p, z)
        assert u == pytest.approx(u_ref, rel=1e-10)
        assert v_conj.conjugate() == pytest.approx(v_ref, rel=1e-10)
        assert abs(k) < 1e-12 and abs(l) < 1e-12

    def test_phase_matched_pdc_limit(self):
        # eta -> 0 at zero mismatch: U -> cosh(|kappa| z), V* -> -i sinh(|kappa| z);
        # corrections are O(eps^2), and eta below ~2e-3 trips the
        # multiple-root guard (the small roots collide at +-eps^2/3)
        eps = 0.01
        p = degenerate_params(3, eps, 0, 0, 1)
        assert not solve_quartic(derive(p)).near_multiple
        u, v_conj, _, _ = branch_one(p, 1.0)
        assert u == pytest.approx(math.cosh(3.0), rel=1e-3)
        assert v_conj == pytest.approx(-1j * math.sinh(3.0), rel=1e-3)

    def test_decoupled_upconverted_mode(self):
        # eta_s = 0 kills the second-branch source: (0, 0, 1, 0) at any z
        p = make(kappa=3 + 0j, eta_i=2 + 0j, dt=4.0, di=1.0)
        w, q, m, n = branch_two(p, 1.7)
        assert w == 0 and q == 0 and m == 1 and n == 0

    def test_branch_two_matches_oracle_degenerate(self):
        p = degenerate_params(3, 1, 0, 0, 2)
        got = branch_two(p, 2.0)
        ref = matrix_at(p, 2.0, rtol=1e-12, atol=1e-14)
        expect = (ref.W_s, ref.Q_i.conjugate(), ref.M_s, ref.N_i.conjugate())
        for g, e in zip(got, expect):
            assert g == pytest.approx(e, rel=1e-6, abs=1e-9)


class TestFullMatrix:
    def test_zero_couplings_identity(self):
        m = full_matrix(make(), 1.7)
        ref = BogoliubovMatrix.identity()
        for k in ENTRY_NAMES:
            assert getattr(m, k) == getattr(ref, k)

    def test_degenerate_branches_coincide(self):
        m = full_matrix(degenerate_params(3, 1.5 + 0.5j, 0.7, 2.5, 2), 1.1)
        assert branch_gap(m.t) <= 1e-12 * max(1.0, np.abs(m.t).max())

    def test_reference_point_against_oracle(self):
        p = make(kappa=3 + 0j, eta_s=1 + 0j, eta_i=2 + 0j, dt=1, ds=2, di=3)
        m = full_matrix(p, 0.7)
        ref = matrix_at(p, 0.7, rtol=1e-12, atol=1e-14)
        assert entry_errors(m, ref) < 1e-6

    def test_random_points_against_oracle(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 25:
            p = random_params(rng)
            try:
                m = full_matrix(p, p.length)
            except MultipleRootsError:
                continue
            checked += 1
            ref = matrix_at(p, p.length, rtol=1e-12, atol=1e-14)
            assert entry_errors(m, ref) < 1e-6

    def test_canonical_identities_along_z(self):
        from cascade.oracle import canonical_residuals_scaled

        rng = np.random.default_rng(31)
        checked = 0
        while checked < 15:
            p = random_params(rng)
            try:
                mats = [full_matrix(p, z)
                        for z in rng.uniform(0, p.length, 5)]
            except MultipleRootsError:
                continue
            checked += 1
            for m in mats:
                assert max(canonical_residuals_scaled(m)) < 1e-8

    def test_exponential_envelope_matches_growth_rate(self):
        from cascade.characteristic import classify

        for p in (degenerate_params(3, 1, 0, 0, 8),
                  degenerate_params(3, 1, 0, 10, 8),
                  degenerate_params(3, 4, 0, 0, 8)):
            rate_ref = classify(p).max_growth_rate
            m1, m2 = full_matrix(p, 6.0), full_matrix(p, 8.0)
            rate = (math.log(m2.max_abs()) - math.log(m1.max_abs())) / 2.0
            assert rate == pytest.approx(rate_ref, rel=0.02)

    def test_propagates_multiple_roots(self):
        # phase-matched plain PDC has a double root at zero
        p = make(kappa=3 + 0j)
        assert solve_quartic(derive(p)).near_multiple
        with pytest.raises(MultipleRootsError):
            full_matrix(p, 1.0)

    def test_package_reexports_the_reference_names(self):
        # cascade reads them from cascade.closed_form on first use, and any
        # other missing name is still missing
        for name in ("full_matrix", "f_kernel", "MultipleRootsError"):
            assert getattr(cascade, name) is getattr(closed_form, name)
        assert not hasattr(cascade, "no_such_name")


def propagator_sets(rng):
    """Random parameter sets plus those the closed form cannot take: no
    pump, phase-matched plain PDC and near-multiple characteristic roots."""
    sets = [random_params(rng) for _ in range(20)]
    sets += [make(eta_s=complex(*rng.uniform(-4, 4, 2)),
                  eta_i=complex(*rng.uniform(-4, 4, 2)),
                  dt=rng.uniform(-10, 10), ds=rng.uniform(-10, 10),
                  di=rng.uniform(-10, 10), L=rng.uniform(0.2, 2.5))
             for _ in range(4)]
    sets += [make(kappa=3 + 0j, L=1.0), make(kappa=3 + 0j, L=2.0)]
    for u in (2, 3, 4):
        ph = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        sets.append(degenerate_params(3 * ph[0], 10.0**-u * ph[1], 0, 0, 1.5))
        k = rng.uniform(1, 4)
        sets.append(three_mode_params(k * ph[0], k * (1 + 10.0**(-2 * u)) * ph[1],
                                      0, 0, 1.2))
    return sets


class TestTransferMatrix:
    def test_agrees_with_tight_oracle(self):
        sets = propagator_sets(np.random.default_rng(2))
        seps = [solve_quartic(derive(p)).min_root_separation for p in sets]
        assert min(seps) <= 1e-3
        assert any(p.kappa == 0 for p in sets)
        for p in sets:
            m = transfer_matrix(p, p.length)
            ref = matrix_at(p, p.length, rtol=1e-13, atol=1e-15)
            err = max(abs(getattr(m, k) - getattr(ref, k)) for k in ENTRY_NAMES)
            assert err <= 1e-11 * max(1.0, ref.max_abs())

    def test_scaled_canonical_residuals(self):
        rng = np.random.default_rng(5)
        for p in propagator_sets(rng):
            for z in rng.uniform(0, p.length, 4):
                m = transfer_matrix(p, z)
                assert max(canonical_residuals_scaled(m)) <= 1e-12

    def test_identity_at_input_face(self):
        m = transfer_matrix(random_params(np.random.default_rng(4)), 0.0)
        ref = BogoliubovMatrix.identity(0.0)
        for k in ENTRY_NAMES:
            assert abs(getattr(m, k) - getattr(ref, k)) <= 1e-15

    @pytest.mark.parametrize("dt", [0.0, 4.0])
    def test_weak_pump_matches_plain_pdc(self, dt):
        # the closed form cannot take these points: its roots collide as
        # kappa -> 0, and it divides by kappa after a cancellation
        for phase in (0.0, 2.1):
            p = make(kappa=1e-8 * cmath.exp(1j * phase), dt=dt, L=1.5)
            n_ref, _ = pdc_only_reference(p.kappa, dt, p.length)
            n = photon_numbers(transfer_matrix(p, p.length))
            assert n.n_as == pytest.approx(n_ref, rel=1e-12)
            assert n.n_bs == 0

    def test_branches_coincide_exactly_when_degenerate(self):
        m = transfer_matrix(degenerate_params(3, 1.5 + 0.5j, 0.7, 2.5, 2), 1.1)
        assert branch_gap(m.t) == 0.0

    def test_high_gain_overflow_is_named(self):
        # the Pade solve's gufunc raises nothing: an entry beyond double
        # precision, or a generator that is not finite, ends in the
        # transfer matrix's own failure
        for p in (degenerate_params(400, 1, 0, 3, 2),
                  ModelParams(400 + 0j, 1 + 0j, 0.5 + 0j, 0.0, 1.0, 2.0, 2.0),
                  ModelParams(1e300 + 0j, 1 + 0j, 0.5 + 0j, 0.0, 1.0, 2.0, 1e10)):
            with pytest.raises(OverflowError) as err:
                transfer_matrix(p, p.length)
            assert str(err.value) == str(entries_beyond_double())


_MAGNITUDE = st.floats(-10.0, 2.0).map(lambda e: 10.0**e)
_PHASE = st.floats(0.0, 2 * math.pi)
_MISMATCH = st.one_of(st.just(0.0), st.tuples(_MAGNITUDE, st.sampled_from((-1, 1)))
                      .map(lambda t: t[0] * t[1]))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(mags=st.tuples(_MAGNITUDE, _MAGNITUDE, _MAGNITUDE),
       phases=st.tuples(_PHASE, _PHASE, _PHASE),
       mismatches=st.tuples(_MISMATCH, _MISMATCH, _MISMATCH),
       length=st.floats(0.1, 2.0))
def test_transfer_matrix_is_canonical_over_magnitudes(mags, phases, mismatches,
                                                      length):
    # |kappa| L stays below 200, far from the double-precision overflow
    k, es, ei = (m * cmath.exp(1j * ph) for m, ph in zip(mags, phases))
    p = make(kappa=k, eta_s=es, eta_i=ei, dt=mismatches[0], ds=mismatches[1],
             di=mismatches[2], L=length)
    m = transfer_matrix(p, length)
    assert max(canonical_residuals_scaled(m)) <= 1e-12


# the rows form of degenerate points

def complex_generator_matrix(p: ModelParams, z: float) -> np.ndarray:
    """T from scipy's exponential of the complex rotating-frame generator, a
    reference that shares no arithmetic with the package's exponential."""
    phase, gz = analytic._generators(p, z)
    return phase * expm(gz)


def test_expm_of_rows_forms_matches_the_full_exponential():
    # a stack of rows forms (rows 0 and 2 of matrices with X = P conj(X) P)
    # comes back as rows 0 and 2 of the exponentials of the full matrices,
    # here scipy's
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((64, 2, 4)) + 1j * rng.standard_normal((64, 2, 4))
    rows *= rng.uniform(0.0, 2.0, (64, 1, 1))
    got = analytic._expm(rows)
    want = expm(analytic._full(rows))
    assert got.shape == (64, 2, 4) and got.dtype == np.complex128
    assert np.isfinite(got).all()
    scale = np.abs(want).max(axis=(-2, -1))
    assert (np.abs(got - want[:, ::2]).max(axis=(-2, -1)) <= 1e-14 * scale).all()


def test_degenerate_batch_branches_coincide_exactly():
    # eta_i = eta_s, so the diagonal delta_i = delta_s is degenerate
    base = ModelParams(kappa=2.5 + 0.5j, eta_s=1.5 - 0.5j, eta_i=1.5 - 0.5j,
                       delta_tilde=3.0, delta_s=0.0, delta_i=0.0, length=1.5)
    grid = np.linspace(-6.0, 6.0, 9)
    points = [replace(base, delta_s=ds, delta_i=di) for ds in grid for di in grid]
    t = analytic.transfer_matrices(stack(points), base.length * np.ones(len(points)))
    degenerate = [k for k, p in enumerate(points) if p.delta_s == p.delta_i]
    assert len(degenerate) == 9
    for k in degenerate:
        assert branch_gap(t[k]) == 0.0


_DEG_MAG = st.one_of(st.just(0.0), st.floats(0.05, 5.0))
_DEG_DELTA = st.one_of(st.just(0.0), st.floats(-12.0, 12.0))


@st.composite
def degenerate_points(draw):
    length = draw(st.floats(0.2, 3.0))
    k, e = (draw(_DEG_MAG) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
            for _ in range(2))
    return degenerate_params(k / length, e / length, draw(_DEG_DELTA),
                             draw(_DEG_DELTA), length)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(degenerate_points(), st.floats(0.0, 1.0))
def test_real_form_matches_the_complex_exponential(p, frac):
    z = frac * p.length
    want = complex_generator_matrix(p, z)
    bound = 1e-13 * np.abs(want).max()
    edges = [replace(p, kappa=0j), replace(p, eta_s=0j, eta_i=0j)]
    batch = analytic.transfer_matrices(stack([p] + edges), np.full(3, z))
    assert np.abs(transfer_matrix(p, z).t - want).max() <= bound
    assert np.abs(batch[0] - want).max() <= bound
    for q, t in zip(edges, batch[1:]):
        ref = complex_generator_matrix(q, z)
        assert np.abs(t - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("p", [degenerate_params(2, 0, 4, 3, 1.5),
                               degenerate_params(0, 2 + 0.5j, 4, 3, 1.5),
                               degenerate_params(0, 2, 0, 7, 3)],
                         ids=["eta=0", "kappa=0", "kappa=0,delta_tilde=0"])
def test_unsqueezed_modes_print_exact_zeros(p):
    # a mode that does not squeeze (b decoupled at eta = 0; both modes at
    # kappa = 0) keeps exactly zero creation-operator entries through the
    # squarings of the rows form, as through the complex exponential
    x = analytic._full(analytic._row_generators(p, p.length)[1])
    assert np.abs(x).sum(axis=0).max() > analytic._THETA13  # it is squared
    for t in (transfer_matrix(p, p.length).t,
              analytic.transfer_matrices(stack([p]), np.array([p.length]))[0]):
        n = photon_numbers(BogoliubovMatrix(p.length, t))
        assert n.n_bs == 0.0
        if p.kappa == 0:
            assert n.n_as == 0.0


#: the creation-operator entries of T (row, column): an annihilation output
#: on a creation input, and the conjugate rows
_A_CREATION = ((0, 1), (0, 3), (1, 0), (1, 2))
_B_CREATION = ((2, 1), (2, 3), (3, 0), (3, 2))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(degenerate_points(), st.floats(0.0, 1.0))
def test_unsqueezed_modes_keep_exact_zeros(p, frac):
    # kappa = 0: neither mode squeezes; eta = 0: b is decoupled and does not
    # squeeze.  Their creation entries are exactly 0 whatever the scaling.
    z = frac * p.length
    edges = [replace(p, kappa=0j), replace(p, eta_s=0j, eta_i=0j)]
    batch = analytic.transfer_matrices(stack(edges), np.full(2, z))
    for q, t_batch, zeros in zip(edges, batch, (_A_CREATION + _B_CREATION,
                                                _B_CREATION)):
        for t in (transfer_matrix(q, z).t, t_batch):
            assert all(t[ij] == 0 for ij in zeros)


# the full exponential of non-degenerate points against 50-digit mpmath

def mpmath_transfer_matrix(p: ModelParams, z: float) -> np.ndarray:
    """T = diag(e^{i theta z}) exp(G z) at 50 digits, with the rotating-frame
    generator G written out from the module docstring of cascade.analytic,
    rounded to complex doubles."""
    import mpmath

    with mpmath.workdps(50):
        i, z = mpmath.mpc(0, 1), mpmath.mpf(z)
        a, b, c = (mpmath.mpc(v) for v in (p.kappa, p.eta_s, p.eta_i))
        d1, d2, d3 = (mpmath.mpf(v) for v in (p.delta_tilde, p.delta_s, p.delta_i))
        g = mpmath.matrix([[0, i * a, i * mpmath.conj(b), 0],
                           [-i * mpmath.conj(a), i * d1, 0, -i * c],
                           [i * b, 0, i * d2, 0],
                           [0, -i * mpmath.conj(c), 0, -i * (d3 - d1)]])
        x = mpmath.expm(g * z)
        theta = (0, -d1, -d2, d3 - d1)
        return np.array([[complex(mpmath.exp(i * theta[j] * z) * x[j, k])
                          for k in range(4)] for j in range(4)])


#: the truth panel as edits of random general points: 16 general, 16
#: three-mode (eta_i = 0 = delta_i), 4 at kappa = 0, 4 at eta_s = eta_i = 0
_PANEL_EDITS = (16 * [{}] + 16 * [dict(eta_i=0j, delta_i=0.0)]
                + 4 * [dict(kappa=0j)] + 4 * [dict(eta_s=0j, eta_i=0j)])


def truth_panel(seed: int = 1616) -> list:
    """Seeded non-degenerate points with |kappa| L <= 10 (L <= 2.5)."""
    rng = np.random.default_rng(seed)
    return [replace(random_params(rng, couple_max=4.0), **edit) for edit in _PANEL_EDITS]


def test_full_exponential_matches_mpmath():
    # no other check holds the non-degenerate T to extended precision: the
    # oracle agrees to about 1e-10, scipy's expm is another double-precision
    # exponential
    points = truth_panel()
    batch = stack(points)
    assert not is_degenerate(batch).any()
    lengths = np.array([p.length for p in points])
    for p, t in zip(points, analytic.transfer_matrices(batch, lengths)):
        want = mpmath_transfer_matrix(p, p.length)
        bound = 1e-13 * np.abs(want).max()
        assert np.abs(transfer_matrix(p, p.length).t - want).max() <= bound
        assert np.abs(t - want).max() <= bound
