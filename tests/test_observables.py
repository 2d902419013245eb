import cmath
import math
import warnings

import numpy as np
import pytest

from cascade.bogoliubov import BogoliubovMatrix
from cascade.observables import (averaged_model, collective_min_variance,
                                 correlators, lossy_approximation,
                                 observables_summary, pdc_only_reference,
                                 photon_numbers, single_mode_min_variance,
                                 zeta)
from cascade.params import ModelParams, beyond_double, degenerate_params, validate
from cascade.scan import evaluate_points, solve_point


def make(kappa=0j, eta_s=0j, eta_i=0j, dt=0.0, ds=0.0, di=0.0, L=1.0):
    return validate(ModelParams(kappa=kappa, eta_s=eta_s, eta_i=eta_i,
                                delta_tilde=dt, delta_s=ds, delta_i=di,
                                length=L))


IDENTITY = BogoliubovMatrix.identity()


class TestPhotonNumbers:
    def test_vacuum_stays_vacuum(self):
        n = photon_numbers(IDENTITY)
        assert (n.n_as, n.n_ai, n.n_bs, n.n_bi) == (0, 0, 0, 0)

    def test_pdc_only_high_gain(self):
        m = solve_point(make(kappa=3 + 0j, L=2.0))
        n = photon_numbers(m)
        assert n.n_as == pytest.approx(math.sinh(6.0) ** 2, rel=1e-9)
        assert n.n_bs == 0.0

    def test_high_gain_plateau_point(self):
        # strongly coupled phase-matched case: both modes near sinh^2(kL/2)
        m = solve_point(degenerate_params(3, 4, 0, 0, 2))
        n = photon_numbers(m)
        ref = math.sinh(3.0) ** 2
        assert ref / 2 < n.n_as < 2 * ref
        assert ref / 2 < n.n_bs < 2 * ref

    def test_degenerate_symmetry(self):
        m = solve_point(degenerate_params(2, 1.5, 3.0, -4.0, 1.5))
        n = photon_numbers(m)
        assert n.n_as == pytest.approx(n.n_ai, rel=1e-12, abs=1e-12)
        assert n.n_bs == pytest.approx(n.n_bi, rel=1e-12, abs=1e-12)


class TestCorrelators:
    def test_vanish_at_input_face(self):
        c = correlators(IDENTITY)
        assert c.f_a == 0 and c.f_b == 0 and c.f_ab == 0 and c.g_ab == 0

    def test_rejects_non_degenerate(self):
        m = solve_point(make(kappa=3 + 0j, eta_s=1 + 0j, eta_i=2 + 0j,
                             dt=1, ds=2, di=3, L=0.7))
        with pytest.raises(ValueError):
            correlators(m)


class TestSingleModeVariance:
    def test_vacuum(self):
        r = single_mode_min_variance(IDENTITY, "a")
        assert r.min_variance == 1.0

    def test_pdc_only_squeezing(self):
        # phase-matched plain PDC squeezes to exp(-2 Gamma)
        for ka, L in ((1.0, 1.0), (3.0, 2.0)):
            m = solve_point(make(kappa=ka + 0j, L=L))
            r = single_mode_min_variance(m, "a")
            assert r.min_variance == pytest.approx(math.exp(-2 * ka * L),
                                                   rel=1e-9)

    def test_mismatched_upconversion_floor(self):
        # weak mismatched up-conversion limits the squeezing near
        # (1 - eps^2) exp(-2 G) + eps^2 with eps = |eta| / delta_s
        p = degenerate_params(3, 1, 0, 10, 3)
        r = single_mode_min_variance(solve_point(p), "a")
        eps2 = 0.01
        ref = (1 - eps2) * math.exp(-2 * 9 * (1 - eps2)) + eps2
        assert r.min_variance == pytest.approx(ref, rel=0.15)

    def test_squeezing_floor_invariant(self):
        # at fixed eps = 0.05 the exact minimum never dips below 0.9 eps^2
        eps = 0.05
        for g in np.linspace(0.25, 6, 24):
            p = degenerate_params(g, g, 0, g / eps, 1.0)
            r = single_mode_min_variance(solve_point(p), "a")
            assert r.min_variance >= 0.9 * eps**2

    def test_uncertainty_product(self):
        # min x max = 1 + 4 |U Q* - W V*|^2 >= 1
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = degenerate_params(rng.uniform(0.5, 4), rng.uniform(0, 4),
                                  rng.uniform(-8, 8), rng.uniform(-8, 8), 1.0)
            m = solve_point(p)
            n = photon_numbers(m).n_as
            f = abs(correlators(m).f_a)
            r = single_mode_min_variance(m, "a")
            max_var = 1 + 2 * n + 2 * f
            assert r.min_variance * max_var >= 1 - 1e-9
            # and the stable form agrees with the naive one where it is safe
            if n < 1e3:
                assert r.min_variance == pytest.approx(1 + 2 * n - 2 * f,
                                                       abs=1e-9)

    def test_theta_optimal(self):
        m = solve_point(degenerate_params(2, 0.5, 1.0, 3.0, 1.0))
        n = photon_numbers(m).n_as
        c = correlators(m)
        r = single_mode_min_variance(m, "a")
        # direct evaluation of the variance at the reported angle
        var = 1 + 2 * n + 2 * abs(c.f_a) * math.cos(2 * r.theta_opt
                                                    + cmath.phase(c.f_a))
        assert var == pytest.approx(r.min_variance, rel=1e-9, abs=1e-12)

    def test_mode_b_and_bad_mode(self):
        m = solve_point(degenerate_params(3, 4, 0, 0, 2))
        assert single_mode_min_variance(m, "b").min_variance < 1
        with pytest.raises(ValueError):
            single_mode_min_variance(m, "c")

    def test_rejects_non_degenerate(self):
        m = solve_point(make(kappa=3 + 0j, eta_s=1 + 0j, eta_i=2 + 0j, L=0.5))
        with pytest.raises(ValueError):
            single_mode_min_variance(m, "a")

    def test_overflowing_photon_number_fails_as_the_scan_row(self):
        # at kappa L = 358 the mode's N leaves double precision while its
        # Lagrange gap cancels to exactly 0, so 1 / (1 + 2N + 2|F|) would
        # be a silent 0.0: the minimum fails as the point's scan row does
        p = degenerate_params(179, 1, 0, 3, 2)
        (row,) = evaluate_points([p], ("minvar_a",), "analytic")
        with pytest.raises(OverflowError) as err:
            single_mode_min_variance(solve_point(p), "a")
        assert str(err.value) == str(row) == "photon number exceeds double precision"


class TestCollectiveVariance:
    def test_vacuum(self):
        r = collective_min_variance(IDENTITY)
        assert r.min_variance == pytest.approx(1.0, abs=1e-12)

    def test_pdc_only_limit(self):
        # b mode in vacuum: minimum is (1 + exp(-2 Gamma))/2
        ka, L = 2.0, 1.0
        m = solve_point(make(kappa=ka + 0j, L=L))
        r = collective_min_variance(m)
        assert r.min_variance == pytest.approx((1 + math.exp(-2 * ka * L)) / 2,
                                               rel=1e-9)

    def test_two_mode_squeezing_where_singles_fail(self):
        # complex-root regime with mismatched PDC: both single-mode variances
        # exceed vacuum while the collective mode is still squeezed
        m = solve_point(degenerate_params(3, 4, 10, 10, 2))
        assert single_mode_min_variance(m, "a").min_variance > 1
        assert single_mode_min_variance(m, "b").min_variance > 1
        assert collective_min_variance(m).min_variance < 1

    def test_minimum_dominates_grid(self):
        m = solve_point(degenerate_params(3, 1, 0, 10, 2))
        r = collective_min_variance(m)
        n = photon_numbers(m)
        c = correlators(m)
        rng = np.random.default_rng(9)
        base = 1 + n.n_as + n.n_bs
        for d in rng.uniform(0, 2 * np.pi, 256):
            e = cmath.exp(1j * d)
            v = base + 2 * (c.g_ab * e).real - abs(c.f_a + c.f_b * e * e
                                                   + 2 * c.f_ab * e)
            assert r.min_variance <= v + 1e-12

    def test_high_gain_against_high_precision(self):
        # kappa L = 20: the expanded 1 + N_a + N_b + 2 Re(G e^{id}) - |F|
        # cancels from ~1e17 to ~0.4; the reference minimizes it at 60
        # digits over an independent exponential of the rotating-frame
        # generator
        import mpmath

        kappa, eta, ds, L = 10, 1, 3.0, 2.0
        with mpmath.workdps(60):
            i = mpmath.mpc(0, 1)
            g = mpmath.matrix([[0, i * kappa, i * eta, 0],
                               [-i * kappa, 0, 0, -i * eta],
                               [i * eta, 0, i * ds, 0],
                               [0, -i * eta, 0, -i * ds]])
            x = mpmath.expm(g * L)
            phase = [1, 1, mpmath.exp(-i * ds * L), mpmath.exp(i * ds * L)]
            y = [[phase[r] * x[r, col] for col in (0, 2)] for r in range(4)]
            (u, w), (k, mm) = y[0], y[2]
            v, q = (mpmath.conj(t) for t in y[1])
            lb, n = (mpmath.conj(t) for t in y[3])

            def variance(d):
                e = mpmath.exp(i * d)
                x1, x2 = (u + e * k) / mpmath.sqrt(2), (w + e * mm) / mpmath.sqrt(2)
                y1, y2 = (v + e * lb) / mpmath.sqrt(2), (q + e * n) / mpmath.sqrt(2)
                return (1 + 2 * (abs(y1) ** 2 + abs(y2) ** 2)
                        - 2 * abs(x1 * y1 + x2 * y2))

            step = 2 * mpmath.pi / 256
            d0 = min((j * step for j in range(256)), key=variance)
            lo, hi = d0 - step, d0 + step
            ratio = (mpmath.sqrt(5) - 1) / 2
            for _ in range(120):
                d1, d2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
                if variance(d1) < variance(d2):
                    hi = d2
                else:
                    lo = d1
            ref = float(variance((lo + hi) / 2))
        m = solve_point(degenerate_params(kappa, eta, 0, ds, L))
        # rounding the entries to double alone moves this minimum by up to
        # 4e-8 relative
        assert collective_min_variance(m).min_variance == pytest.approx(ref, rel=2e-7)

    def test_overflow_is_named_without_warnings(self):
        # at kappa L = 200 the phase grid's terms overflow: the search
        # raises its named error and prints no numpy warning first
        m = solve_point(degenerate_params(100, 1, 0, 3, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="minvar_c exceeds double precision"):
                collective_min_variance(m)


def test_averaged_model_names_an_overflowing_mismatch():
    # delta_s L = 1e310 passes validate, but its sinc and phase do not exist
    # in double precision
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="delta_s \\* length exceeds double precision"):
            averaged_model(degenerate_params(3, 1, 0, 1e300, 1e10))


def test_summary_near_the_minima_overflow_is_finite_or_a_named_failure():
    # about |kappa| L = 200 at eta_s = 0.1 a minimum's 1 + 4 |L|^2 can
    # leave double precision while |L|^2 is finite: each value is checked
    # for finiteness, as a scan's row is
    named = {str(beyond_double(q)) for q in ("minvar_a", "minvar_b", "minvar_c")}
    for ds in (1, 3, -4, 10):
        for k in range(9900, 10100):
            p = degenerate_params(k / 100, 0.1, 0, ds, 2)
            try:
                out = observables_summary(solve_point(p))
            except OverflowError as e:
                assert str(e) in named, p
                continue
            values = [x for v in out.values() for x in (v if isinstance(v, list) else [v])]
            assert all(map(math.isfinite, values)), p


def test_single_mode_minimum_is_never_a_silent_zero():
    # near the photon-number overflow 1 + 2N + 2|F| can overflow while N is
    # finite, where (1 + 4 gap) / inf would read exactly 0.0: a minimum is
    # positive, or a named failure, for one point and in a scan row
    points = [degenerate_params(k, 0.1, 0, 1, 2) for k in np.linspace(170, 182, 4500)]
    matrices = [solve_point(p) for p in points]
    for mode in "ab":
        named = {str(beyond_double(q)) for q in ("photon number", f"minvar_{mode}")}
        for p, m in zip(points, matrices):
            try:
                assert single_mode_min_variance(m, mode).min_variance > 0.0, p
            except OverflowError as e:
                assert str(e) in named, p
        for p, row in zip(points, evaluate_points(points, (f"minvar_{mode}",), "analytic")):
            if isinstance(row, OverflowError):
                assert str(row) in named, p
            else:
                assert row[f"minvar_{mode}"] > 0.0, p


class TestPdcOnlyReference:
    def test_phase_matched(self):
        n, mv = pdc_only_reference(3 + 0j, 0.0, 1.0)
        assert n == pytest.approx(math.sinh(3.0) ** 2, rel=1e-14)
        assert mv == pytest.approx(math.exp(-6.0), rel=1e-14)

    def test_mismatch_oscillates(self):
        # imaginary gain: bounded sin^2 law, variance not applicable
        n, mv = pdc_only_reference(3 + 0j, 10.0, 1.0)
        assert n == pytest.approx(9 * (math.sin(4.0) / 4.0) ** 2, rel=1e-12)
        assert mv is None

    def test_zero_coupling(self):
        assert pdc_only_reference(0j, 0.0, 2.0) == (0.0, 1.0)


class TestLossyApproximation:
    def test_reduces_to_pdc_only(self):
        n_a, n_b, mv = lossy_approximation(3 + 0j, 0j, 10.0, 1.0)
        ref_n, ref_mv = pdc_only_reference(3 + 0j, 0.0, 1.0)
        assert n_a == pytest.approx(ref_n, rel=1e-14)
        assert n_b == 0.0
        assert mv == pytest.approx(ref_mv, rel=1e-14)

    def test_against_exact_solver(self):
        p = degenerate_params(3, 1, 0, 50, 2)
        m = solve_point(p)
        n = photon_numbers(m)
        n_a, n_b, mv = lossy_approximation(3 + 0j, 1 + 0j, 50.0, 2.0)
        assert n_a == pytest.approx(n.n_as, rel=0.05)
        assert n_b == pytest.approx(n.n_bs, rel=0.05)
        assert mv == pytest.approx(
            single_mode_min_variance(m, "a").min_variance, rel=0.05)

    def test_rejects_zero_mismatch(self):
        with pytest.raises(ValueError):
            lossy_approximation(3 + 0j, 1 + 0j, 0.0, 1.0)

    def test_warns_outside_validity(self):
        with pytest.warns(UserWarning):
            lossy_approximation(3 + 0j, 3 + 0j, 10.0, 1.0)


class TestAveragedModel:
    def test_phase_matched_unchanged(self):
        p = make(kappa=2 + 1j, eta_s=1 + 0j, eta_i=0.5j, L=2.0)
        q = averaged_model(p)
        assert q == p

    def test_sinc_zero_kills_coupling(self):
        L = 2.0
        p = degenerate_params(3, 1, 0, 2 * math.pi / L, L)
        q = averaged_model(p)
        assert q.eta_s == 0 and q.eta_i == 0
        assert q.delta_s == 0 and q.delta_i == 0

    def test_half_period(self):
        # delta L = pi: |zeta| = 2/pi with a quarter-turn phase
        z = zeta(math.pi / 2.0, 2.0)
        assert abs(z) == pytest.approx(2 / math.pi, rel=1e-14)
        assert cmath.phase(z) == pytest.approx(math.pi / 2, rel=1e-12)

    def test_mismatches_zeroed(self):
        q = averaged_model(make(kappa=3 + 0j, eta_s=1 + 0j, dt=5.0, ds=7.0,
                                di=-2.0, L=1.0))
        assert q.delta_tilde == q.delta_s == q.delta_i == 0.0

    def test_batch_equals_points_bit_for_bit(self):
        # zeta's exact 1 at delta = +-0, the flush to +0.0 at delta L = 2 pi k
        # reached from either side, and large |delta L|; the batch is long
        # enough for numpy's vector loops
        lengths = (2.0, 0.7, 3.3)
        deltas = [0.0, -0.0, 5e-324, 1.0, -7.5, 1e6, -3e9, 1e15, -2.5e100]
        for k in range(-4, 5):
            for L in lengths:
                d = 2 * math.pi * k / L
                deltas += [d, math.nextafter(d, math.inf), math.nextafter(d, -math.inf)]
        rng = np.random.default_rng(17)

        def coupling():
            return complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-3, 2)

        n = len(deltas)
        points = [make(kappa=coupling(), eta_s=coupling(), eta_i=(0j, coupling())[i % 2],
                       dt=d, ds=deltas[(i * 7 + 3) % n], di=-deltas[(i * 5 + 1) % n],
                       L=lengths[i % 3])
                  for i, d in enumerate(deltas)]
        fields = ModelParams.__dataclass_fields__
        batch = averaged_model(ModelParams(
            *(np.array([getattr(p, f) for p in points]) for f in fields)))
        for f in ("delta_tilde", "delta_s", "delta_i"):
            assert getattr(batch, f).shape == (n,)
        for i, p in enumerate(points):
            one = averaged_model(p)
            for f in fields:
                # bytes compare the sign of a zero as well
                want, got = np.asarray(getattr(one, f)), getattr(batch, f)[i]
                assert want.tobytes() == np.asarray(got).tobytes(), (f, p, want, got)
        for x in (0.0, -0.0):
            assert np.asarray(zeta(x, 2.0)).tobytes() == np.asarray(1 + 0j).tobytes()
        # one point is still validated, a batch by its caller
        for f in fields:
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"non-finite parameter: {f}$"):
                    averaged_model(ModelParams(**dict(vars(points[0]), **{f: bad})))

    def test_zeta_follows_its_scalar_definition(self):
        # the documented formula, one number at a time: a flushed sine is
        # +0.0, so the zeros of zeta carry the signs of 0.0 / x exp(i x)
        def reference(delta, length):
            x = delta * length / 2.0
            if x == 0.0:
                return 1 + 0j
            s = math.sin(x)
            if abs(s) < 8.0 * np.finfo(float).eps * abs(x):
                s = 0.0
            return s / x * cmath.exp(1j * x)

        L = 2.0
        deltas = [d for k in range(-8, 9) for d in (
            2 * math.pi * k / L, math.nextafter(2 * math.pi * k / L, math.inf),
            math.nextafter(2 * math.pi * k / L, -math.inf), (k + 0.3) / L, 1e6 * k)]
        batch = zeta(np.array(deltas), L)
        flushed = 0
        for d, got in zip(deltas, batch):
            want = reference(d, L)
            for w, g in ((want.real, got.real), (want.imag, got.imag)):
                if w == 0.0:
                    flushed += 1
                    assert g == 0.0 and math.copysign(1, g) == math.copysign(1, w), (d, got, want)
                else:
                    assert abs(g - w) <= 4e-16 * abs(want), (d, got, want)
        assert flushed > 20


class TestGlobalPhaseInvariance:
    def test_observables_invariant_under_common_pump_phase(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            p = degenerate_params(rng.uniform(0.5, 4), rng.uniform(0, 3),
                                  rng.uniform(-8, 8), rng.uniform(-8, 8),
                                  rng.uniform(0.3, 2))
            chi = cmath.exp(1j * rng.uniform(0, 2 * np.pi))
            q = make(kappa=p.kappa * chi, eta_s=p.eta_s * chi,
                     eta_i=p.eta_i * chi, dt=p.delta_tilde, ds=p.delta_s,
                     di=p.delta_i, L=p.length)
            m1, m2 = solve_point(p), solve_point(q)
            n1, n2 = photon_numbers(m1), photon_numbers(m2)
            assert n1.n_as == pytest.approx(n2.n_as, rel=1e-8, abs=1e-10)
            assert n1.n_bs == pytest.approx(n2.n_bs, rel=1e-8, abs=1e-10)
            for mode in "ab":
                v1 = single_mode_min_variance(m1, mode).min_variance
                v2 = single_mode_min_variance(m2, mode).min_variance
                assert v1 == pytest.approx(v2, rel=1e-8)
            c1 = collective_min_variance(m1).min_variance
            c2 = collective_min_variance(m2).min_variance
            assert c1 == pytest.approx(c2, rel=1e-7)


def test_summary_keys():
    out = observables_summary(solve_point(degenerate_params(3, 1, 0, 10, 2)))
    assert {"n_as", "n_ai", "n_bs", "n_bi", "minvar_a", "minvar_b",
            "minvar_c", "theta_opt_a", "delta_opt_c"} <= set(out)
    out4 = observables_summary(solve_point(make(kappa=3 + 0j, eta_s=1 + 0j,
                                                eta_i=2 + 0j, dt=1, ds=2,
                                                di=3, L=0.7)))
    assert "minvar_a" not in out4 and "n_as" in out4


@pytest.mark.parametrize("solver", ["analytic", "oracle"])
def test_summary_at_input_face_follows_the_parameters(solver):
    # T = I at z = 0 for every point, but only a degenerate point squeezes
    general = make(kappa=3 + 0j, eta_s=1 + 0j, eta_i=2 + 0j, dt=1, ds=2, di=3,
                   L=0.7)
    out = observables_summary(solve_point(general, z=0.0, solver=solver))
    assert not {"minvar_a", "minvar_b", "minvar_c", "f_a"} & set(out)
    assert out["n_as"] == 0
    degenerate = degenerate_params(3, 1, 1, 2, 0.7)
    out = observables_summary(solve_point(degenerate, z=0.0, solver=solver))
    assert out["minvar_a"] == out["minvar_b"] == 1.0
