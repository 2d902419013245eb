import hashlib
import math
import pickle

import mpmath as mp
import numpy as np
import pytest

from cascade.characteristic import (Area, classify, classify_degenerate,
                                    classify_general, classify_three_mode,
                                    discriminant_general, solve_quartic)
from cascade.params import (ModelParams, degenerate_params, derive,
                            three_mode_params, validate)
from cascade.scan import evaluate_points


def make(kappa=0j, eta_s=0j, eta_i=0j, dt=0.0, ds=0.0, di=0.0, L=1.0):
    return validate(ModelParams(kappa=kappa, eta_s=eta_s, eta_i=eta_i,
                                delta_tilde=dt, delta_s=ds, delta_i=di,
                                length=L))


def random_params(rng, couple_max=10.0, mismatch_max=10.0):
    mags = rng.uniform(0, couple_max, 3)
    phases = rng.uniform(0, 2 * np.pi, 3)
    d = rng.uniform(-mismatch_max, mismatch_max, 3)
    return make(kappa=mags[0] * np.exp(1j * phases[0]),
                eta_s=mags[1] * np.exp(1j * phases[1]),
                eta_i=mags[2] * np.exp(1j * phases[2]),
                dt=d[0], ds=d[1], di=d[2], L=rng.uniform(0.1, 3.0))


def assert_same_multiset(roots, expected, tol=1e-10):
    left = sorted(roots, key=lambda x: (round(x.real, 9), round(x.imag, 9)))
    right = sorted(expected, key=lambda x: (round(x.real, 9), round(x.imag, 9)))
    scale = max(1.0, max(abs(x) for x in right))
    for a, b in zip(left, right):
        assert abs(a - b) <= tol * scale


class TestSolveQuartic:
    def test_pdc_only_mismatched(self):
        # eta = 0, kappa = 3, mismatch 4: roots +-sqrt(5) and +-2i
        r = solve_quartic(derive(make(kappa=3 + 0j, dt=4.0)))
        assert_same_multiset(r.roots, [math.sqrt(5), -math.sqrt(5), 2j, -2j])
        assert not r.near_multiple

    def test_degenerate_phase_matched(self):
        # kappa = 3, eta = 1, all mismatches 0: +-3/2 +- sqrt(9/4 - 1), all real
        r = solve_quartic(derive(degenerate_params(3, 1, 0, 0, 1)))
        s = math.sqrt(1.25)
        assert_same_multiset(r.roots, [1.5 + s, 1.5 - s, -1.5 + s, -1.5 - s])
        assert max(abs(x.imag) for x in r.roots) < 1e-10

    def test_zero_quartic(self):
        r = solve_quartic(derive(make()))
        assert all(x == 0 for x in r.roots)
        assert r.near_multiple

    def test_roots_sum_to_zero_and_residual(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            p = random_params(rng)
            d = derive(p)
            r = solve_quartic(d)
            big = max(abs(x) for x in r.roots)
            assert abs(sum(r.roots)) <= 1e-9 * max(1.0, big)
            bound = 1e-8 * max(1.0, abs(d.p_coef) ** 2, abs(d.r_coef))
            for lam in r.roots:
                res = abs(lam**4 + d.p_coef * lam**2 + 1j * d.q_coef * lam
                          + d.r_coef)
                assert res <= bound

    def test_canonical_ordering(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            r = solve_quartic(derive(random_params(rng)))
            keys = [(-x.real, -x.imag) for x in r.roots]
            assert keys == sorted(keys)


class TestDiscriminant:
    def test_zero(self):
        assert discriminant_general(derive(make())) == 0.0

    def test_pdc_only_phase_matched_has_multiple_roots(self):
        # P = -9, Q = R = 0: lambda = 0 is a double root
        assert discriminant_general(derive(make(kappa=3 + 0j))) == 0.0

    def test_matches_root_product(self):
        # brute force: D = prod_{j<k} (mu_j - mu_k)^2 over the real-form roots
        rng = np.random.default_rng(99)
        for _ in range(100):
            p = random_params(rng, couple_max=5, mismatch_max=5)
            d = derive(p)
            mu = np.roots([1.0, 0.0, -d.p_coef, d.q_coef, d.r_coef])
            prod = 1.0 + 0j
            for j in range(4):
                for k in range(j + 1, 4):
                    prod *= (mu[j] - mu[k]) ** 2
            disc = discriminant_general(d)
            scale = max(1.0, max(abs(m) for m in mu)) ** 12
            assert abs(disc - prod) <= 1e-8 * scale


class TestClassifyGeneral:
    def test_cascaded_phase_matching_area_ii(self):
        # on the Phi_i = 0 line away from the crossing
        r = classify_general(derive(make(kappa=3 + 0j, eta_s=3 + 0j,
                                         eta_i=3 + 0j, dt=30, ds=60, di=30)))
        assert r.label is Area.II
        assert r.max_growth_rate > 0

    def test_far_from_cascade_lines_area_i(self):
        # both cascaded mismatches at -30: oscillating solutions
        r = classify_general(derive(make(kappa=3 + 0j, eta_s=3 + 0j,
                                         eta_i=3 + 0j, dt=30, ds=60, di=60)))
        assert r.label is Area.I
        assert abs(r.max_growth_rate) < 1e-9

    def test_crossing_of_cascade_lines_area_iii(self):
        # Phi_s = Phi_i = 0 simultaneously: complex roots appear
        # (P = 459, Q = 0, R = 52731 > P^2/4 = 52670.25)
        r = classify_general(derive(make(kappa=3 + 0j, eta_s=3 + 0j,
                                         eta_i=3 + 0j, dt=30, ds=30, di=30)))
        assert r.label is Area.III
        assert r.max_growth_rate > 0

    def test_all_zero_is_area_v(self):
        assert classify_general(derive(make())).label is Area.V


class TestClassifyDegenerate:
    # reference points of the phase-matched degenerate diagrams, kappa = 3
    @pytest.mark.parametrize("ds,eta,want", [
        (10.0, 1.0, Area.II),
        (0.0, 1.0, Area.IV),
        (0.0, 4.0, Area.III),
        (0.5, 4.0, Area.III),
    ])
    def test_reference_points(self, ds, eta, want):
        r = classify_degenerate(degenerate_params(3, eta, 0, ds, 2))
        assert r.label is want

    def test_rejects_non_degenerate(self):
        with pytest.raises(ValueError):
            classify_degenerate(make(kappa=3 + 0j, eta_s=1 + 0j, eta_i=2 + 0j))

    def test_area_v_on_boundaries(self):
        # R = 0 at eta = 0 with ds = 0
        r = classify_degenerate(degenerate_params(3, 0, 0, 0, 1))
        assert r.label is Area.V


class TestClassifyThreeMode:
    def test_amplified_when_pdc_dominates(self):
        r, lam4 = classify_three_mode(three_mode_params(3, 1, 0, 0, 1))
        assert r.label is Area.II
        assert lam4 == 0j

    def test_oscillating_when_upconversion_dominates(self):
        r, _ = classify_three_mode(three_mode_params(1, 3, 0, 0, 1))
        assert r.label is Area.I

    def test_boundary(self):
        r, _ = classify_three_mode(three_mode_params(3, 3, 0, 0, 1))
        assert r.label is Area.V

    def test_guaranteed_root(self):
        p = three_mode_params(3, 1, 6.0, 4.0, 1)
        _, lam4 = classify_three_mode(p)
        # lambda_4 = i phi / 2 with phi = delta_tilde - delta_s / 2
        assert lam4 == pytest.approx(1j * (6.0 - 2.0) / 2)
        d = derive(p)
        res = abs(lam4**4 + d.p_coef * lam4**2 + 1j * d.q_coef * lam4 + d.r_coef)
        assert res < 1e-9

    def test_rejects_nonzero_idler_arm(self):
        with pytest.raises(ValueError):
            classify_three_mode(make(kappa=3 + 0j, eta_s=1 + 0j, eta_i=1e-3 + 0j))
        with pytest.raises(ValueError):
            classify_three_mode(make(kappa=3 + 0j, eta_s=1 + 0j, di=2.0))


class TestCrossConsistency:
    def test_degenerate_specialization_agrees_with_general(self):
        # Table of the biquadratic case vs the general discriminant table;
        # the general table folds the all-real case (IV) into III
        rng = np.random.default_rng(11)
        fold = {Area.IV: Area.III}
        for _ in range(300):
            mag = rng.uniform(0, 8, 2)
            ph = rng.uniform(0, 2 * np.pi)
            p = degenerate_params(mag[0] * np.exp(1j * ph), mag[1],
                                  rng.uniform(-10, 10), rng.uniform(-10, 10),
                                  1.0)
            a = classify_degenerate(p)
            b = classify_general(derive(p))
            if Area.V in (a.label, b.label):
                continue  # tolerance bands at the boundary may differ
            assert fold.get(a.label, a.label) is b.label
            assert (a.max_growth_rate > 1e-9) == (b.max_growth_rate > 1e-9)

    def test_three_mode_specialization_agrees_with_general(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            p = three_mode_params(rng.uniform(0, 8) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                                  rng.uniform(0, 8), rng.uniform(-10, 10),
                                  rng.uniform(-10, 10), 1.0)
            a, _ = classify_three_mode(p)
            b = classify_general(derive(p))
            if Area.V in (a.label, b.label):
                continue
            assert a.label is b.label

    def test_dispatcher(self):
        assert classify(degenerate_params(3, 1, 0, 10, 2)).label is Area.II
        assert classify(three_mode_params(3, 1, 0, 0, 1)).label is Area.II
        assert classify(make(kappa=3 + 0j, eta_s=3 + 0j, eta_i=3 + 0j,
                             dt=30, ds=60, di=30)).label is Area.II


class TestRootProperties:
    def test_conjugation_under_mode_swap(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = random_params(rng)
            r = solve_quartic(derive(p))
            rs = solve_quartic(derive(p.swapped()))
            assert_same_multiset(rs.roots, [x.conjugate() for x in r.roots],
                                 tol=1e-9)

    def test_area_i_roots_purely_imaginary(self):
        rng = np.random.default_rng(19)
        found = 0
        while found < 40:
            p = random_params(rng)
            if classify_general(derive(p)).label is not Area.I:
                continue
            found += 1
            r = solve_quartic(derive(p))
            big = max(abs(x) for x in r.roots)
            assert max(abs(x.real) for x in r.roots) <= 1e-9 * max(1.0, big)

    def test_pdc_only_reduction(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            ka = rng.uniform(0.3, 8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            dt = rng.uniform(-10, 10)
            if abs(abs(ka) - abs(dt) / 2) < 1e-2:
                continue  # stay away from the multiple-root curve
            r = solve_quartic(derive(make(kappa=ka, dt=dt)))
            g = complex(abs(ka) ** 2 - dt**2 / 4) ** 0.5
            assert_same_multiset(r.roots, [g, -g, 1j * dt / 2, -1j * dt / 2],
                                 tol=1e-10)


def mp_growth(p: ModelParams):
    """max Re lambda, lambda = -i mu over the roots mu of mu^4 - P mu^2 + Q mu
    + R found by mpmath at 60 digits, with P, Q, R formed at that precision
    from p's double-precision fields."""
    with mp.workdps(60):
        k, es, ei = (mp.mpc(x.real, x.imag) for x in map(complex, (p.kappa, p.eta_s, p.eta_i)))
        dt, ds, di = (mp.mpf(x) for x in (p.delta_tilde, p.delta_s, p.delta_i))
        a2, gs2, gi2 = abs(k) ** 2, abs(es) ** 2 + ds ** 2 / 4, abs(ei) ** 2 + di ** 2 / 4
        phi = dt - (ds + di) / 2
        P = gs2 + gi2 + phi ** 2 / 2 - a2
        Q = phi * (gi2 - gs2) - a2 * (di - ds) / 2
        R = (gs2 - phi ** 2 / 4) * (gi2 - phi ** 2 / 4) - a2 / 4 * (phi - ds) * (phi - di)
        mus = mp.polyroots([1, 0, -P, Q, R], maxsteps=400, extraprec=400)
        return max(mp.re(-1j * m) for m in mus)


class TestGrowthRate:
    # weak pump: the degenerate quartic has double roots at kappa = 0, and
    # the three-mode quartic a root near lambda_4 = i phi / 2; both on and
    # 1e-3 off delta_tilde = delta_s
    @pytest.mark.parametrize("make_point", [degenerate_params, three_mode_params])
    def test_weak_pump_panel_against_mpmath(self, make_point):
        misses = []
        for kappa in (0.0, 1e-8, 1e-6, 1e-4, 1e-2):
            for eta in (0.8, 1.0):
                for ds in (0.0, 2.0):
                    for offset in (0.0, 1e-3):
                        p = make_point(kappa, eta, ds + offset, ds, 2.0)
                        ref = float(mp_growth(p))
                        got = classify(p).max_growth_rate
                        (row,) = evaluate_points([p], ("growth_rate",), "analytic")
                        ok = got == 0.0 if ref < 1e-30 else abs(got - ref) <= 1e-9 * ref
                        if not ok or row["growth_rate"] != got:
                            misses.append((kappa, eta, ds, offset, ref, got,
                                           row["growth_rate"]))
        assert not misses


def _random_regimes(rng, count=1000) -> list:
    """classify of count random degenerate, three-mode and general points."""
    def coupling():
        return rng.uniform(0, 10) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    out = []
    for make_point in (degenerate_params, three_mode_params):
        for _ in range(count):
            dt, ds = rng.uniform(-10, 10, 2)
            out.append(classify(make_point(coupling(), coupling(), dt, ds,
                                           rng.uniform(0.1, 3.0))))
    return out + [classify(random_params(rng)) for _ in range(count)]


class TestClassifyDispatch:
    def test_regimes_unchanged(self):
        # sha256 of the pickled regimes as classify gave them when it
        # dispatched to classify_degenerate / classify_three_mode /
        # classify_general
        regimes = _random_regimes(np.random.default_rng(29))
        digest = hashlib.sha256(b"".join(pickle.dumps(r, protocol=4) for r in regimes))
        assert digest.hexdigest() == "4e813a35e33e152f4b839cf54af2c4f6ba4334a7bc710b931c13b89a915f4f34"

    @pytest.mark.parametrize("p, specific", [
        (degenerate_params(1e160, 1, 0, 0, 2), classify_degenerate),
        (three_mode_params(1e160, 1, 0, 0, 2), lambda p: classify_three_mode(p)[0]),
        (make(kappa=1e160 + 0j, eta_s=1 + 0j, eta_i=2 + 0j, L=2.0),
         lambda p: classify_general(derive(p))),
    ], ids=["degenerate", "three_mode", "general"])
    def test_overflowing_coefficients_raise_the_scan_failure(self, p, specific):
        (failure,) = evaluate_points([p], ("regime", "growth_rate"), "analytic")
        assert isinstance(failure, np.linalg.LinAlgError)
        for call in (classify, specific):
            with pytest.raises(np.linalg.LinAlgError) as err:
                call(p)
            assert type(err.value).__name__ == type(failure).__name__
            assert str(err.value) == str(failure)
