import cmath
import dataclasses
import hashlib
import json
import math
import pickle
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cascade import characteristic
from cascade.characteristic import (CLASS_TOL, MULT_TOL, Area, Regime, _general_label,
                                    _roots, classify, discriminant_general,
                                    non_finite_quartic, solve_quartic)
from cascade.cli import main
from cascade.params import (FIELDS, ModelParams, degenerate_params, derive,
                            three_mode_params, validate)
from cascade.scan import evaluate_points


def make(kappa=0j, eta_s=0j, eta_i=0j, dt=0.0, ds=0.0, di=0.0, L=1.0):
    return validate(ModelParams(kappa=kappa, eta_s=eta_s, eta_i=eta_i,
                                delta_tilde=dt, delta_s=ds, delta_i=di,
                                length=L))


def _general_regime(p: ModelParams) -> Regime:
    """The general four-mode table's label of p and its growth rate, max Re
    lambda over the quartic's roots, whatever special case p is."""
    d = derive(p)
    return Regime(_general_label(d), max(x.real for x in solve_quartic(d).roots))


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
        r = classify(make(kappa=3 + 0j, eta_s=3 + 0j, eta_i=3 + 0j,
                          dt=30, ds=60, di=30))
        assert r.label is Area.II
        assert r.max_growth_rate > 0

    def test_far_from_cascade_lines_area_i(self):
        # both cascaded mismatches at -30: oscillating solutions
        r = classify(make(kappa=3 + 0j, eta_s=3 + 0j, eta_i=3 + 0j,
                          dt=30, ds=60, di=60))
        assert r.label is Area.I
        assert abs(r.max_growth_rate) < 1e-9

    def test_crossing_of_cascade_lines_area_iii(self):
        # Phi_s = Phi_i = 0 simultaneously: complex roots appear
        # (P = 459, Q = 0, R = 52731 > P^2/4 = 52670.25); the point is
        # degenerate, and the biquadratic's table labels it III too
        r = classify(make(kappa=3 + 0j, eta_s=3 + 0j, eta_i=3 + 0j,
                          dt=30, ds=30, di=30))
        assert r.label is Area.III
        assert r.max_growth_rate > 0

    def test_all_zero_is_area_v(self):
        assert classify(make()).label is Area.V


class TestClassifyDegenerate:
    # reference points of the phase-matched degenerate diagrams, kappa = 3
    @pytest.mark.parametrize("ds,eta,want", [
        (10.0, 1.0, Area.II),
        (0.0, 1.0, Area.IV),
        (0.0, 4.0, Area.III),
        (0.5, 4.0, Area.III),
    ])
    def test_reference_points(self, ds, eta, want):
        r = classify(degenerate_params(3, eta, 0, ds, 2))
        assert r.label is want

    def test_area_v_on_boundaries(self):
        # R = 0 at eta = 0 with ds = 0
        r = classify(degenerate_params(3, 0, 0, 0, 1))
        assert r.label is Area.V


class TestClassifyThreeMode:
    def test_amplified_when_pdc_dominates(self):
        p = three_mode_params(3, 1, 0, 0, 1)
        r = classify(p)
        assert r.label is Area.II
        # the guaranteed root lambda_4 = i phi / 2 is 0 at phi = 0
        assert 1j * derive(p).phi / 2 == 0j

    def test_oscillating_when_upconversion_dominates(self):
        r = classify(three_mode_params(1, 3, 0, 0, 1))
        assert r.label is Area.I

    def test_boundary(self):
        r = classify(three_mode_params(3, 3, 0, 0, 1))
        assert r.label is Area.V

    def test_guaranteed_root(self):
        d = derive(three_mode_params(3, 1, 6.0, 4.0, 1))
        lam4 = 1j * d.phi / 2
        # lambda_4 = i phi / 2 with phi = delta_tilde - delta_s / 2
        assert lam4 == pytest.approx(1j * (6.0 - 2.0) / 2)
        res = abs(lam4**4 + d.p_coef * lam4**2 + 1j * d.q_coef * lam4 + d.r_coef)
        assert res < 1e-9


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
            a = classify(p)
            b = _general_regime(p)
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
            a = classify(p)
            b = _general_regime(p)
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

    def test_general_growth_rate_is_the_largest_real_part_of_the_roots(self):
        # outside area I, classify's growth rate and solve_quartic's roots
        # come from the same companion eigenvalues, so one solve can give
        # both: max Re lambda of the roots is the growth rate, bit for bit
        rng = np.random.default_rng(34)
        checked = 0
        for _ in range(2000):
            mags, phases = rng.uniform(0, 6, 3), rng.uniform(0, 2 * np.pi, 3)
            p = make(*(mags * np.exp(1j * phases)).tolist(), *rng.uniform(-10, 10, 3).tolist(),
                     L=2.0)
            regime = classify(p)
            if regime.label is not Area.I:
                checked += 1
                assert regime.max_growth_rate == max(
                    x.real for x in solve_quartic(derive(p)).roots), p
        assert checked > 1000

    def test_area_i_roots_purely_imaginary(self):
        rng = np.random.default_rng(19)
        found = 0
        while found < 40:
            p = random_params(rng)
            if _general_label(derive(p)) is not Area.I:
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

    @pytest.mark.parametrize("p", [
        make(kappa=0.5 + 0j, eta_s=1.5 + 0j, eta_i=0.8 + 0j, dt=6.0, ds=4.0, di=-2.0, L=2.0),
        three_mode_params(1, 3, 0, 0, 1),
        degenerate_params(0.5, 1, 6, 4, 2),
    ], ids=["general", "three_mode", "degenerate"])
    def test_area_i_takes_no_roots(self, monkeypatch, p):
        # every root lambda of an area-I point is imaginary: its growth rate
        # is exactly 0.0, with neither companion eigenvalues nor the
        # biquadratic's closed form
        calls = []

        def counted(name):
            original = getattr(characteristic, name)
            monkeypatch.setattr(characteristic, name,
                                lambda *a: calls.append(name) or original(*a))

        counted("_roots")
        counted("_biquadratic_growth")
        regime = classify(p)
        assert regime.label is Area.I
        assert regime.max_growth_rate.hex() == (0.0).hex()
        assert calls == []


_MAG = st.one_of(st.just(0.0), st.floats(0.05, 5.0))


@st.composite
def unit_points(draw):
    """A degenerate, three-mode or general point, and a unit factor c from
    1e-6 to 1e6."""
    k, es, ei = (draw(_MAG) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
                 for _ in range(3))
    dt, ds, di = (draw(st.floats(-12.0, 12.0)) for _ in range(3))
    config = draw(st.sampled_from(("degenerate", "three_mode", "general")))
    if config == "degenerate":
        ei, di = es, ds
    elif config == "three_mode":
        ei, di = 0j, 0.0
    p = ModelParams(kappa=k, eta_s=es, eta_i=ei, delta_tilde=dt, delta_s=ds,
                    delta_i=di, length=draw(st.floats(0.2, 3.0)))
    return p, 10.0 ** draw(st.floats(-6.0, 6.0))


#: a general area-II point
_GENERAL = ModelParams(kappa=3 + 0j, eta_s=1.5 + 0j, eta_i=0.8 + 0j, delta_tilde=1.0,
                       delta_s=4.0, delta_i=-2.0, length=2.0)


def _without_tiny_mismatches(point) -> ModelParams:
    """The point of a unit_points draw with every mismatch below 1e-30 in
    magnitude set to 0, so that no product of degree 4 in its rates leaves
    the normal doubles at any unit 2**k, |k| <= 40."""
    p, _ = point
    return dataclasses.replace(p, **{f: 0.0 for f in ("delta_tilde", "delta_s", "delta_i")
                                     if abs(getattr(p, f)) < 1e-30})


def _in_unit(p: ModelParams, c: float) -> ModelParams:
    """The same crystal with every rate times c and the length over c."""
    return ModelParams(**{f: getattr(p, f) * c for f in FIELDS[:-1]}, length=p.length / c)


def _exact_general_label(p: ModelParams) -> Area:
    """The general table's label of p from its quartic's exact coefficients
    and discriminant (Fraction arithmetic on the double inputs), V only
    where D is exactly 0."""
    ks, es, ei = ((Fraction(z.real), Fraction(z.imag)) for z in (p.kappa, p.eta_s, p.eta_i))
    a2, ds, di = ks[0] ** 2 + ks[1] ** 2, Fraction(p.delta_s), Fraction(p.delta_i)
    gs2 = es[0] ** 2 + es[1] ** 2 + ds * ds / 4
    gi2 = ei[0] ** 2 + ei[1] ** 2 + di * di / 4
    phi = Fraction(p.delta_tilde) - (ds + di) / 2
    pc = gs2 + gi2 + phi * phi / 2 - a2
    qc = phi * (gi2 - gs2) - a2 * (di - ds) / 2
    rc = (gs2 - phi * phi / 4) * (gi2 - phi * phi / 4) - a2 / 4 * (phi - ds) * (phi - di)
    disc = (256 * rc ** 3 - 128 * pc ** 2 * rc ** 2 - 144 * pc * qc ** 2 * rc
            - 27 * qc ** 4 + 16 * pc ** 4 * rc + 4 * pc ** 3 * qc ** 2)
    if disc == 0:
        return Area.V
    if disc < 0:
        return Area.II
    return Area.I if pc > 0 and rc < pc * pc / 4 else Area.III


class TestUnitOfLength:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(unit_points())
    def test_label_and_growth_rate_do_not_depend_on_the_unit(self, point):
        # every rate times c and the length over c is the same crystal: away
        # from the zero band (a band 1000 times wider still gives no V) it
        # keeps its label, and growth_rate / c is within 1e-12 of the root
        # scale (the worst seen on 20 000 random points was 1.5e-14)
        p, c = point
        scaled = ModelParams(**{f: getattr(p, f) * c for f in FIELDS[:-1]},
                             length=p.length / c)
        one, other = classify(p), classify(scaled)
        with mock.patch.object(characteristic, "CLASS_TOL", 1e3 * CLASS_TOL):
            assume(classify(p).label is not Area.V)
        assert other.label is one.label
        d = derive(p)
        scale = characteristic._scale(d.p_coef, d.q_coef, d.r_coef)
        assert abs(other.max_growth_rate / c - one.max_growth_rate) <= 1e-12 * scale

    @pytest.mark.parametrize("c", [1e-30, 1e30])
    def test_far_units_keep_the_exact_label_and_the_rate(self, c, capsys):
        # the property above where the discriminant and a band CLASS_TOL *
        # scale^12 of the coefficients as they are would underflow (c =
        # 1e-30) or overflow: classify, a scan and `cascade classify` read
        # the label of the exact discriminant, as at c = 1 (a test of its
        # own: an @example would change the property's derandomized draws,
        # which hypothesis seeds from the property's source)
        p = _in_unit(_GENERAL, c)
        one, other = classify(_GENERAL), classify(p)
        assert _exact_general_label(p) is other.label is one.label is Area.II
        d = derive(_GENERAL)
        scale = characteristic._scale(d.p_coef, d.q_coef, d.r_coef)
        assert abs(other.max_growth_rate / c - one.max_growth_rate) <= 1e-12 * scale
        (row,) = evaluate_points([p], ("regime", "growth_rate"), "analytic")
        assert row == {"regime": "II", "growth_rate": other.max_growth_rate}
        flags = [f"--{f.replace('_', '-')}={getattr(p, f).real!r}" for f in FIELDS]
        assert main(["classify", *flags]) == 0
        assert json.loads(capsys.readouterr().out)["regime"] == "II"

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(unit_points().map(_without_tiny_mismatches), st.integers(-40, 40))
    # three-mode points where the rates cancel: the first read V at c = 10
    # (I at c = 1), the second's growth_rate / c moved by 1.75e-12 of its
    # root scale at c = 10
    @example(three_mode_params(4.5078125, -3.2101076582664265 - 3.164740488175214j,
                               0, 0, 1), 3)
    @example(three_mode_params(3, 1.6209069176044193 + 2.5244129544236893j,
                               0, 1e-6, 1), 3)
    def test_power_of_two_units_keep_the_label_and_the_rate(self, p, k):
        # c = 2**k scales every rate, and P, Q and R, exactly, and the label
        # is taken over a power of two of the root scale: the same label,
        # V included, on every draw.  Companion eigenvalues are not exactly
        # scale-invariant: growth_rate / c moved by at most 2.3e-6 of the
        # root scale on 20 000 random draws, at multiple roots (kappa = eta
        # = 0), and by 0 at 93 % of them
        c = 2.0 ** k
        one, other = classify(p), classify(_in_unit(p, c))
        assert other.label is one.label
        d = derive(p)
        scale = characteristic._scale(d.p_coef, d.q_coef, d.r_coef)
        assert abs(other.max_growth_rate / c - one.max_growth_rate) <= 1e-5 * scale


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
        # dispatched to separate degenerate, three-mode and general
        # classifiers
        regimes = _random_regimes(np.random.default_rng(29))
        digest = hashlib.sha256(b"".join(pickle.dumps(r, protocol=4) for r in regimes))
        assert digest.hexdigest() == "4e813a35e33e152f4b839cf54af2c4f6ba4334a7bc710b931c13b89a915f4f34"

    @pytest.mark.parametrize("p", [
        degenerate_params(1e160, 1, 0, 0, 2),
        three_mode_params(1e160, 1, 0, 0, 2),
        make(kappa=1e160 + 0j, eta_s=1 + 0j, eta_i=2 + 0j, L=2.0),
    ], ids=["degenerate", "three_mode", "general"])
    def test_overflowing_coefficients_raise_the_scan_failure(self, p):
        (failure,) = evaluate_points([p], ("regime", "growth_rate"), "analytic")
        assert isinstance(failure, np.linalg.LinAlgError)
        with pytest.raises(np.linalg.LinAlgError) as err:
            classify(p)
        assert type(err.value).__name__ == type(failure).__name__
        assert str(err.value) == str(failure)


# _roots calls numpy's LAPACK gufunc without the np.linalg.eigvals wrapper:
# these pin it to the public wrapper, bit for bit and failure for failure


def _companion(coefficients) -> np.ndarray:
    """The companion matrix numpy.roots builds for the monic polynomial with
    these lower coefficients."""
    p = np.array((1.0,) + tuple(coefficients))
    a = np.diag(np.ones(len(p) - 2), -1)
    a[0, :] = -p[1:] / p[0]
    return a


def _seeded_polynomials(seed: int, count: int) -> list:
    """Cubics and quartics x^n + c_1 x^(n-1) + ... + c_n, c_1 = +-0, as
    coefficient tuples: random magnitudes over many decades, zero and -0.0
    coefficients, and polynomials with all-real roots."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        degree = int(rng.choice((3, 4)))
        kind = rng.choice(("random", "zeros", "real roots"))
        if kind == "real roots":  # roots summing to 0, so c_1 = 0
            roots = rng.uniform(-5, 5, degree - 1)
            c = np.poly(np.append(roots, -roots.sum()))[1:]
            c[0] = 0.0
        else:
            c = rng.standard_normal(degree) * 10.0 ** rng.uniform(-30, 30, degree)
            c[0] = 0.0
            if kind == "zeros":
                c[rng.random(degree) < 0.5] = rng.choice((0.0, -0.0))
        out.append(tuple(c.tolist()))
    return out + [(0.0, 0.0, 0.0), (0.0, -0.0, 0.0, -0.0), (0.0, -1.0, 0.0, 0.25)]


def _reference_quartic(c: tuple) -> list:
    """solve_quartic's sorted roots from np.linalg.eigvals, the wrapper."""
    return sorted(-1j * np.linalg.eigvals(_companion(c)), key=lambda x: (-x.real, -x.imag))


class TestRootsMatchTheWrapper:
    def test_each_polynomial_bit_for_bit(self):
        for c in _seeded_polynomials(941, 400):
            got, want = _roots(*c), np.linalg.eigvals(_companion(c))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), c

    def test_batches_bit_for_bit(self):
        # the wrapper returns a batch real only if every root of it is real
        polys = _seeded_polynomials(942, 400)
        for degree in (3, 4):
            same = [c for c in polys if len(c) == degree]
            real = [c for c in same if not np.linalg.eigvals(_companion(c)).imag.any()]
            assert len(real) > 10
            for batch in (same, real):
                got = _roots(*(np.array(column) for column in zip(*batch)))
                want = np.linalg.eigvals(np.array([_companion(c) for c in batch]))
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_solve_quartic_bit_for_bit(self):
        for c in _seeded_polynomials(943, 400):
            if len(c) != 4:
                continue
            # mu^4 - P mu^2 + Q mu + R, so (c_1, c_2, c_3, c_4) = (0, -P, Q, R)
            q = solve_quartic(SimpleNamespace(p_coef=-c[1], q_coef=c[2], r_coef=c[3]))
            want = _reference_quartic((0.0,) + c[1:])
            assert np.array(q.roots).tobytes() == np.array(want).tobytes(), c
            sep = min(abs(want[i] - want[j]) for i in range(4) for j in range(i + 1, 4))
            assert q.min_root_separation == sep
            assert q.near_multiple == (sep <= MULT_TOL * max(abs(x) for x in want))


class TestRootsNameTheWrapperFailures:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coefficient(self, bad):
        with pytest.raises(np.linalg.LinAlgError) as wrapper:
            np.linalg.eigvals(_companion((0.0, 1.0, bad, 2.0)))
        assert str(non_finite_quartic()) == str(wrapper.value)
        batch = (0.0, np.array([1.0, 2.0]), np.array([3.0, bad]), np.array([2.0, 1.0]))
        for coefficients in ((0.0, 1.0, bad, 2.0), (0.0, bad, 1.0), batch):
            with pytest.raises(np.linalg.LinAlgError) as err:
                _roots(*coefficients)
            assert str(err.value) == str(wrapper.value)

    def test_unconverged_eigenvalues(self, monkeypatch):
        # LAPACK's failure: the gufunc returns NaN where it did not converge,
        # and raises the invalid flag, on which the wrapper raises
        def unconverged(c, signature):
            w = np.ones(c.shape[:-1], dtype=complex)
            w[..., -1] = np.inf * np.zeros(())
            return w

        monkeypatch.setattr(np.linalg._umath_linalg, "eigvals", unconverged)
        with pytest.raises(np.linalg.LinAlgError) as wrapper:
            np.linalg.eigvals(_companion((0.0, 1.0, 2.0, 3.0)))
        batch = (0.0, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        general = make(kappa=2 + 0j, eta_s=1 + 0j, eta_i=0.5 + 0j, ds=1.0, di=2.0)
        for call in (lambda: _roots(0.0, 1.0, 2.0, 3.0), lambda: _roots(*batch),
                     lambda: classify(general)):
            with pytest.raises(np.linalg.LinAlgError) as err:
                call()
            assert str(err.value) == str(wrapper.value) == "Eigenvalues did not converge"
