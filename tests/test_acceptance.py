"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Random draws are seeded and frozen.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

import cascade as c
from cascade.bogoliubov import ENTRY_NAMES
from cascade.closed_form import MultipleRootsError
from cascade.scan import AxisSpec, ScanSpec, emit, run_scan


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def random_params(rng, couple_max=10.0, mismatch_max=10.0, l_max=3.0):
    mags = rng.uniform(0, couple_max, 3)
    phases = rng.uniform(0, 2 * np.pi, 3)
    d = rng.uniform(-mismatch_max, mismatch_max, 3)
    return c.validate(c.ModelParams(
        kappa=mags[0] * np.exp(1j * phases[0]),
        eta_s=mags[1] * np.exp(1j * phases[1]),
        eta_i=mags[2] * np.exp(1j * phases[2]),
        delta_tilde=d[0], delta_s=d[1], delta_i=d[2],
        length=rng.uniform(0, l_max)))


@pytest.mark.slow
def test_criterion_01_canonical_identity_suite():
    rng = np.random.default_rng(20260801)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        p = random_params(rng)
        zs = np.sort(rng.uniform(0.0, p.length, 8)) if p.length > 0 else np.zeros(8)
        grid = np.unique(np.concatenate([[0.0], zs]))
        traj = c.integrate(p, grid)
        for m in traj.matrices:
            worst = max(worst, max(c.canonical_residuals_scaled(m)))
        roots = c.solve_quartic(c.derive(p))
        if not roots.near_multiple and p.kappa != 0:
            for z in zs:
                m = c.full_matrix(p, float(z))
                worst = max(worst, max(c.canonical_residuals_scaled(m)))
    elapsed = time.time() - t0
    report(1, "canonical identities, 1000 random sets x 8 z",
           worst < 1e-8 and elapsed < 60,
           f"worst residual {worst:.2e}, {elapsed:.1f} s")


@pytest.mark.slow
def test_criterion_02_analytic_oracle_equivalence():
    rng = np.random.default_rng(20260802)
    t0 = time.time()
    worst = 0.0
    accepted = 0
    while accepted < 500:
        p = random_params(rng)
        roots = c.solve_quartic(c.derive(p))
        if roots.min_root_separation <= 1e-3 or p.kappa == 0:
            continue
        accepted += 1
        ma = c.full_matrix(p, p.length)
        mo = c.matrix_at(p, p.length)
        for k in ENTRY_NAMES:
            a, o = getattr(ma, k), getattr(mo, k)
            err = abs(a - o) / max(abs(o), 1e-3)
            worst = max(worst, err)
    elapsed = time.time() - t0
    report(2, "analytic vs oracle, 500 sets, 16 entries at z = L",
           worst < 1e-6 and elapsed < 120,
           f"worst relative {worst:.2e}, {elapsed:.1f} s")


def test_criterion_03_pdc_only_limit():
    worst_n = 0.0
    worst_v = 0.0
    for ka in (0.5, 3.0, 6.0):
        for dt in (0.0, 4.0, 10.0):
            for L in (0.5, 1.0, 2.0):
                p = c.validate(c.ModelParams(kappa=ka + 0j, eta_s=0j, eta_i=0j,
                                             delta_tilde=dt, delta_s=0.0,
                                             delta_i=0.0, length=L))
                m = c.solve_point(p)
                n = c.photon_numbers(m).n_as
                ref, mv_ref = c.pdc_only_reference(ka, dt, L)
                worst_n = max(worst_n, abs(n - ref) / ref)
                if dt == 0.0:
                    mv = c.single_mode_min_variance(m, "a").min_variance
                    worst_v = max(worst_v, abs(mv - mv_ref) / mv_ref)
    report(3, "plain-PDC limit: photon number and squeezing closed forms",
           worst_n < 1e-10 and worst_v < 1e-10,
           f"worst n_a {worst_n:.2e}, worst minvar {worst_v:.2e}")


def test_criterion_04_regime_ground_truth():
    expected = {(10.0, 1.0): "II", (0.0, 1.0): "IV",
                (0.0, 4.0): "III", (0.5, 4.0): "III"}
    got = {key: c.classify(
        c.degenerate_params(3, key[1], 0, key[0], 2)).label.value
        for key in expected}
    report(4, "degenerate regime labels at the reference points",
           got == expected, f"{got}")


def test_criterion_05_oscillating_plateau():
    ref = math.sinh(3.0) ** 2
    ok = True
    details = []
    for eta in (2.0, 4.0, 6.0, 8.0):
        p = c.degenerate_params(3, eta, 0, 0, 2)
        m = c.solve_point(p)
        n = c.photon_numbers(m)
        growth = c.classify(p).max_growth_rate
        in_band = (ref / 2 <= n.n_as <= 2 * ref) and (ref / 2 <= n.n_bs <= 2 * ref)
        growth_ok = abs(growth - 1.5) <= 1e-9
        ok = ok and in_band and growth_ok
        details.append(f"eta={eta:g}: n_a/ref={n.n_as / ref:.3f} "
                       f"n_b/ref={n.n_bs / ref:.3f}")
    # Known defect of the stated bound: at eta_s = 2 the output sits on a
    # swing of the oscillating plateau and n_b = 2.539 sinh^2(3), outside the
    # factor-2 band.  Verified independently with the closed form, the ODE
    # integrator and a matrix exponential of the phase-matched (autonomous)
    # system; the criterion is asserted as stated.
    report(5, "oscillating plateau within factor 2 of sinh^2(3)", ok,
           "; ".join(details))


def test_criterion_06_squeezing_floor_sweep():
    t0 = time.time()
    res = c.sweep_gain(15 * math.pi, 1.0, 6.0, 61)
    gammas = np.array([r["gamma"] for r in res.rows])
    exact = np.array([r["exact_minvar_a"] for r in res.rows])
    avg = np.array([r["averaged_minvar_a"] for r in res.rows])
    k = int(np.argmin(exact))
    local_min = (0 < k < len(exact) - 1 and exact[k] < exact[k - 1]
                 and exact[k] < exact[k + 1] and exact[k] < exact[-1])
    sel = gammas >= 4.0
    # best constant for relative deviation is the midpoint of the range
    const = (avg[sel].max() + avg[sel].min()) / 2
    plateau = np.all(np.abs(avg[sel] - const) <= 0.1 * const)
    sel = (gammas <= 4.0) & (gammas > 0)
    worst_approx = 0.0
    for g, mv in zip(gammas[sel], exact[sel]):
        _, _, approx = c.lossy_approximation(g + 0j, g + 0j, 15 * math.pi, 1.0)
        worst_approx = max(worst_approx, abs(approx - mv) / mv)
    elapsed = time.time() - t0
    report(6, "gain sweep: local minimum, averaged plateau, approximation",
           bool(local_min and plateau) and worst_approx < 0.1 and elapsed < 30,
           f"min at gamma={gammas[k]:.1f}, approx dev {worst_approx:.3f}, "
           f"{elapsed:.1f} s")


def test_criterion_07_averaged_sinc_zeros():
    ok = True
    for mult in (2, 4):
        res = c.sweep_gain(2 * math.pi * mult, 1.0, 3.0, 4)
        for row in res.rows[1:]:
            ok = ok and row["averaged_n_b"] == 0.0 and row["exact_n_b"] > 0.0
    report(7, "averaged coupling vanishes at delta_s L = 2 pi m", ok)


def test_criterion_08_conjugate_root_lemma():
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(200):
        p = random_params(rng)
        r = c.solve_quartic(c.derive(p))
        rs = c.solve_quartic(c.derive(p.swapped()))
        conj = sorted((x.conjugate() for x in r.roots),
                      key=lambda x: (-x.real, -x.imag))
        scale = max(1.0, max(abs(x) for x in r.roots))
        worst = max(worst, max(abs(a - b) for a, b in zip(rs.roots, conj))
                    / scale)
    report(8, "mode swap conjugates the root multiset", worst < 1e-9,
           f"worst {worst:.2e}")


def test_criterion_09_three_mode_criterion():
    grid = np.linspace(0.1, 5.0, 50)
    bad = 0
    for ka in grid:
        for eta in grid:
            if abs(ka - eta) < 1e-6:
                continue  # boundary band excluded
            r = c.classify(c.three_mode_params(ka, eta, 0, 0, 1))
            want = "II" if ka > eta else "I"
            if r.label.value != want:
                bad += 1
    report(9, "three-mode amplification iff |kappa| > |eta_s| on 50x50 grid",
           bad == 0, f"{bad} mismatches")


def test_criterion_10_cascaded_phase_matching():
    def numbers(ds, di):
        p = c.validate(c.ModelParams(kappa=3 + 0j, eta_s=3 + 0j, eta_i=3 + 0j,
                                     delta_tilde=30.0, delta_s=ds, delta_i=di,
                                     length=2.0))
        return c.photon_numbers(c.solve_point(p))

    # along delta_i = delta_tilde (Phi_i = 0), delta_s far from the crossing
    n = numbers(-10.0, 30.0)
    pair_ok = 0.5 <= n.n_as / n.n_bi <= 2.0
    sep_ok = min(n.n_as, n.n_bi) >= 10 * max(n.n_ai, n.n_bs)
    # mirrored along Phi_s = 0
    m = numbers(30.0, -10.0)
    pair_ok_m = 0.5 <= m.n_ai / m.n_bs <= 2.0
    sep_ok_m = min(m.n_ai, m.n_bs) >= 10 * max(m.n_as, m.n_bi)
    # near the crossing all four occupations agree within a factor 2
    near_ok = True
    for ds, di in ((30.0, 30.0), (29.8, 30.2)):
        q = numbers(ds, di)
        vals = [q.n_as, q.n_ai, q.n_bs, q.n_bi]
        near_ok = near_ok and max(vals) <= 2 * min(vals)
    report(10, "cascaded phase-matching structure of the four-mode diagram",
           pair_ok and sep_ok and pair_ok_m and sep_ok_m and near_ok,
           f"pair {n.n_as / n.n_bi:.2f}, separation "
           f"{min(n.n_as, n.n_bi) / max(n.n_ai, n.n_bs):.1f}x")


@pytest.mark.slow
def test_criterion_11_scan_determinism():
    spec = ScanSpec(
        base=c.degenerate_params(3, 1, 0, 0, 2),
        axis1=AxisSpec("delta_s", -20.0, 20.0, 201),
        axis2=AxisSpec("eta_s_abs", 0.0, 8.0, 201),
        quantities=("regime", "n_as", "n_bs", "minvar_a", "minvar_b",
                    "minvar_c"),
        solver="analytic",
        degenerate=True,
    )
    t0 = time.time()
    csv8 = emit(run_scan(spec, workers=8), "csv")
    t8 = time.time() - t0
    csv1 = emit(run_scan(spec, workers=1), "csv")
    report(11, "201x201 scan byte-identical for 1 and 8 workers",
           csv1 == csv8 and t8 < 300,
           f"{len(csv1)} bytes, 8-worker run {t8:.0f} s")
