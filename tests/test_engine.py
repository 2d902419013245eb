"""The chunk engine of scan.py: batched rows against the single-point
functions, chunk independence, regimes and failure rows against the
per-point engine it replaced, and malformed scan specs."""

import cmath
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascade import analytic, closed_form, observables, scan
from cascade.analytic import transfer_matrix
from cascade.bogoliubov import BogoliubovMatrix
from cascade.characteristic import classify
from cascade.cli import main
from cascade.observables import (collective_min_variance, photon_numbers,
                                 single_mode_min_variance)
from cascade.params import (ModelParams, beyond_double, broadcast, degenerate_params,
                            is_degenerate, params_to_dict, stack, three_mode_params)
from cascade.scan import (MAGNITUDE_AXES, QUANTITIES, SCALAR_AXES, AxisSpec,
                          ScanSpec, emit, evaluate_points, run_scan)

SETTINGS = dict(deadline=None, database=None, derandomize=True)


def close(got, want, rtol=1e-12):
    return abs(got - want) <= rtol * max(abs(got), abs(want))


def single_point(p: ModelParams, solver: str = "analytic") -> dict:
    """Every quantity from the public single-point functions, the matrix
    from solve_point with solver; squeezing only at degenerate points."""
    regime = classify(p)
    out = {"regime": regime.label.value, "growth_rate": regime.max_growth_rate}
    m = scan.solve_point(p, solver=solver)
    n = photon_numbers(m)
    out.update(n_as=n.n_as, n_ai=n.n_ai, n_bs=n.n_bs, n_bi=n.n_bi)
    if is_degenerate(p):
        out["minvar_a"] = single_mode_min_variance(m, "a").min_variance
        out["minvar_b"] = single_mode_min_variance(m, "b").min_variance
        out["minvar_c"] = collective_min_variance(m).min_variance
    return out


_MAG = st.one_of(st.just(0.0), st.floats(0.05, 5.0))
_PHASE = st.floats(0.0, 2 * math.pi)
_DELTA = st.floats(-12.0, 12.0)


@st.composite
def points(draw):
    config = draw(st.sampled_from(("degenerate", "near_degenerate", "three_mode",
                                   "general")))
    length = draw(st.floats(0.2, 3.0))
    k, es, ei = (draw(_MAG) * complex(math.cos(ph), math.sin(ph))
                 for ph in (draw(_PHASE), draw(_PHASE), draw(_PHASE)))
    dt, ds, di = draw(_DELTA), draw(_DELTA), draw(_DELTA)
    if config == "degenerate":
        ei, di = es, ds
    elif config == "near_degenerate":
        # not degenerate, however close: no squeezing at any gain
        ei, di = es, ds * (1 + draw(st.sampled_from((1e-13, 1e-7, 1e-5))))
    elif config == "three_mode":
        ei, di = 0j, 0.0
    return ModelParams(kappa=k / length, eta_s=es, eta_i=ei, delta_tilde=dt,
                       delta_s=ds, delta_i=di, length=length)


# kappa = 0; eta = 0; area V (|kappa| = 2 |eta|, phase matched: a double root)
_EDGES = [degenerate_params(0, 1.5, 0.5, 3, 1.2),
          degenerate_params(2, 0, 0, 0, 1.5),
          degenerate_params(3, 1.5, 0, 0, 2)]


@settings(max_examples=60, **SETTINGS)
@given(st.lists(points(), min_size=1, max_size=12))
@example(_EDGES)
def test_batched_rows_equal_single_point_functions(batch):
    # the averaged solver exponentiates the batch's averaged models, and
    # solve_point the averaged model of each point
    for solver in ("analytic", "averaged"):
        rows = evaluate_points(batch, QUANTITIES, solver)
        for p, row in zip(batch, rows):
            want = single_point(p, solver)
            if "minvar_a" not in want:
                assert isinstance(row, ValueError)  # squeezing off degeneracy
                continue
            assert row["regime"] == want.pop("regime")
            # one growth-rate function serves classify and the batch, bit for bit
            assert row["growth_rate"] == want.pop("growth_rate"), p
            for q, v in want.items():
                # one |z|^2 gives the photon numbers of a point and of its
                # row, bit for bit; the minima may differ in the last bits
                same = row[q] == v if q.startswith("n_") else close(row[q], v)
                assert same, (solver, q, row[q], v, p)


def test_edge_points_classify_as_expected():
    regimes = [r["regime"] for r in evaluate_points(_EDGES, ("regime",), "analytic")]
    assert regimes == [classify(p).label.value for p in _EDGES]
    assert regimes[2] == "V"


def dense_collective_minimum(m: BogoliubovMatrix, phases: int) -> float:
    """The stable collective variance of the rows (a + e b)/sqrt(2) of T,
    minimized over a dense phase grid, in long double: in double its
    Lagrange minor rounds by about 1e-12 relative at kappa L = 8."""
    a, _, b, _ = m.t.astype(np.clongdouble)
    grid = np.linspace(0.0, 2 * math.pi, phases, endpoint=False).astype(np.longdouble)
    e = np.exp(1j * grid)[:, None]
    x1, y1, x2, y2 = ((a + e * b) / np.sqrt(np.longdouble(2))).T
    return ((1 + 4 * abs(x1 * y2.conj() - x2 * y1.conj()) ** 2)
            / (1 + 2 * (abs(y1) ** 2 + abs(y2) ** 2) + 2 * abs(x1 * y1 + x2 * y2))).min()


def test_collective_minimum_is_the_lower_of_two_narrow_minima():
    # the collective variance has two narrow minima about pi apart whose
    # 64-point grid values rank them wrongly (0.02376 is found first); a
    # dense brute force over the collective rows gives the lower 0.023504
    p = degenerate_params(3, 3.48, 0, -2.2, 2)
    m = transfer_matrix(p, p.length)
    brute = dense_collective_minimum(m, 20000)
    (row,) = evaluate_points([p], ("minvar_c",), "analytic")
    for got in (collective_min_variance(m).min_variance, row["minvar_c"]):
        assert brute * (1 - 1e-4) <= got <= brute


def _mixed_spec() -> ScanSpec:
    # eta_i = eta_s: the diagonal delta_i = delta_s is degenerate, the rest
    # is not, so chunks mix both kinds
    base = ModelParams(kappa=2.5 + 0.5j, eta_s=1.5 + 0j, eta_i=1.5 + 0j,
                       delta_tilde=3.0, delta_s=0.0, delta_i=0.0, length=1.5)
    return ScanSpec(base=base, axis1=AxisSpec("delta_s", -6.0, 6.0, 9),
                    axis2=AxisSpec("delta_i", -6.0, 6.0, 9),
                    quantities=QUANTITIES)


@pytest.mark.parametrize("spec", [
    _mixed_spec(),
    ScanSpec(base=degenerate_params(3, 1, 0, 0, 2),
             axis1=AxisSpec("delta_s", -20.0, 20.0, 11),
             axis2=AxisSpec("eta_s_abs", 0.0, 8.0, 11),
             quantities=QUANTITIES, degenerate=True),
], ids=["mixed", "degenerate"])
def test_chunk_independence(monkeypatch, spec):
    csv = {}
    for size in (1, 7, scan.CHUNK_POINTS):
        monkeypatch.setattr(scan, "CHUNK_POINTS", size)
        csv[size] = emit(run_scan(spec), "csv")
    assert csv[1] == csv[7] == csv[scan.CHUNK_POINTS]


@pytest.mark.parametrize("diagram", [scan.degenerate_diagram_spec,
                                     scan.four_mode_diagram_spec],
                         ids=["degenerate", "four_mode"])
def test_diagram_bytes_independent_of_chunk_size(monkeypatch, diagram):
    # a 41x41 diagram is one chunk; in chunks of 512 points it is four
    spec = diagram(count=41)
    assert scan.CHUNK_POINTS >= 41 * 41
    one = emit(run_scan(spec), "csv")
    monkeypatch.setattr(scan, "CHUNK_POINTS", 512)
    assert emit(run_scan(spec), "csv") == one


def test_diagram_chunk_memory():
    # tracemalloc peak of the 41x41 degenerate diagram as one chunk: 6.47 MB
    # measured (6.54 MB on a process's first scan; 6.60 MB with a
    # point-major _grid table); it is 8.32 MB if _expm and _grid keep their
    # temporaries to the end
    spec = scan.degenerate_diagram_spec(count=41)
    tracemalloc.start()
    try:
        run_scan(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * 6.60e6, peak


def _regime_digest(spec: ScanSpec) -> str:
    labels = "".join(row["regime"] + "\n" for row in run_scan(spec).rows)
    return hashlib.sha256(labels.encode()).hexdigest()


def test_regime_columns_match_per_point_engine():
    # sha256 of the regime column of each 41x41 diagram as the per-point
    # engine (one classify call per point) wrote it
    assert _regime_digest(scan.degenerate_diagram_spec(count=41)) == \
        "f9714f9f0ed3f6eb5ab227304fdae6909f1930f202396368305d186c39eb3eac"
    assert _regime_digest(scan.four_mode_diagram_spec(count=41)) == \
        "683326d698278a5db4870713b248d56e5d3e24adab5209aac0dba89b6ea37c45"


def test_regime_column_matches_classify_per_point():
    # the solver picks only the propagator of T: the averaged one too gives
    # the point's own regime and growth rate, bit for bit
    for solver in ("analytic", "averaged"):
        spec = dataclasses.replace(scan.four_mode_diagram_spec(count=15),
                                   quantities=("regime", "growth_rate"), solver=solver)
        res = run_scan(spec)
        assert len(res.rows) == 15 * 15
        for row in res.rows:
            p = scan.point_params(spec, row["delta_s"], row["delta_i"])
            regime = classify(p)
            assert (row["regime"], row["growth_rate"]) == \
                (regime.label.value, regime.max_growth_rate)


def test_overflow_becomes_failure_rows_without_warnings():
    # |kappa| L from 2 to 800: the squeezing minima overflow from
    # |kappa| = 100.75 on, the transfer matrix itself further up
    spec = ScanSpec(base=degenerate_params(1, 1, 0, 3, 2),
                    axis1=AxisSpec("kappa_abs", 1.0, 400.0, 41),
                    quantities=("regime", "n_as", "n_bs", "minvar_a", "minvar_b",
                                "minvar_c", "growth_rate"),
                    degenerate=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_scan(spec)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(res.rows) == 10
    assert [(f["kappa_abs"], f["error"]) for f in res.failures] == \
        [(float(v), "OverflowError") for v in np.linspace(1.0, 400.0, 41)[10:]]
    for row in res.rows:
        assert all(math.isfinite(row[q]) for q in spec.quantities if q != "regime")


def test_invalid_points_fail_like_validate():
    good = degenerate_params(3, 1, 0, 2, 1)
    bad = ModelParams(kappa=3 + 0j, eta_s=1 + 0j, eta_i=1 + 0j, delta_tilde=0.0,
                      delta_s=2.0, delta_i=2.0, length=-1.0)
    rows = evaluate_points([good, bad, good], ("n_as",), "analytic")
    assert rows[0] == rows[2]
    assert isinstance(rows[1], ValueError) and "length" in str(rows[1])


def _observables(p: ModelParams) -> None:
    """The one-point calls of the matrix quantities, in the order a point
    meets them: the solve, the photon numbers, then the squeezing minima."""
    m = scan.solve_point(p)
    photon_numbers(m)
    single_mode_min_variance(m, "a")
    single_mode_min_variance(m, "b")
    collective_min_variance(m)


def _single_a(p: ModelParams) -> None:
    single_mode_min_variance(scan.solve_point(p), "a")


def _single_b(p: ModelParams) -> None:
    single_mode_min_variance(scan.solve_point(p), "b")


def _collective(p: ModelParams) -> None:
    collective_min_variance(scan.solve_point(p))


def _general(kappa: float) -> ModelParams:
    return ModelParams(kappa=kappa + 0j, eta_s=1 + 0j, eta_i=0.5 + 0j, delta_tilde=0.0,
                       delta_s=1.0, delta_i=2.0, length=1.0)


# the averaged model's mismatch overflow is held by
# test_averaged_batch_names_an_overflowing_mismatch, and the NaN growth rate
# of each configuration by test_overflowing_coefficients_raise_the_scan_failure
@pytest.mark.parametrize("p, one_point", [
    (ModelParams(math.nan + 0j, 1j, 1j, 0.0, 1.0, 1.0, 1.0), _observables),
    (ModelParams(3 + 0j, 1 + 0j, 1 + 0j, 0.0, 3.0, 3.0, -1.0), _observables),
    (degenerate_params(400, 1, 0, 3, 2), _observables),
    (ModelParams(400 + 0j, 1 + 0j, 0.5 + 0j, 0.0, 1.0, 2.0, 2.0), _observables),
    (ModelParams(1e300 + 0j, 1 + 0j, 0.5 + 0j, 0.0, 1.0, 2.0, 1e10), _observables),
    (degenerate_params(178, 1, 0, 3, 2), _observables),
    (degenerate_params(100, 1, 0, 3, 2), _observables),
    (degenerate_params(99.6, 0.1, 0, 1, 2), _observables),
    (degenerate_params(177.58528428093646, 0.1, 0, 1, 2), _single_a),
    (degenerate_params(177.82608695652175, 0.1, 0, 1, 2), _collective),
    (degenerate_params(177.8, 0.5, 0, 0, 2), _single_b),
    (ModelParams(200 + 0j, 1 + 0j, 0.5 + 0j, 0.0, 1.0, 2.0, 2.0), _single_a),
    (ModelParams(200 + 0j, 1 + 0j, 0.5 + 0j, 0.0, 1.0, 2.0, 2.0), _collective),
    (ModelParams(3 + 0j, 1 + 0j, 1 + 0j, 0.0, 3.0, 3.0 * (1 + 1e-7), 2.0), _observables),
    (_general(1e154), classify),
    (_general(1e160), classify),
    (degenerate_params(1e160, 1, 0, 1, 1), classify),
], ids=["non-finite-field", "negative-length", "transfer-matrix",
        "transfer-matrix-general", "non-finite-generator", "photon-numbers",
        "minvar_a", "minvar_a-infinite", "minvar_a-denominator", "minvar_c-photon-numbers",
        "minvar_b-other-photon-number", "minvar_a-photon-numbers-general",
        "minvar_c-photon-numbers-general",
        "squeezing-off-degeneracy", "nan-growth-1e154",
        "nan-growth-1e160", "infinite-p-degenerate"])
def test_one_point_and_engine_name_a_failure_alike(p, one_point):
    # the engine records the class and the message that the one-point call
    # raises, for a regime scan with or without the growth rate; a generator
    # that is not finite ends in the transfer matrix's failure; at |kappa| =
    # 99.6, eta_s = 0.1 the minimum's 1 + 4 |L|^2 overflows to inf while
    # |L|^2 is finite; at |kappa| = 177.585... its 1 + 2N + 2|F| overflows
    # while N is finite, and at 177.826... a photon number overflows, which a
    # direct collective search names as the row does; at 177.8, eta_s = 0.5
    # n_as overflows while n_bs is finite, and at the general 200 every
    # photon number overflows while T is finite: the minima check all four
    # photon numbers before the degenerate rule, as the row does; a quartic
    # coefficient overflows from |kappa| = 1e154 on
    with pytest.raises(Exception) as one:
        one_point(p)
    for quantities in ([("regime", "growth_rate"), ("regime",)] if one_point is classify
                       else [QUANTITIES[1:8]]):
        (failure,) = evaluate_points([p], quantities, "analytic")
        assert (type(failure), str(failure)) == (type(one.value), str(one.value)), quantities


def test_minima_name_the_rows_photon_failure():
    # a seeded sweep across the photon-number overflow of a degenerate and a
    # general family: wherever the row fails on a photon number, a direct
    # minimum raises that failure, whichever mode overflows and whether or
    # not the point is degenerate
    rng = np.random.default_rng(32)
    points = [degenerate_params(k, 0.5, 0, 0, 2) for k in rng.uniform(177, 179, 1500)]
    points += [ModelParams(k + 0j, 1 + 0j, 0.5 + 0j, 0.0, 1.0, 2.0, 2.0)
               for k in rng.uniform(195, 205, 1500)]
    failed = 0
    for p, row in zip(points, evaluate_points(points, QUANTITIES[1:8], "analytic")):
        if isinstance(row, Exception) and str(row) == str(beyond_double("photon number")):
            failed += 1
            m = scan.solve_point(p)
            for one_point in (lambda: single_mode_min_variance(m, "a"),
                              lambda: single_mode_min_variance(m, "b"),
                              lambda: collective_min_variance(m)):
                with pytest.raises(Exception) as one:
                    one_point()
                assert (type(one.value), str(one.value)) == (type(row), str(row)), p
    assert 0 < failed < len(points)


# the labels are taken on coefficients over a power of two of their root
# scale, so none fails where a zero band CLASS_TOL * scale^k would leave
# double precision (from |kappa| of about 3e25 general, 1e52 three-mode and
# 2e77 degenerate); there the degenerate closed form's P^2 - 4R overflows,
# and the growth rate comes from the quartic's roots
@pytest.mark.parametrize("p", [_general(1e26), three_mode_params(1e52, 1, 0, 1, 1),
                               degenerate_params(1e100, 1, 0, 0, 1)],
                         ids=["regime-general", "regime-three-mode", "regime-degenerate"])
def test_one_point_and_engine_give_one_label(p):
    regime = classify(p)
    assert regime.max_growth_rate == pytest.approx(abs(p.kappa), rel=1e-12)
    for quantities in (("regime",), ("regime", "growth_rate")):
        (row,) = evaluate_points([p], quantities, "analytic")
        assert row["regime"] == regime.label.value, quantities
    assert row["growth_rate"] == regime.max_growth_rate


@settings(max_examples=60, **SETTINGS)
@given(st.lists(points(), min_size=1, max_size=12))
@example(_EDGES)
# |G z| below theta_13: no scaling, no squaring
@example([degenerate_params(0.4, 0.3, 0.5, -0.2, 1.0),
          ModelParams(kappa=0.3 + 0.2j, eta_s=0.2 + 0j, eta_i=0.1 - 0.1j, delta_tilde=0.4,
                      delta_s=-0.3, delta_i=0.2, length=1.5)])
# kappa L near 300: six squarings, and in the stack beside a point with none
@example([degenerate_params(150, 1, 0, 3, 2),
          ModelParams(kappa=100 + 50j, eta_s=1.5 + 0j, eta_i=0.8 + 0j, delta_tilde=1.0,
                      delta_s=4.0, delta_i=-2.0, length=300 / abs(100 + 50j)),
          degenerate_params(0.4, 0.3, 0.5, -0.2, 1.0)])
def test_one_point_transfer_matrix_is_its_batch_row_bit_for_bit(batch):
    # a point's exponential does not depend on its stack-mates, to the bit
    b = broadcast(stack(batch))
    rows = analytic.transfer_matrices(b, b.length)
    for p, row in zip(batch, rows):
        assert transfer_matrix(p, p.length).t.tobytes() == row.tobytes(), p


@settings(max_examples=100, **SETTINGS)
@given(points())
def test_one_point_growth_rate_is_its_batch_row_bit_for_bit(p):
    # one rule serves classify and the batch: exactly 0.0 in area I
    regime = classify(p)
    (row,) = evaluate_points([p], ("growth_rate",), "analytic")
    assert regime.max_growth_rate.hex() == row["growth_rate"].hex(), p
    if regime.label.value == "I":
        assert regime.max_growth_rate.hex() == (0.0).hex(), p


# malformed scan specs: every JSON document exits 0 or 2, never with a
# traceback

# numbers stay small: a junk axis count is still a grid size
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                  st.floats(-10.0, 10.0),
                  st.sampled_from((math.nan, math.inf, -math.inf)),
                  st.text(max_size=3), st.lists(st.integers(0, 2), max_size=3),
                  st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))


def _valid_spec() -> dict:
    return ScanSpec(base=degenerate_params(2, 1, 0, 1, 1),
                    axis1=AxisSpec("delta_s", -1.0, 1.0, 2),
                    axis2=AxisSpec("eta_s_abs", 0.0, 1.0, 2),
                    quantities=("regime", "n_as", "minvar_a"),
                    degenerate=True).to_dict()


@st.composite
def spec_documents(draw):
    doc = _valid_spec()
    # corrupt one to three places: a top-level key, a parameter or an axis
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(("top", "base", "axis1", "axis2")))
        target = doc if where == "top" else doc.get(where)
        if not isinstance(target, dict):
            continue
        keys = {"top": list(doc) + ["quantities", "solver"],
                "base": list(params_to_dict(degenerate_params(1, 1, 0, 0, 1))),
                "axis1": ["name", "min", "max", "count"],
                "axis2": ["name", "min", "max", "count"]}[where]
        key = draw(st.sampled_from(keys))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(st.one_of(
                _JUNK, st.sampled_from(SCALAR_AXES + MAGNITUDE_AXES),
                st.lists(st.sampled_from(QUANTITIES + ("bogus",)), max_size=3),
                st.sampled_from(("analytic", "averaged", "nope"))))
    return draw(st.one_of(st.just(doc), _JUNK))


@pytest.mark.parametrize("axis, key, value", [
    (None, "degenerate", "false"),
    ("axis1", "count", 2.7),
    (None, "quantities", ["n_as", "n_as"]),
    ("axis1", "name", "delta_i"),
    ("axis2", "name", "eta_i_abs"),
    ("axis2", "name", "delta_s"),
    (None, "axis2", {}),
], ids=["degenerate-string", "fractional-count", "repeated-quantity",
        "degenerate-idler-axis1", "degenerate-idler-axis2", "repeated-axis",
        "empty-axis2"])
def test_malformed_value_exits_2_naming_key(tmp_path, capsys, axis, key, value):
    # each of these used to run: "false" as degenerate, 2.7 as 2 points,
    # one CSV column for two quantities; in the degenerate spec an idler
    # axis, which the lock overwrites, as one printed row (axis1) or as
    # mislabelled rows (axis2); a repeated axis as pairs of identical rows
    # under one column holding axis2's values; an empty axis2 as a one-axis
    # scan
    doc = _valid_spec()
    (doc[axis] if axis else doc)[key] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code = main(["scan", "--spec", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err


def test_integral_float_count_accepted():
    doc = _valid_spec()
    doc["axis1"]["count"] = 2.0
    assert ScanSpec.from_dict(doc) == ScanSpec.from_dict(_valid_spec())


@settings(max_examples=150, **SETTINGS)
@given(spec_documents())
@example({})
@example({"base": {"kappa": [3, 0]}})
def test_malformed_spec_exits_0_or_2(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["scan", "--spec", str(path), "--output",
                     str(path.with_suffix(".csv"))])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")


# one exponential per transfer matrix: exp(G z) of the direct generator holds
# all four columns of T


def _two_exponentials(p: ModelParams, z: float) -> np.ndarray:
    """T from the direct and the signal/idler-swapped generators, each
    exponentiated by scipy and contributing its columns e1 and e3."""
    from scipy.linalg import expm

    def branch(b, c, d2, d3):
        a, d1 = p.kappa, p.delta_tilde
        g = 1j * np.array([[0, a, np.conj(b), 0],
                           [-np.conj(a), d1, 0, -c],
                           [b, 0, d2, 0],
                           [0, -np.conj(c), 0, d1 - d3]]) * z
        return np.exp(-np.diag(g))[:, None] * expm(g)[:, ::2]

    return closed_form.from_branches(z, [
        branch(p.eta_s, p.eta_i, p.delta_s, p.delta_i),
        branch(p.eta_i, p.eta_s, p.delta_i, p.delta_s)]).t


@settings(max_examples=80, **SETTINGS)
@given(points())
def test_one_exponential_equals_the_two_branch_exponentials(p):
    got = transfer_matrix(p, p.length).t
    want = _two_exponentials(p, p.length)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_transfer_matrices_exponentiate_each_point_once(monkeypatch):
    # one stack of rows forms for the 9 degenerate points of the diagonal,
    # one stack of full matrices for the other 72; both come in as complex
    # arrays and are multiplied in the same real product form
    sizes = []
    expm = analytic._expm

    def counted(g):
        sizes.append((g.shape, g.dtype))
        return expm(g)

    monkeypatch.setattr(analytic, "_expm", counted)
    res = run_scan(_mixed_spec())
    assert sizes == [((9, 2, 4), np.complex128), ((72, 4, 4), np.complex128)]
    assert len(res.rows) + len(res.failures) == 81


def _per_cell_csv(result) -> bytes:
    """CSV written one cell at a time with format(float(v), ".17g")."""
    def cell(v):
        return v if isinstance(v, str) else format(float(v), ".17g")

    columns = list(result.rows[0]) if result.rows else \
        [k for k in result.failures[0] if k != "error"]
    tail = [""] if result.failures else []
    lines = [",".join(columns + (["error"] if result.failures else []))]
    lines += [",".join([cell(row[c]) for c in columns] + tail) for row in result.rows]
    lines += [",".join([cell(f[c]) if c in f else "" for c in columns] + [f["error"]])
              for f in result.failures]
    return ("\n".join(lines) + "\n").encode()


def test_row_formatted_csv_matches_per_cell_reference():
    overflow = ScanSpec(base=degenerate_params(1, 1, 0, 3, 2),
                        axis1=AxisSpec("kappa_abs", 1.0, 400.0, 41),
                        quantities=("regime", "n_as", "n_bs", "minvar_a",
                                    "minvar_b", "minvar_c", "growth_rate"),
                        degenerate=True)
    results = [run_scan(overflow), scan.sweep_gain(47.12, 1.0, 6.0, 61)]
    assert results[0].failures and results[0].rows
    for res in results:
        assert emit(res, "csv") == _per_cell_csv(res)


def test_collective_search_refines_only_grid_minima(monkeypatch):
    # one Newton start per point, plus one where the 64-phase grid has a
    # second local minimum (a point without one is flat)
    calls, newton = [], observables._newton

    def counting(c, d):
        calls.append(np.size(d))
        return newton(c, d)

    monkeypatch.setattr(observables, "_newton", counting)
    spec = scan.degenerate_diagram_spec(count=41)
    run_scan(spec)
    batch = stack([scan.point_params(spec, v1, v2)
                   for v1, v2 in zip(*(v.tolist() for v in scan._grid(spec)))])
    rows = np.moveaxis(analytic.transfer_matrices(batch, batch.length), (-2, -1), (0, 1))
    grid = observables._grid(observables._collective_coefficients(rows[0], rows[2]))
    local = (grid < np.roll(grid, 1, axis=-1)) & (grid <= np.roll(grid, -1, axis=-1))
    assert sum(calls) == len(grid) + np.count_nonzero(local.sum(axis=-1) >= 2)


@pytest.mark.parametrize("kappa_l", [0.5, 3, 6, 10, 20])
def test_collective_minimum_with_b_in_vacuum(kappa_l):
    # eta_s = 0: b stays in vacuum, so the collective variance is
    # (variance of a + 1) / 2 at every relative phase
    p = degenerate_params(kappa_l / 2, 0, 0, 3, 2)
    (row,) = evaluate_points([p], ("minvar_a", "minvar_c"), "analytic")
    want = (row["minvar_a"] + 1) / 2
    for got in (row["minvar_c"], collective_min_variance(transfer_matrix(p, p.length)).min_variance):
        assert close(got, want, rtol=1e-14), (got, want)


@settings(max_examples=60, **SETTINGS)
@given(kind=st.sampled_from(("random", "kappa = 0", "eta = 0", "R = 0", "R = P^2/4")),
       kappa_l=st.floats(0.0, 12.0), kappa_phase=_PHASE, eta=st.floats(0.0, 8.0),
       eta_phase=_PHASE, dt=st.floats(-20.0, 20.0), ds=st.floats(-20.0, 20.0),
       length=st.floats(0.2, 3.0))
def test_collective_minimum_not_above_dense_brute_force(kind, kappa_l, kappa_phase, eta,
                                                        eta_phase, dt, ds, length):
    # the degenerate area-V boundaries at delta_tilde = 0: R = |eta|^4 -
    # |kappa|^2 delta_s^2 vanishes at |eta|^2 = |kappa delta_s|, and
    # R = P^2/4 at delta_s = 0, |eta| = |kappa|/2
    kappa = kappa_l / length
    if kind == "kappa = 0":
        kappa = 0.0
    elif kind == "eta = 0":
        eta = 0.0
    elif kind == "R = 0":
        dt, eta = 0.0, math.sqrt(kappa * abs(ds))
    elif kind == "R = P^2/4":
        dt, ds, eta = 0.0, 0.0, kappa / 2
    p = degenerate_params(kappa * cmath.exp(1j * kappa_phase),
                          eta * cmath.exp(1j * eta_phase), dt, ds, length)
    m = transfer_matrix(p, length)
    brute = dense_collective_minimum(m, 16384)
    (row,) = evaluate_points([p], ("minvar_c",), "analytic")
    for got in (row["minvar_c"], collective_min_variance(m).min_variance):
        assert got <= brute * (1 + 1e-12), (got, brute, p)


def test_collective_search_of_a_point_ignores_its_stack():
    # each start freezes on its own state: a point's minimum and phases are
    # the same, bit for bit, alone and inside a 512-point stack
    rng = np.random.default_rng(18)
    params = [degenerate_params(rng.uniform(0, 5) * cmath.exp(2j * math.pi * rng.random()),
                                rng.uniform(0, 5) * cmath.exp(2j * math.pi * rng.random()),
                                rng.uniform(-12, 12), rng.uniform(-12, 12), rng.uniform(0.2, 2))
              for _ in range(512)]
    batch = stack(params)
    t = analytic.transfer_matrices(batch, batch.length)

    def search(t):
        """minvar_c, and each start's point, delta and theta_opt"""
        rows = np.moveaxis(t, (-2, -1), (0, 1))
        c = observables._collective_coefficients(rows[0], rows[2])
        points, phases = observables._starts(observables._grid(c))
        c = [v[points] for v in c]
        d, _, _ = observables._newton(c, phases * observables._STEP)
        _, _, f0, f1, f2, _, _, _ = c
        e = np.exp(1j * d)
        theta = (math.pi - np.angle(f0 + (f1 + f2 * e) * e)) / 2
        return observables.stack_observables(t, ("minvar_c",))["minvar_c"], points, d, theta

    minvar, owner, delta, theta = search(t)
    for k in range(len(t)):
        alone = search(t[k:k + 1])
        assert alone[0][0] == minvar[k], k
        for got, want in zip(alone[2:], (delta[owner == k], theta[owner == k])):
            assert got.tobytes() == want.tobytes(), k


def test_collective_search_at_its_cap_fails_by_name(monkeypatch, capsys):
    # a search still moving after its last step is a failure row in a scan
    # and exit 2 with one error line on the command line, not a value
    monkeypatch.setattr(observables, "_MAX_STEPS", 2)
    res = run_scan(scan.degenerate_diagram_spec(count=5))
    assert {f["error"] for f in res.failures} == {"ConvergenceError"}
    assert len(res.rows) + len(res.failures) == 25 and res.rows  # flat rows stop early
    code = main(["solve", "--kappa", "3", "--eta-s", "1", "--delta-s", "10",
                 "--length", "2", "--degenerate"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: minvar_c: the phase search was still moving after 2 Newton steps\n"


def _degenerate_stack(seed: int, count: int, kappa_l_max: float) -> tuple:
    """The collective coefficients of count seeded degenerate points with
    kappa L up to kappa_l_max, as arrays (count,)."""
    rng = np.random.default_rng(seed)
    params = []
    for _ in range(count):
        length = rng.uniform(0.2, 3.0)
        params.append(degenerate_params(
            rng.uniform(0, kappa_l_max) / length * cmath.exp(2j * math.pi * rng.random()),
            rng.uniform(0, 8) * cmath.exp(2j * math.pi * rng.random()),
            rng.uniform(-20, 20), rng.uniform(-20, 20), length))
    batch = stack(params)
    rows = np.moveaxis(analytic.transfer_matrices(batch, batch.length), (-2, -1), (0, 1))
    return observables._collective_coefficients(rows[0], rows[2])


def test_real_grid_matches_the_complex_variance():
    # the grid's real trigonometric tables give the variance of the complex
    # formula; each evaluation rounds Lc at eps of its largest term, so the
    # bound is relative to the value or to (1 + S^2) / (m0 - |m1|), S =
    # |g0| + |g1| + |g_{-1}|, whichever is larger (1 + 2N >= m0 - |m1| >= 1)
    c = _degenerate_stack(19, 400, 40.0)
    m0, m1, _, _, _, g0, g1, gm1 = c
    grid = observables._grid(c)
    want = observables._objective([v[:, None] for v in c], observables._GRID)[0]
    assert grid.shape == (400, observables._GRID_POINTS) and np.isfinite(grid).all()
    s = abs(g0) + abs(g1) + abs(gm1)
    scale = np.maximum(want, ((1 + s * s) / (m0 - abs(m1)))[:, None])
    assert (abs(grid - want) <= 1e-13 * scale).all()
    # one matrix (Python numbers) and one-point stacks give the stack's bytes
    for k in range(0, 400, 7):
        one = [v[k].item() for v in c]
        assert observables._grid(one).tobytes() == grid[k].tobytes(), k
        assert observables._grid([v[k:k + 1] for v in c])[0].tobytes() == grid[k].tobytes(), k


def _point_major_grid(c: tuple) -> np.ndarray:
    """_grid with a point-major coefficient table (n, 5 polynomials, 5 basis
    functions): the same products and tail in another memory layout."""
    m0, m1, f0, f1, f2, g0, g1, gm1 = c
    a, b = g1 + gm1, g1 - gm1
    zero = np.zeros(m0.shape)
    table = np.array([[g0.real, g0.imag, m0, f0.real, f0.imag],
                      [a.real, a.imag, m1.real, f1.real, f1.imag],
                      [-b.imag, b.real, -m1.imag, -f1.imag, f1.real],
                      [zero, zero, zero, f2.real, f2.imag],
                      [zero, zero, zero, -f2.imag, f2.real]])
    re_l, im_l, n, re_f, im_f = np.einsum("...pk,kj->p...j", np.ascontiguousarray(table.T),
                                          observables._BASIS)
    return (1.0 + re_l * re_l + im_l * im_l) / (n + np.sqrt(re_f * re_f + im_f * im_f))


def test_grid_layout_changes_no_bit():
    # the polynomial-major table gives the point-major table's bytes and
    # starts, on seeded points and on the 41x41 diagram's chunk, so the
    # summation order is the einsum's, not the layout's
    spec = scan.degenerate_diagram_spec(count=41)
    batch = broadcast(scan.point_params(
        spec, *(v[:scan.CHUNK_POINTS] for v in scan._grid(spec))))
    rows = np.moveaxis(analytic.transfer_matrices(batch, batch.length), (-2, -1), (0, 1))
    for c in (_degenerate_stack(19, 400, 40.0),
              observables._collective_coefficients(rows[0], rows[2])):
        with np.errstate(over="ignore", invalid="ignore"):
            grid, want = observables._grid(c), _point_major_grid(c)
        assert grid.tobytes() == want.tobytes()
        for got, ref in zip(observables._starts(grid), observables._starts(want)):
            assert np.array_equal(got, ref)


def test_newton_drops_frozen_starts(monkeypatch):
    # each step evaluates only the starts still moving: on the first chunk
    # of the 41x41 diagram (the whole diagram) the counts never grow, and
    # the last step evaluates fewer than a tenth of the starts
    counts, objective = [], observables._objective
    spec = scan.degenerate_diagram_spec(count=41)
    batch = broadcast(scan.point_params(
        spec, *(v[:scan.CHUNK_POINTS] for v in scan._grid(spec))))
    t = analytic.transfer_matrices(batch, batch.length)

    def counting(c, d):
        counts.append(np.size(d))
        return objective(c, d)

    monkeypatch.setattr(observables, "_objective", counting)
    with np.errstate(all="ignore"):
        out = observables.stack_observables(t, ("minvar_c",))
    starts = counts[0]
    assert starts >= len(t) and not out["unconverged"].any()
    assert all(b <= a for a, b in zip(counts, counts[1:])), counts
    assert counts[-1] < starts / 10, counts


@pytest.mark.parametrize("name", ["delta_tilde", "delta_s", "delta_i"])
def test_averaged_batch_names_an_overflowing_mismatch(name):
    # a mismatch times the length beyond the double range fails a batch's
    # point with the error the one-point averaged solve raises
    fields = dict(kappa=3, eta_s=1, eta_i=1, delta_tilde=0.0, delta_s=0.0,
                  delta_i=0.0, length=1e10)
    fields[name] = 1e300
    p = ModelParams(**fields)
    with pytest.raises(OverflowError) as one:
        scan.solve_point(p, solver="averaged")
    assert str(one.value) == f"{name} * length exceeds double precision"
    fine = degenerate_params(3, 1, 0, 10, 2)
    bad, good = evaluate_points([p, fine], ("n_as", "n_bs"), "averaged")
    assert type(bad) is OverflowError and str(bad) == str(one.value)
    assert set(good) == {"n_as", "n_bs"} and math.isfinite(good["n_as"])
    spec = ScanSpec(base=p, axis1=AxisSpec("length", 1e10, 2.0, 2), quantities=("n_as",),
                    solver="averaged")
    res = run_scan(spec)
    assert [f["error"] for f in res.failures] == ["OverflowError"] and len(res.rows) == 1
