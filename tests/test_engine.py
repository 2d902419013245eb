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
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascade import analytic, observables, scan
from cascade.analytic import transfer_matrix
from cascade.bogoliubov import BogoliubovMatrix
from cascade.characteristic import classify
from cascade.cli import main
from cascade.observables import (collective_min_variance, photon_numbers,
                                 single_mode_min_variance)
from cascade.params import (ModelParams, degenerate_params, is_degenerate,
                            params_to_dict)
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
                assert close(row[q], v), (solver, q, row[q], v, p)


def test_edge_points_classify_as_expected():
    regimes = [r["regime"] for r in evaluate_points(_EDGES, ("regime",), "analytic")]
    assert regimes == [classify(p).label.value for p in _EDGES]
    assert regimes[2] == "V"


def dense_collective_minimum(m: BogoliubovMatrix, phases: int) -> float:
    """The stable collective variance of the rows (a + e b)/sqrt(2) of T,
    minimized over a dense phase grid."""
    a, _, b, _ = m.t
    e = np.exp(1j * np.linspace(0.0, 2 * math.pi, phases, endpoint=False))[:, None]
    x1, y1, x2, y2 = ((a + e * b) / math.sqrt(2)).T
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
], ids=["degenerate-string", "fractional-count", "repeated-quantity"])
def test_malformed_value_exits_2_naming_key(tmp_path, capsys, axis, key, value):
    # each of these used to run: "false" as degenerate, 2.7 as 2 points,
    # one CSV column for two quantities
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

    return BogoliubovMatrix.from_branches(z, [
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
    # one golden-section start per point, plus one where the 64-phase grid
    # has a second local minimum (a point without one is flat)
    calls, golden = [], observables._golden

    def counting(f, lo, *args):
        calls.append(np.size(lo))
        return golden(f, lo, *args)

    monkeypatch.setattr(observables, "_golden", counting)
    spec = scan.degenerate_diagram_spec(count=41)
    run_scan(spec)
    batch = scan._stack([scan.point_params(spec, v1, v2) for v1, v2 in scan._grid(spec)])
    rows = np.moveaxis(analytic.transfer_matrices(batch, batch.length), (-2, -1), (0, 1))
    c = observables._collective_coefficients(rows[0], rows[2])
    grid = observables._collective_variance([v[:, None] for v in c], np.exp)(observables._GRID)
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
@given(kappa_l=st.floats(0.0, 12.0), kappa_phase=_PHASE, eta=st.floats(0.0, 8.0),
       eta_phase=_PHASE, dt=st.floats(-20.0, 20.0), ds=st.floats(-20.0, 20.0),
       length=st.floats(0.2, 3.0))
def test_collective_minimum_not_above_dense_brute_force(kappa_l, kappa_phase, eta,
                                                        eta_phase, dt, ds, length):
    p = degenerate_params(kappa_l / length * cmath.exp(1j * kappa_phase),
                          eta * cmath.exp(1j * eta_phase), dt, ds, length)
    brute = dense_collective_minimum(transfer_matrix(p, length), 4096)
    (row,) = evaluate_points([p], ("minvar_c",), "analytic")
    assert row["minvar_c"] <= brute * (1 + 1e-12), (row["minvar_c"], brute, p)
