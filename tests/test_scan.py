import concurrent.futures
import csv
import dataclasses
import hashlib
import io
import json
import math

import numpy as np
import pytest

from cascade.observables import (averaged_model, photon_numbers,
                                 single_mode_min_variance)
from cascade import oracle, scan
from cascade.params import ModelParams, degenerate_params, params_to_dict, validate
from cascade.scan import (AxisSpec, ScanSpec, degenerate_diagram_spec, emit,
                          point_params, run_scan, solve_point, sweep_gain)


def deg_spec(**kw):
    base = degenerate_params(3, 1, 0, 0, 2)
    defaults = dict(
        base=base,
        axis1=AxisSpec("delta_s", -5.0, 15.0, 5),
        axis2=AxisSpec("eta_s_abs", 0.5, 4.0, 4),
        quantities=("regime", "n_as", "n_bs"),
        solver="analytic",
        degenerate=True,
    )
    defaults.update(kw)
    return ScanSpec(**defaults)


class TestGridMechanics:
    def test_row_order_and_coverage(self):
        spec = deg_spec()
        res = run_scan(spec)
        assert len(res.rows) + len(res.failures) == 20
        # axis2 outer, axis1 inner
        d_vals = [r["delta_s"] for r in res.rows[:5]]
        assert d_vals == sorted(d_vals)
        assert res.rows[0]["eta_s_abs"] == res.rows[4]["eta_s_abs"]

    def test_single_point_grid_matches_direct_solve(self):
        spec = deg_spec(axis1=AxisSpec("delta_s", 10.0, 10.0, 1), axis2=None)
        res = run_scan(spec)
        assert len(res.rows) == 1
        p = degenerate_params(3, 1, 0, 10, 2)
        direct = photon_numbers(solve_point(p))
        assert res.rows[0]["n_as"] == direct.n_as
        assert res.rows[0]["regime"] == "II"

    def test_degenerate_lockstep(self):
        spec = deg_spec()
        p = point_params(spec, 7.0, 2.0)
        assert p.delta_i == p.delta_s == 7.0
        assert p.eta_i == p.eta_s == 2.0

    def test_magnitude_axis_preserves_phase(self):
        base = validate(ModelParams(kappa=3j, eta_s=1 + 0j, eta_i=1 + 0j,
                                    delta_tilde=0, delta_s=0, delta_i=0,
                                    length=1))
        spec = ScanSpec(base=base, axis1=AxisSpec("kappa_abs", 1.0, 2.0, 2),
                        quantities=())
        p = point_params(spec, 2.0, None)
        assert p.kappa == pytest.approx(2j)

    def test_unknown_axis_and_quantity_rejected(self):
        with pytest.raises(ValueError):
            AxisSpec("bogus", 0, 1, 2).values()
        with pytest.raises(ValueError, match="count"):
            AxisSpec("delta_s", 0, 1, 0)
        with pytest.raises(ValueError):
            ScanSpec.from_dict({"base": params_to_dict(deg_spec().base),
                                "axis1": {"name": "delta_s", "min": 0,
                                          "max": 1, "count": 2},
                                "quantities": ["nope"]})

    def test_spec_checked_at_construction(self):
        with pytest.raises(ValueError, match="quantity"):
            deg_spec(quantities=("nope",))
        with pytest.raises(ValueError, match="solver"):
            deg_spec(solver="nope")
        with pytest.raises(ValueError, match="solver"):
            solve_point(deg_spec().base, solver="nope")

    def test_reference_points_regimes(self):
        spec = deg_spec(axis1=AxisSpec("delta_s", 0.0, 10.0, 2),
                        axis2=AxisSpec("eta_s_abs", 1.0, 4.0, 2),
                        quantities=("regime",))
        res = run_scan(spec)
        table = {(round(r["delta_s"]), round(r["eta_s_abs"])): r["regime"]
                 for r in res.rows}
        assert table[(10, 1)] == "II"
        assert table[(0, 4)] == "III"
        assert table[(0, 1)] == "IV"

    def test_per_point_failures_recorded(self):
        # sweeping the crystal length through negative values fails
        # validation pointwise without aborting the scan
        spec = deg_spec(axis1=AxisSpec("length", -1.0, 1.0, 3), axis2=None,
                        quantities=("n_as",))
        res = run_scan(spec)
        assert len(res.rows) + len(res.failures) == 3
        assert len(res.failures) == 1
        assert res.failures[0]["error"] == "ValueError"

    def test_failed_oracle_solve_is_a_failure_row(self, monkeypatch):
        # an ODE solve that raises fails its own point only: the other
        # points of the oracle scan keep their rows
        matrix_at = oracle.matrix_at

        def failing(params, z):
            if params.delta_s == 5.0:
                raise RuntimeError("integration failed")
            return matrix_at(params, z)

        monkeypatch.setattr(oracle, "matrix_at", failing)
        spec = deg_spec(axis1=AxisSpec("delta_s", 0.0, 10.0, 3), axis2=None,
                        quantities=("n_as",), solver="oracle")
        res = run_scan(spec)
        assert res.failures == [{"delta_s": 5.0, "error": "RuntimeError"}]
        assert [r["delta_s"] for r in res.rows] == [0.0, 10.0]
        assert all(math.isfinite(r["n_as"]) for r in res.rows)

    def test_oscillating_plateau(self):
        # phase-matched strong coupling: occupations flat near sinh^2(kL/2),
        # orders of magnitude below the plain-PDC sinh^2(kL)
        spec = deg_spec(axis1=AxisSpec("eta_s_abs", 2.0, 8.0, 7), axis2=None,
                        quantities=("n_as", "n_bs", "growth_rate"))
        res = run_scan(spec)
        ref = math.sinh(3.0) ** 2
        for row in res.rows:
            assert ref / 4 < row["n_as"] < 4 * ref
            assert ref / 4 < row["n_bs"] < 4 * ref
            assert row["growth_rate"] == pytest.approx(1.5, abs=1e-9)


class TestDeterminismAndParallel:
    def test_byte_identical_across_worker_counts(self):
        spec = deg_spec(axis1=AxisSpec("delta_s", -3.0, 12.0, 6),
                        axis2=AxisSpec("eta_s_abs", 0.0, 4.0, 4),
                        quantities=("regime", "n_as", "minvar_a"))
        a = emit(run_scan(spec, workers=1), "csv")
        b = emit(run_scan(spec, workers=4), "csv")
        assert a == b

    def test_cross_check_clean(self):
        spec = deg_spec(axis1=AxisSpec("delta_s", 2.0, 12.0, 40), axis2=None,
                        quantities=("n_as", "minvar_a"))
        res = run_scan(spec, cross_check=True, seed=3)
        assert res.cross_check_violations == []

    def test_cross_check_violations_reported(self, monkeypatch):
        # the oracle re-solve runs on the pool too: a tolerance no solver
        # meets gives the same violations for any worker count
        monkeypatch.setattr(scan, "CROSS_CHECK_RTOL", 1e-16)
        spec = deg_spec(axis1=AxisSpec("delta_s", 2.0, 12.0, 40), axis2=None,
                        quantities=("n_as", "minvar_a"))
        one = run_scan(spec, cross_check=True, seed=3).cross_check_violations
        two = run_scan(spec, workers=2, cross_check=True,
                       seed=3).cross_check_violations
        assert one and one == two

    @pytest.mark.parametrize("solver", ["analytic", "averaged"])
    def test_scan_without_solves_starts_no_processes(self, monkeypatch, solver):
        # worker processes run ODE solves only: chunks stay in this process
        def no_pool(*args, **kwargs):
            raise AssertionError("process pool started without ODE solves")

        spec = deg_spec(quantities=("regime", "n_as", "minvar_a"), solver=solver)
        one = emit(run_scan(spec), "csv")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert emit(run_scan(spec, workers=4), "csv") == one

    def test_oracle_scan_byte_identical_across_workers(self, monkeypatch):
        # 12 points in chunks of 5, two of them invalid (negative length);
        # the digest is the CSV that the pool gave when it ran whole chunks
        monkeypatch.setattr(scan, "CHUNK_POINTS", 5)
        spec = deg_spec(axis1=AxisSpec("length", -0.5, 2.0, 6),
                        axis2=AxisSpec("eta_s_abs", 0.5, 1.5, 2),
                        quantities=("regime", "n_as", "n_bs", "minvar_a"),
                        solver="oracle")
        one = emit(run_scan(spec, workers=1), "csv")
        assert emit(run_scan(spec, workers=2), "csv") == one
        assert hashlib.sha256(one).hexdigest() == \
            "a1de716e78799ba4a6b61582e76baf708f800fa00fc3c041c61d15d68ff01fb2"


class TestEmit:
    def test_csv_shape(self):
        spec = deg_spec(axis1=AxisSpec("delta_s", 0.0, 10.0, 2),
                        axis2=AxisSpec("eta_s_abs", 1.0, 4.0, 2),
                        quantities=("n_as",))
        res = run_scan(spec)
        lines = emit(res, "csv").decode().strip().split("\n")
        assert lines[0] == "delta_s,eta_s_abs,n_as"
        assert len(lines) == 5
        with pytest.raises(ValueError, match="format"):
            emit(res, "xml")

    def test_axes_only(self):
        spec = deg_spec(axis1=AxisSpec("delta_s", 0.0, 10.0, 3), axis2=None,
                        quantities=())
        payload = emit(run_scan(spec), "csv").decode()
        assert payload.splitlines()[0] == "delta_s"

    def test_round_trip_full_precision(self):
        spec = deg_spec(axis1=AxisSpec("delta_s", 0.0, 10.0, 3), axis2=None,
                        quantities=("n_as", "minvar_a"))
        res = run_scan(spec)
        text = emit(res, "csv").decode()
        parsed = list(csv.DictReader(io.StringIO(text)))
        for row, ref in zip(parsed, res.rows):
            for key, val in ref.items():
                assert float(row[key]) == val

    def test_failure_rows_have_error_column(self):
        spec = deg_spec(axis1=AxisSpec("length", -1.0, 1.0, 3), axis2=None,
                        quantities=("n_as",))
        text = emit(run_scan(spec), "csv").decode()
        lines = text.strip().split("\n")
        assert lines[0].endswith(",error")
        assert any(line.endswith(",ValueError") for line in lines[1:])

    def test_json_document(self):
        spec = deg_spec(axis1=AxisSpec("delta_s", 0.0, 10.0, 2), axis2=None,
                        quantities=("regime",))
        doc = json.loads(emit(run_scan(spec), "json"))
        assert set(doc) == {"spec", "rows", "failures"}
        assert doc["spec"]["degenerate"] is True
        assert len(doc["rows"]) == 2

    def test_spec_round_trip(self):
        spec = deg_spec()
        again = ScanSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec


class TestDiagramSpecs:
    def test_degenerate_diagram_defaults(self):
        from cascade.scan import degenerate_diagram_spec

        spec = degenerate_diagram_spec(count=11)
        assert spec.degenerate
        assert spec.axis1.name == "delta_s"
        res = run_scan(spec)
        assert len(res.rows) == 121
        assert {"regime", "minvar_c"} <= set(res.rows[0])

    def test_four_mode_diagram_defaults(self):
        from cascade.scan import four_mode_diagram_spec

        spec = four_mode_diagram_spec(count=5)
        assert not spec.degenerate
        res = run_scan(spec)
        assert len(res.rows) + len(res.failures) == 25
        assert "minvar_a" not in res.rows[0]


class TestSweepGain:
    def test_zero_gain_is_vacuum(self):
        res = sweep_gain(15 * math.pi, 1.0, 2.0, 3)
        row = res.rows[0]
        assert row["gamma"] == 0.0
        for tag in ("exact", "averaged", "pdc"):
            assert row[f"{tag}_n_a"] == 0.0
            assert row[f"{tag}_n_b"] == 0.0
            assert row[f"{tag}_minvar_a"] == 1.0

    def test_even_multiple_kills_averaged_upconversion(self):
        res = sweep_gain(16 * math.pi, 1.0, 4.0, 5)
        for row in res.rows[1:]:
            assert row["averaged_n_b"] == 0.0
            assert row["exact_n_b"] > 0.0

    def test_local_minimum_vs_averaged_plateau(self):
        res = sweep_gain(15 * math.pi, 1.0, 6.0, 61)
        mv = np.array([r["exact_minvar_a"] for r in res.rows])
        k = int(np.argmin(mv))
        assert 0 < k < len(mv) - 1
        assert mv[k] < mv[k - 1] and mv[k] < mv[k + 1] and mv[k] < mv[-1]


@pytest.mark.parametrize("quantities", [("regime",), ("regime", "growth_rate")])
def test_cross_check_without_matrix_quantities_solves_nothing(monkeypatch, quantities):
    def refuse(*args):
        raise AssertionError("no ODE solve expected")

    monkeypatch.setattr(scan, "_oracle_matrices", refuse)
    spec = dataclasses.replace(scan.four_mode_diagram_spec(count=21),
                               quantities=quantities)
    res = run_scan(spec, cross_check=True)
    assert res.cross_check_violations == []
    assert len(res.rows) == 21 * 21


def test_averaged_cross_check_solves_the_averaged_model(monkeypatch):
    # the oracle re-solves the averaged model of each sampled point of an
    # averaged scan, not the mismatched point itself, and agrees with it
    solved, oracle_matrices = [], scan._oracle_matrices

    def recording(points, workers=1):
        solved.extend(points)
        return oracle_matrices(points, workers)

    monkeypatch.setattr(scan, "_oracle_matrices", recording)
    spec = dataclasses.replace(degenerate_diagram_spec(count=9), solver="averaged")
    res = run_scan(spec, cross_check=True, seed=0)
    averaged = {(q.kappa, q.eta_s, q.eta_i, q.length): q for q in (
        averaged_model(point_params(spec, v1, v2))
        for v1, v2 in zip(*(v.tolist() for v in scan._grid(spec))))}
    assert solved and not res.failures
    for p in solved:
        assert (p.delta_tilde, p.delta_s, p.delta_i) == (0.0, 0.0, 0.0), p
        assert (p.kappa, p.eta_s, p.eta_i, p.length) in averaged, p
    assert res.cross_check_violations == []
