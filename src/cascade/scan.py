"""Parameter-grid evaluation of classification and observables.

One engine evaluates every point: scans map it over their grid, in grid
order, with the built-in ``map`` or a process pool's ordered ``map``, so
output is deterministic and byte-identical regardless of the worker count;
gain sweeps and ``cascade compare`` share :func:`compare_point`.  Per-point
errors are recorded as failure rows and never abort a scan or a sweep.
"""

from __future__ import annotations

import cmath
import json
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import analytic, oracle
from .bogoliubov import BogoliubovMatrix
from .characteristic import classify, solve_quartic
from .observables import (averaged_model, collective_min_variance,
                          photon_numbers, pdc_only_reference,
                          single_mode_min_variance)
from .params import ModelParams, derive, validate

QUANTITIES = ("regime", "n_as", "n_ai", "n_bs", "n_bi",
              "minvar_a", "minvar_b", "minvar_c", "growth_rate")

SCALAR_AXES = ("delta_tilde", "delta_s", "delta_i", "length")
MAGNITUDE_AXES = ("kappa_abs", "eta_s_abs", "eta_i_abs")

SOLVERS = ("analytic", "oracle", "averaged")

CROSS_CHECK_RTOL = 1e-5
CROSS_CHECK_FRACTION = 0.05


@dataclass(frozen=True)
class AxisSpec:
    name: str
    min: float
    max: float
    count: int

    def values(self) -> np.ndarray:
        if self.count < 1:
            raise ValueError("axis count must be >= 1")
        if self.name not in SCALAR_AXES + MAGNITUDE_AXES:
            raise ValueError(f"unknown axis parameter {self.name!r}")
        return np.linspace(self.min, self.max, self.count)


@dataclass(frozen=True)
class ScanSpec:
    """Grid description: base parameters, one or two axes, the quantities to
    evaluate and the solver.  With degenerate=True the idler-arm parameters
    are locked to the signal arm after each axis application (the natural
    axes of degenerate-configuration diagrams)."""

    base: ModelParams
    axis1: AxisSpec
    axis2: AxisSpec | None = None
    quantities: tuple = ("regime",)
    solver: str = "analytic"
    degenerate: bool = False

    def __post_init__(self):
        for q in self.quantities:
            if q not in QUANTITIES:
                raise ValueError(f"unknown quantity {q!r}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")

    def to_dict(self) -> dict:
        from .params import params_to_dict

        d = {
            "base": params_to_dict(self.base),
            "axis1": {"name": self.axis1.name, "min": self.axis1.min,
                      "max": self.axis1.max, "count": self.axis1.count},
            "quantities": list(self.quantities),
            "solver": self.solver,
            "degenerate": self.degenerate,
        }
        if self.axis2 is not None:
            d["axis2"] = {"name": self.axis2.name, "min": self.axis2.min,
                          "max": self.axis2.max, "count": self.axis2.count}
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ScanSpec":
        from .params import params_from_dict

        def _axis(a) -> AxisSpec:
            return AxisSpec(name=a["name"], min=float(a["min"]),
                            max=float(a["max"]), count=int(a["count"]))

        return cls(
            base=params_from_dict(data["base"]),
            axis1=_axis(data["axis1"]),
            axis2=_axis(data["axis2"]) if data.get("axis2") else None,
            quantities=tuple(data.get("quantities", ["regime"])),
            solver=data.get("solver", "analytic"),
            degenerate=bool(data.get("degenerate", False)),
        )


@dataclass(frozen=True)
class ScanResult:
    spec: dict
    rows: list
    failures: list
    cross_check_violations: list


def _apply_axis(params: ModelParams, name: str, value: float) -> ModelParams:
    if name in SCALAR_AXES:
        return replace(params, **{name: float(value)})
    field = {"kappa_abs": "kappa", "eta_s_abs": "eta_s", "eta_i_abs": "eta_i"}[name]
    old = getattr(params, field)
    phase = cmath.exp(1j * cmath.phase(old)) if old != 0 else 1.0 + 0j
    return replace(params, **{field: value * phase})


def point_params(spec: ScanSpec, v1: float, v2: float | None) -> ModelParams:
    p = _apply_axis(spec.base, spec.axis1.name, v1)
    if spec.axis2 is not None and v2 is not None:
        p = _apply_axis(p, spec.axis2.name, v2)
    if spec.degenerate:
        p = replace(p, eta_i=p.eta_s, delta_i=p.delta_s)
    return p


def solve_point(params: ModelParams, z: float | None = None,
                solver: str = "analytic") -> BogoliubovMatrix:
    """Bogoliubov matrix at z (default: the crystal output z = length).

    solver="analytic" uses the rotating-frame matrix exponential, valid in
    every regime; solver="oracle" integrates the mode equations;
    solver="averaged" applies the sinc-averaged parameter map first.
    """
    validate(params)
    if z is None:
        z = params.length
    if solver == "averaged":
        params, solver = averaged_model(params), "analytic"
    if solver == "oracle":
        return oracle.matrix_at(params, z)
    if solver != "analytic":
        raise ValueError(f"unknown solver {solver!r}")
    return analytic.transfer_matrix(params, z)


def evaluate_quantities(params: ModelParams, quantities, solver: str) -> dict:
    """One grid point: classification and/or matrix-derived observables."""
    if solver == "averaged":
        params, solver = averaged_model(params), "analytic"
    out = {}
    if "regime" in quantities:
        out["regime"] = classify(params).label.value
    if "growth_rate" in quantities:
        roots = solve_quartic(derive(params))
        out["growth_rate"] = max(r.real for r in roots.roots)
    if any(q.startswith(("n_", "minvar")) for q in quantities):
        m = solve_point(params, solver=solver)
        n = photon_numbers(m)
        for q in quantities:
            if q.startswith("n_"):
                out[q] = getattr(n, q)
        if "minvar_a" in quantities:
            out["minvar_a"] = single_mode_min_variance(m, "a").min_variance
        if "minvar_b" in quantities:
            out["minvar_b"] = single_mode_min_variance(m, "b").min_variance
        if "minvar_c" in quantities:
            out["minvar_c"] = collective_min_variance(m).min_variance
    return {q: out[q] for q in quantities}


def compare_point(params: ModelParams) -> dict:
    """Exact, sinc-averaged and plain phase-matched PDC photon numbers and
    signal squeezing at one point: {"exact", "averaged", "pdc_only"}, each
    {"n_a", "n_b", "minvar_a"}."""
    matrices = {"exact": solve_point(params, solver="analytic"),
                "averaged": solve_point(params, solver="averaged")}
    out = {}
    for tag, m in matrices.items():
        n = photon_numbers(m)
        out[tag] = {"n_a": n.n_as, "n_b": n.n_bs,
                    "minvar_a": single_mode_min_variance(m, "a").min_variance}
    pdc_n, pdc_mv = pdc_only_reference(params.kappa, 0.0, params.length)
    out["pdc_only"] = {"n_a": pdc_n, "n_b": 0.0, "minvar_a": pdc_mv}
    return out


def _captured(fn, *args) -> tuple[dict | None, str | None]:
    """(fn(*args), None), or (None, the exception's class name): the
    per-point failure capture of scans and sweeps."""
    try:
        return fn(*args), None
    except Exception as exc:  # per-point failure, recorded not raised
        return None, type(exc).__name__


def _tabulate(axes: list, results: list) -> tuple[list, list]:
    """Rows and failure rows from each point's axis values and result."""
    rows, failures = [], []
    for ax, (vals, err) in zip(axes, results):
        if err is None:
            rows.append({**ax, **vals})
        else:
            failures.append({**ax, "error": err})
    return rows, failures


def _scan_values(spec: ScanSpec, point: tuple) -> dict:
    p = validate(point_params(spec, *point))
    return evaluate_quantities(p, spec.quantities, spec.solver)


def _oracle_values(spec: ScanSpec, quantities: list, point: tuple) -> dict:
    p = point_params(spec, *point)
    if spec.solver == "averaged":
        p = averaged_model(p)
    return evaluate_quantities(p, quantities, "oracle")


def _ordered_map(pool, workers: int, fn, items: list) -> list:
    """fn over items, in input order; on the pool when there is one, in
    chunks sized from len(items) so that a short list splits too."""
    if pool is None:
        return list(map(fn, items))
    return list(pool.map(fn, items, chunksize=max(1, len(items) // (workers * 8))))


def _grid(spec: ScanSpec) -> list:
    """Deterministic point order (v1, v2): axis2 outer, axis1 inner."""
    v1s = [float(v) for v in spec.axis1.values()]
    if spec.axis2 is None:
        return [(v1, None) for v1 in v1s]
    return [(v1, float(v2)) for v2 in spec.axis2.values() for v1 in v1s]


def run_scan(spec: ScanSpec, workers: int = 1, strict: bool = False,
             cross_check: bool = False, seed: int = 0) -> ScanResult:
    """Evaluate every grid point, in grid order.

    With cross_check enabled (implied by strict), a seeded 5% sample of the
    successful analytic/averaged points is re-solved with the ODE oracle and
    observables are compared at 1e-5 relative; disagreements are reported in
    cross_check_violations and raise RuntimeError in strict mode.
    """
    grid = _grid(spec)
    checked = (cross_check or strict) and spec.solver in ("analytic", "averaged")
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        results = _ordered_map(pool, workers,
                               partial(_captured, _scan_values, spec), grid)
        violations: list = []
        if checked:
            numeric = [q for q in spec.quantities if q != "regime"]
            rng = np.random.default_rng(seed)
            sampled = [i for i in range(len(grid))
                       if rng.random() < CROSS_CHECK_FRACTION and results[i][1] is None]
            refs = _ordered_map(pool, workers, partial(_oracle_values, spec, numeric),
                                [grid[i] for i in sampled])
            for idx, ref in zip(sampled, refs):
                got = results[idx][0]
                for q in numeric:
                    denom = max(abs(ref[q]), 1e-8 / CROSS_CHECK_RTOL)
                    if abs(got[q] - ref[q]) > CROSS_CHECK_RTOL * denom:
                        violations.append({"index": idx, "quantity": q,
                                           "value": got[q], "oracle": ref[q]})
    if strict and violations:
        raise RuntimeError(f"strict cross-check failed at {len(violations)} point(s)")

    names = [spec.axis1.name] + ([spec.axis2.name] if spec.axis2 else [])
    axes = [dict(zip(names, point)) for point in grid]
    rows, failures = _tabulate(axes, results)
    return ScanResult(spec=spec.to_dict(), rows=rows, failures=failures,
                      cross_check_violations=violations)


def degenerate_diagram_spec(kappa: complex = 3.0 + 0j, delta_tilde: float = 0.0,
                            length: float = 2.0, count: int = 201) -> ScanSpec:
    """Default grid of the degenerate mismatch/coupling diagrams:
    delta_s in [-20, 20] cm^-1 against |eta_s| in [0, 8] cm^-1."""
    base = validate(ModelParams(kappa=complex(kappa), eta_s=0j, eta_i=0j,
                                delta_tilde=delta_tilde, delta_s=0.0,
                                delta_i=0.0, length=length))
    return ScanSpec(
        base=base,
        axis1=AxisSpec("delta_s", -20.0, 20.0, count),
        axis2=AxisSpec("eta_s_abs", 0.0, 8.0, count),
        quantities=("regime", "n_as", "n_bs", "minvar_a", "minvar_b",
                    "minvar_c"),
        solver="analytic",
        degenerate=True,
    )


def four_mode_diagram_spec(kappa: complex = 3.0 + 0j, eta: complex = 3.0 + 0j,
                           delta_tilde: float = 30.0, length: float = 2.0,
                           count: int = 201) -> ScanSpec:
    """Default grid of the four-mode cascaded-matching diagrams:
    delta_s against delta_i, both in [-10, 70] cm^-1 (photon numbers only;
    squeezing metrics are not defined off the degenerate configuration)."""
    base = validate(ModelParams(kappa=complex(kappa), eta_s=complex(eta),
                                eta_i=complex(eta), delta_tilde=delta_tilde,
                                delta_s=0.0, delta_i=0.0, length=length))
    return ScanSpec(
        base=base,
        axis1=AxisSpec("delta_s", -10.0, 70.0, count),
        axis2=AxisSpec("delta_i", -10.0, 70.0, count),
        quantities=("regime", "n_as", "n_ai", "n_bs", "n_bi"),
        solver="analytic",
    )


SWEEP_QUANTITIES = ("exact_n_a", "exact_n_b", "exact_minvar_a",
                    "averaged_n_a", "averaged_n_b", "averaged_minvar_a",
                    "pdc_n_a", "pdc_n_b", "pdc_minvar_a")

#: internal crystal length for gain sweeps; observables depend only on the
#: products |kappa| L, |eta_s| L and delta_s L, all of which are pinned by
#: (gamma, ratio, delta_s_times_length)
SWEEP_LENGTH = 1.0


def _sweep_values(params: ModelParams) -> dict:
    c = compare_point(params)
    return dict(zip(SWEEP_QUANTITIES,
                    (v for model in c.values() for v in model.values())))


def sweep_gain(delta_s_times_length: float, ratio_r: float,
               gamma_max: float, points: int) -> ScanResult:
    """Degenerate phase-matched-PDC gain sweep: for each parametric gain
    G = |kappa| L in [0, gamma_max], :func:`compare_point` at
    |eta_s| = r |kappa| and fixed delta_s L, flattened into SWEEP_QUANTITIES."""
    if points < 2:
        raise ValueError("points must be >= 2")
    L = SWEEP_LENGTH
    ds = delta_s_times_length / L
    gammas = [float(g) for g in np.linspace(0.0, gamma_max, points)]
    results = []
    for g in gammas:
        ka = g / L
        p = validate(ModelParams(kappa=ka + 0j, eta_s=ratio_r * ka + 0j,
                                 eta_i=ratio_r * ka + 0j, delta_tilde=0.0,
                                 delta_s=ds, delta_i=ds, length=L))
        results.append(_captured(_sweep_values, p))
    rows, failures = _tabulate([{"gamma": g} for g in gammas], results)
    spec = {"sweep_gain": {"delta_s_times_length": delta_s_times_length,
                           "ratio_r": ratio_r, "gamma_max": gamma_max,
                           "points": points, "length": L}}
    return ScanResult(spec=spec, rows=rows, failures=failures,
                      cross_check_violations=[])


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    return format(float(v), ".17g")


def emit(result: ScanResult, fmt: str) -> bytes:
    """Serialize a scan: CSV ('.' decimal, LF endings, header mandatory,
    17 significant digits) or JSON {spec, rows, failures}."""
    if fmt == "json":
        doc = {"spec": result.spec, "rows": result.rows,
               "failures": result.failures}
        if result.cross_check_violations:
            doc["cross_check_violations"] = result.cross_check_violations
        return (json.dumps(doc, indent=2) + "\n").encode()
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")

    if result.rows:
        columns = list(result.rows[0].keys())
    elif result.failures:
        columns = [k for k in result.failures[0] if k != "error"]
    else:
        columns = []
    with_error = bool(result.failures)
    header = columns + (["error"] if with_error else [])
    lines = [",".join(header)]
    for row in result.rows:
        cells = [_fmt(row[c]) for c in columns]
        if with_error:
            cells.append("")
        lines.append(",".join(cells))
    for fail in result.failures:
        cells = [_fmt(fail[c]) if c in fail else "" for c in columns]
        cells.append(fail["error"])
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()
