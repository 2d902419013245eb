"""Parameter-grid evaluation of classification and observables.

One chunk engine, :func:`evaluate_points`, evaluates many points at once:
every layer (validation, the regime masks, the growth rates, the transfer
matrices, the photon numbers and squeezing minima) is an array expression
over the points, and no point's arithmetic depends on its chunk-mates.
Scans evaluate their grid in grid order, one chunk of CHUNK_POINTS points
at a time in the calling process; chunks only bound a batch's memory, and
output is byte-identical for any chunk size and worker count.  Worker
processes run ODE solves only: the engine solves the points of the oracle
solver and of the oracle cross-check through :func:`_oracle_matrices` and
evaluates the solved matrices with the same batched observables.  The
solver picks only the propagator of T; regime, growth rate and the
squeezing gate belong to the point.  Gain sweeps and ``cascade compare``
run the engine exact and averaged (:func:`_compare`).  Every path keeps
its points as one batch; only the ODE solves and the plain-PDC reference
run point by point.  Per-point errors, a value beyond double precision
included (OverflowError), are recorded as failure rows and never abort a
scan or a sweep.
"""

from __future__ import annotations

import cmath
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import analytic, oracle
from .bogoliubov import BogoliubovMatrix
from .characteristic import classify_batch, growth_rate
from .observables import (DEGENERATE_ONLY, MISMATCHES, averaged_model,
                          mismatch_overflow, pdc_only_reference, stack_observables,
                          unconverged)
from .params import (ModelParams, derive, is_degenerate, record_first,
                     validate, validate_batch)

QUANTITIES = ("regime", "n_as", "n_ai", "n_bs", "n_bi",
              "minvar_a", "minvar_b", "minvar_c", "growth_rate")

SCALAR_AXES = ("delta_tilde", "delta_s", "delta_i", "length")
MAGNITUDE_AXES = ("kappa_abs", "eta_s_abs", "eta_i_abs")

SOLVERS = ("analytic", "oracle", "averaged")

CROSS_CHECK_RTOL = 1e-5
CROSS_CHECK_FRACTION = 0.05

#: grid points per chunk, the most a scan evaluates as one batch
CHUNK_POINTS = 512

_MATRIX_QUANTITIES = ("n_as", "n_ai", "n_bs", "n_bi",
                      "minvar_a", "minvar_b", "minvar_c")
_COUPLINGS = ("kappa", "eta_s", "eta_i")
_FIELDS = _COUPLINGS + ("delta_tilde", "delta_s", "delta_i", "length")


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
        if len(set(self.quantities)) != len(self.quantities):
            raise ValueError(f"quantities: repeated entry in {list(self.quantities)}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")

    def to_dict(self) -> dict:
        from .params import params_to_dict

        d = {
            "base": params_to_dict(self.base),
            "axis1": asdict(self.axis1),
            "quantities": list(self.quantities),
            "solver": self.solver,
            "degenerate": self.degenerate,
        }
        if self.axis2 is not None:
            d["axis2"] = asdict(self.axis2)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ScanSpec":
        """The spec of a decoded JSON document; ValueError naming a missing
        or malformed key."""
        from .params import _convert, _entry, params_from_dict

        def _axis(key: str) -> AxisSpec:
            a = _entry(data, key, "scan spec")
            count = _entry(a, "count", key)
            if _convert(int, count, f"{key}.count") != count:
                raise ValueError(f"{key}.count: {count!r} is not an integer")
            return AxisSpec(name=_entry(a, "name", key),
                            min=_convert(float, _entry(a, "min", key), f"{key}.min"),
                            max=_convert(float, _entry(a, "max", key), f"{key}.max"),
                            count=int(count))

        base = params_from_dict(_entry(data, "base", "scan spec"))
        quantities = data.get("quantities", ["regime"])
        if not isinstance(quantities, list):
            raise ValueError("scan spec: quantities must be a JSON list")
        degenerate = data.get("degenerate", False)
        if not isinstance(degenerate, bool):
            raise ValueError(f"scan spec: degenerate must be a JSON boolean, "
                             f"got {degenerate!r}")
        return cls(
            base=base,
            axis1=_axis("axis1"),
            axis2=_axis("axis2") if data.get("axis2") else None,
            quantities=tuple(quantities),
            solver=data.get("solver", "analytic"),
            degenerate=degenerate,
        )


@dataclass(frozen=True)
class ScanResult:
    spec: dict
    rows: list
    failures: list
    cross_check_violations: list


def _apply_axis(fields: dict, name: str, value) -> None:
    if name in SCALAR_AXES:
        fields[name] = value if isinstance(value, np.ndarray) else float(value)
        return
    field = {"kappa_abs": "kappa", "eta_s_abs": "eta_s", "eta_i_abs": "eta_i"}[name]
    old = fields[field]
    phase = cmath.exp(1j * cmath.phase(old)) if old != 0 else 1.0 + 0j
    fields[field] = value * phase


def point_params(spec: ScanSpec, v1, v2) -> ModelParams:
    """The parameters at axis values (v1, v2), v2 None for one axis; arrays
    of axis values give a batch, whose fields the axes do not set stay
    scalars."""
    fields = dict(vars(spec.base))
    _apply_axis(fields, spec.axis1.name, v1)
    if spec.axis2 is not None and v2 is not None:
        _apply_axis(fields, spec.axis2.name, v2)
    if spec.degenerate:
        fields["eta_i"], fields["delta_i"] = fields["eta_s"], fields["delta_s"]
    return ModelParams(**fields)


def solve_point(params: ModelParams, z: float | None = None,
                solver: str = "analytic") -> BogoliubovMatrix:
    """Bogoliubov matrix at z (default: the crystal output z = length).

    solver="analytic" uses the rotating-frame matrix exponential, valid in
    every regime; solver="oracle" integrates the mode equations;
    solver="averaged" exponentiates the sinc-averaged model (flagged
    degenerate by the point, not by that model).
    ValueError, with every solver, when z is not finite or not in [0, length].
    """
    validate(params)
    if z is None:
        z = params.length
    elif not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    elif not 0 <= z <= params.length:
        raise ValueError(f"z must lie in [0, length] = [0, {params.length!r}], got {z!r}")
    if solver == "oracle":
        return oracle.matrix_at(params, z)
    if solver == "analytic":
        return analytic.transfer_matrix(params, z)
    if solver == "averaged":
        t = analytic.transfer_matrix(averaged_model(params), z).t
        return BogoliubovMatrix(z, t, is_degenerate(params))
    raise ValueError(f"unknown solver {solver!r}")


def _stack(points: list) -> ModelParams:
    """One ModelParams whose fields are arrays over the points."""
    return ModelParams(*(np.array([getattr(p, f) for p in points]) for f in _FIELDS))


def _unstack(batch: ModelParams) -> list:
    """The points of a batch as ModelParams of Python numbers."""
    return [ModelParams(*values)
            for values in zip(*(getattr(batch, f).tolist() for f in _FIELDS))]


def _broadcast(batch: ModelParams) -> ModelParams:
    """A batch whose fields are scalars or arrays that broadcast to one
    shape, as one whose fields are flat arrays (n,): complex couplings, the
    rest real."""
    fields = np.broadcast_arrays(*(
        np.asarray(getattr(batch, f), dtype=complex if f in _COUPLINGS else float)
        for f in _FIELDS))
    return ModelParams(*(np.ravel(f) for f in fields))


def _solved(fn, *args):
    """fn(*args), or the exception it raises: the per-point failure capture
    of oracle solves and of the plain-PDC reference."""
    try:
        return fn(*args)
    except Exception as exc:  # per-point failure, recorded not raised
        return exc


def _oracle_matrix(params: ModelParams):
    """The oracle matrix at the crystal length, or the exception that stops
    it (a point that fails validation included)."""
    return _solved(solve_point, params, None, "oracle")


def _oracle_matrices(points: list, workers: int = 1) -> list:
    """:func:`_oracle_matrix` of each point, in input order.  The one place
    a scan starts worker processes: with more than one worker and more than
    one point, the ODE solves run on a process pool of at most one process
    per point."""
    processes = min(workers, len(points))
    if processes < 2:
        return list(map(_oracle_matrix, points))
    with ProcessPoolExecutor(processes) as pool:
        return list(pool.map(_oracle_matrix, points,
                             chunksize=max(1, len(points) // (processes * 8))))


def evaluate_points(points: list, quantities, solver: str) -> list:
    """The chunk engine: classification and matrix-derived observables of
    many points at once.  Returns, for each point, {quantity: value} or the
    exception that stops it, as the single-point functions would raise it.

    Every layer is an array expression over the points: validation, the
    regime masks on P, Q and R, the growth rates (:func:`growth_rate`), the
    transfer matrices from one stacked exponential (for solver="oracle",
    one ODE solve per point), and the photon numbers and squeezing minima.
    No point's arithmetic depends on the other points.  A point with a
    non-finite value fails with OverflowError."""
    if not points:
        return []
    quantities = tuple(quantities)
    errs, columns = _evaluate(_broadcast(_stack(points)), quantities, solver)
    rows = zip(*columns.values()) if quantities else [()] * len(errs)
    return [e or dict(zip(quantities, row)) for e, row in zip(errs, rows)]


def _evaluate(batch: ModelParams, quantities: tuple, solver: str,
              workers: int = 1) -> tuple[list, dict]:
    """:func:`evaluate_points` of a batch whose fields are flat arrays (n,),
    as :func:`_broadcast` gives them: each point's failure (None for none),
    and each quantity's values as a list.  With solver="oracle" and a matrix
    quantity requested, the engine runs the ODE solves itself, through
    :func:`_oracle_matrices` on at most workers processes; no other case
    solves anything."""
    errs = validate_batch(batch)
    values = {}
    with np.errstate(all="ignore"):
        if "regime" in quantities:
            values["regime"] = classify_batch(batch)
        if "growth_rate" in quantities:
            values["growth_rate"] = growth_rate(derive(batch), batch)
            record_first(errs, np.isnan(values["growth_rate"]), lambda: np.linalg.LinAlgError(
                "Array must not contain infs or NaNs"))
        if any(q in _MATRIX_QUANTITIES for q in quantities):
            values.update(_matrix_values(batch, quantities, errs, solver, workers))
        for q in quantities:
            if q != "regime":
                record_first(errs, ~np.isfinite(values[q]),
                             lambda: OverflowError(f"{q} exceeds double precision"))
    return errs, {q: values[q].tolist() for q in quantities}


def _matrix_values(batch: ModelParams, quantities: tuple, errs: list,
                   solver: str, workers: int) -> dict:
    """Photon numbers and squeezing minima of a batch; failures go to errs
    in the order the single-point functions meet them: a mismatch times the
    length that leaves double precision (averaged), the solve, the photon
    numbers, the squeezing of a point that is not degenerate, a collective
    search still moving at its cap."""
    if solver == "averaged":
        for name in MISMATCHES:
            record_first(errs, np.isinf(getattr(batch, name) * batch.length),
                         lambda name=name: mismatch_overflow(name))
    if solver != "oracle":
        solved = batch if solver == "analytic" else averaged_model(batch)
        t = analytic.transfer_matrices(solved, solved.length)
    else:
        t = np.broadcast_to(np.identity(4, dtype=complex), (len(errs), 4, 4)).copy()
        for k, m in enumerate(_oracle_matrices(_unstack(batch), workers)):
            if isinstance(m, BogoliubovMatrix):
                t[k] = m.t
            elif errs[k] is None:
                errs[k] = m
    record_first(errs, ~np.isfinite(t).all(axis=(-2, -1)),
                 lambda: OverflowError("transfer matrix entries exceed double precision"))
    out = stack_observables(t, quantities)
    photons = np.isfinite(np.stack([out[q] for q in ("n_as", "n_ai", "n_bs", "n_bi")]))
    record_first(errs, ~photons.all(axis=0),
                 lambda: OverflowError("photon number exceeds double precision"))
    if any(q.startswith("minvar") for q in quantities):
        record_first(errs, ~is_degenerate(batch), lambda: ValueError(DEGENERATE_ONLY))
    if "minvar_c" in quantities:
        record_first(errs, out["unconverged"], unconverged)
    return {q: out[q] for q in quantities if q in out}


def _compare(batch: ModelParams) -> tuple[list, dict]:
    """:func:`compare_point` of a batch, a ModelParams whose fields are
    scalars or arrays that broadcast to one shape: each point's failure (the
    exact model's, the averaged one's, the plain-PDC reference's) and the
    columns SWEEP_QUANTITIES, from the engine with solver "analytic" and
    "averaged"; the reference is per point."""
    batch, quantities = _broadcast(batch), ("n_as", "n_bs", "minvar_a")
    errs, exact = _evaluate(batch, quantities, "analytic")
    averaged_errs, averaged = _evaluate(batch, quantities, "averaged")
    errs = [e or a for e, a in zip(errs, averaged_errs)]
    pdc = [_solved(pdc_only_reference, k, 0.0, length)
           for k, length in zip(batch.kappa.tolist(), batch.length.tolist())]
    failed = [isinstance(r, Exception) for r in pdc]
    record_first(errs, failed, lambda: OverflowError("pdc_n_a exceeds double precision"))
    n, mv = zip(*((math.nan, math.nan) if f else r for r, f in zip(pdc, failed)))
    columns = [exact[q] for q in quantities] + [averaged[q] for q in quantities]
    return errs, dict(zip(SWEEP_QUANTITIES, columns + [n, [0.0] * len(n), mv]))


def compare_point(params: ModelParams) -> dict:
    """Exact, sinc-averaged and plain phase-matched PDC photon numbers and
    signal squeezing at one point: {"exact", "averaged", "pdc_only"}, each
    {"n_a", "n_b", "minvar_a"}; raises the point's failure."""
    (err,), columns = _compare(params)
    if err is not None:
        raise err
    values = iter(column[0] for column in columns.values())
    return {model: {q: next(values) for q in ("n_a", "n_b", "minvar_a")}
            for model in ("exact", "averaged", "pdc_only")}


def _chunks(count: int, evaluate) -> tuple[list, dict]:
    """evaluate(s) of the slices s of range(count), CHUNK_POINTS points at a
    time: each point's failure and each column, joined in order."""
    errors, columns = [], {}
    for start in range(0, count, CHUNK_POINTS):
        errs, part = evaluate(slice(start, start + CHUNK_POINTS))
        errors += errs
        for q, values in part.items():
            columns.setdefault(q, []).extend(values)
    return errors, columns


def _tabulate(names: list, points: list, errors: list, columns: dict) -> tuple[list, list]:
    """Rows and failure rows: each point's axis values (a tuple in the order
    of names) with its failure class name, or with its values (one list per
    quantity in columns)."""
    keys = names + list(columns)
    values = zip(*columns.values()) if columns else [()] * len(points)
    rows, failures = [], []
    for axes, err, vals in zip(points, errors, values):
        if err is None:
            rows.append(dict(zip(keys, axes + vals)))
        else:
            failures.append({**dict(zip(names, axes)), "error": type(err).__name__})
    return rows, failures


def _grid_params(spec: ScanSpec, points: list) -> ModelParams:
    """The parameters of grid points (v1, v2) as one flat batch."""
    return _broadcast(point_params(spec, *(np.array([pt[k] for pt in points])
                                           for k in (0, 1))))


def _grid(spec: ScanSpec) -> list:
    """Deterministic point order (v1, v2): axis2 outer, axis1 inner."""
    v1s = [float(v) for v in spec.axis1.values()]
    if spec.axis2 is None:
        return [(v1, None) for v1 in v1s]
    return [(v1, float(v2)) for v2 in spec.axis2.values() for v1 in v1s]


def run_scan(spec: ScanSpec, workers: int = 1, strict: bool = False,
             cross_check: bool = False, seed: int = 0) -> ScanResult:
    """Evaluate every grid point, in grid order, one chunk of CHUNK_POINTS
    points at a time in this process.  Worker processes (at most workers of
    them) run the ODE solves of solver="oracle" and of the cross-check.

    With cross_check enabled (implied by strict), a seeded 5% sample of the
    successful points of an analytic or averaged scan is re-solved with the
    ODE oracle (the averaged model of each, for "averaged") and its matrix
    quantities are compared at 1e-5 relative; disagreements are reported in
    cross_check_violations and raise RuntimeError in strict mode.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    grid = _grid(spec)
    errors, columns = _chunks(len(grid), lambda s: _evaluate(
        _grid_params(spec, grid[s]), spec.quantities, spec.solver, workers))
    violations: list = []
    numeric = tuple(q for q in spec.quantities if q in _MATRIX_QUANTITIES)
    if (cross_check or strict) and numeric and spec.solver != "oracle":
        rng = np.random.default_rng(seed)
        sampled = [i for i in range(len(grid))
                   if rng.random() < CROSS_CHECK_FRACTION and errors[i] is None]
        sample = _grid_params(spec, [grid[i] for i in sampled])
        if spec.solver == "averaged":
            sample = averaged_model(sample)
        ref_errors, refs = _evaluate(sample, numeric, "oracle", workers)
        for k, idx in enumerate(sampled):
            if ref_errors[k] is not None:
                raise ref_errors[k]
            for q in numeric:
                got, ref = columns[q][idx], refs[q][k]
                denom = max(abs(ref), 1e-8 / CROSS_CHECK_RTOL)
                if abs(got - ref) > CROSS_CHECK_RTOL * denom:
                    violations.append({"index": idx, "quantity": q,
                                       "value": got, "oracle": ref})
    if strict and violations:
        points = len({v["index"] for v in violations})
        raise RuntimeError(f"strict cross-check failed at {points} point(s)")

    names = [spec.axis1.name] + ([spec.axis2.name] if spec.axis2 else [])
    rows, failures = _tabulate(names, [pt[:len(names)] for pt in grid],
                               errors, columns)
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


def sweep_gain(delta_s_times_length: float, ratio_r: float,
               gamma_max: float, points: int) -> ScanResult:
    """Degenerate phase-matched-PDC gain sweep: for each parametric gain
    G = |kappa| L in [0, gamma_max], :func:`compare_point` at
    |eta_s| = r |kappa| and fixed delta_s L, flattened into SWEEP_QUANTITIES:
    the family is one batch, and each chunk evaluates a slice of its gains.
    ValueError for a negative gamma_max, or naming the parameter that a
    non-finite input feeds."""
    if points < 2:
        raise ValueError("points must be >= 2")
    L = SWEEP_LENGTH
    ds = delta_s_times_length / L

    def family(ka):  # the points at |kappa| = ka
        return ModelParams(ka + 0j, ratio_r * ka + 0j, ratio_r * ka + 0j, 0.0, ds, ds, L)

    # the couplings of gamma_max are the largest: every point's are finite
    # if they are, and no non-finite input reaches np.linspace
    validate(family(gamma_max / L))
    if gamma_max < 0:
        raise ValueError(f"gamma_max must be nonnegative, got {gamma_max!r}")
    gammas = np.linspace(0.0, gamma_max, points)
    errors, columns = _chunks(points, lambda s: _compare(family(gammas[s] / L)))
    rows, failures = _tabulate(["gamma"], list(zip(gammas.tolist())), errors, columns)
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
    if result.rows:
        # one format per row, what _fmt writes cell by cell; _tabulate gives
        # every row its keys in the same order
        line = ",".join("%s" if isinstance(v, str) else "%.17g"
                        for v in result.rows[0].values()) + ("," if with_error else "")
        lines += [line % tuple(row.values()) for row in result.rows]
    for fail in result.failures:
        cells = [_fmt(fail[c]) if c in fail else "" for c in columns]
        cells.append(fail["error"])
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()
