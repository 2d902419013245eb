"""Time each layer of one scan chunk, in process.

    PYTHONPATH=src python tools/layers.py

takes the first CHUNK_POINTS (2048) points of the 41x41 degenerate diagram
and of the 41x41 four-mode diagram, so each chunk is the whole diagram
(1681 points), and times, for each chunk, the layers the chunk engine
runs: validate + derive, `labels` (given the chunk's derived
parameters), `growth_rate` (given the chunk's labels),
`transfer_matrices`, photon numbers + single-mode minima, and, on the
degenerate chunk, the collective search's parts as
`stack_observables` runs them: its coefficients
(`_collective_coefficients`), its 64-phase grid (`_grid`), the grid
starts (`_starts`) and their Newton refinement.
Each layer takes the previous layers' results as inputs, made before
timing.  The rounds interleave the layers and the two chunks; the table
gives each layer's median and quartiles [ms], the sum of the layers the
engine runs for the chunk's quantities (neither diagram asks for the growth
rate, marked *), and the whole chunk through the engine (`scan._evaluate`)
for comparison.  A last table times the collective search of one matrix
(`collective_min_variance` on the README point kappa = 3, eta_s = 1,
delta_s = 10, L = 2) and its grid, starts and refinement [us], and a
one-point table of the single-point calls [us]: `transfer_matrix` at that
point (rows form) and at the general point of tools/outputs.py (full
matrix), `solve_quartic` and `classify` at the general point, `classify`
at a general point in area I (kappa = 0.5, eta_s = 1.5, eta_i = 0.8,
delta_tilde = 6, delta_s = 4, delta_i = -2, L = 2), which takes no roots,
`classify` at the three-mode point of tools/outputs.py, `solve_point`
with solver="averaged" at the README point, `photon_numbers` of the general
point's matrix, and `observables_summary` of the README point's matrix.
OpenBLAS runs on one thread, as in a single-process scan on a busy host.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import statistics  # noqa: E402
import time  # noqa: E402

import cmath  # noqa: E402

import numpy as np  # noqa: E402

from cascade import analytic, characteristic, observables, scan  # noqa: E402
from cascade.characteristic import growth_rate, labels  # noqa: E402
from cascade.params import (ModelParams, broadcast, degenerate_params,  # noqa: E402
                            derive, three_mode_params, validate_batch)

ROUNDS = 40
REPEATS = 50  # calls per round of the one-matrix search, timed together


def layers(spec) -> dict:
    """{layer: a function of no arguments} for the first chunk of spec."""
    batch = broadcast(scan.point_params(
        spec, *(v[:scan.CHUNK_POINTS] for v in scan._grid(spec))))
    t = analytic.transfer_matrices(batch, batch.length)
    single = tuple(q for q in ("minvar_a", "minvar_b") if q in spec.quantities)
    growth = "growth_rate" + ("" if "growth_rate" in spec.quantities else " *")
    d = derive(batch)
    regimes = labels(batch, d)
    out = {
        "validate + derive": lambda: (validate_batch(batch), derive(batch)),
        "labels": lambda: labels(batch, d),
        growth: lambda: growth_rate(d, batch, regimes),
        "transfer_matrices": lambda: analytic.transfer_matrices(batch, batch.length),
        "photon numbers + single-mode minima": lambda: observables.stack_observables(t, single),
    }
    if "minvar_c" in spec.quantities:
        rows = np.moveaxis(t, (-2, -1), (0, 1))

        def coefficients():
            return observables._collective_coefficients(rows[0], rows[2])

        c = coefficients()
        values = observables._grid(c)
        points, phases = observables._starts(values)

        def refinement():  # as stack_observables refines the starts
            starts = [v[points] for v in c]
            _, values, _ = observables._newton(starts, phases * observables._STEP)
            minimum = np.full(len(t), np.inf)
            np.minimum.at(minimum, points, values)
            return minimum

        out["collective coefficients"] = coefficients
        out["collective grid (_grid)"] = lambda: observables._grid(c)
        out["collective starts (_starts)"] = lambda: observables._starts(values)
        out["collective refinement"] = refinement
    out["whole chunk (scan._evaluate)"] = lambda: scan._evaluate(
        batch, spec.quantities, spec.solver)
    return out


def one_matrix() -> dict:
    """{part: a function of no arguments} of the collective search of one
    matrix, as `collective_min_variance` runs it."""
    m = scan.solve_point(degenerate_params(3, 1, 0, 10, 2))
    a_row, _, b_row, _ = m.rows
    c = observables._collective_coefficients(a_row, b_row)

    def grid():
        with np.errstate(over="ignore", invalid="ignore"):
            return observables._grid(c)

    values = grid()[None]
    _, phases = observables._starts(values)
    return {"collective_min_variance": lambda: observables.collective_min_variance(m),
            "grid (_grid)": grid,
            "starts (_starts)": lambda: observables._starts(values),
            "refinement": lambda: [observables._newton(c, k * observables._STEP)
                                   for k in phases.tolist()]}


def one_point() -> dict:
    """{request: a function of no arguments} of the single-point calls."""
    readme = degenerate_params(3, 1, 0, 10, 2)
    general = ModelParams(kappa=cmath.rect(2, 0.3), eta_s=1.5 + 0j, eta_i=0.8 + 0j,
                          delta_tilde=1.0, delta_s=4.0, delta_i=-2.0, length=2.0)
    three_mode = three_mode_params(3, 2, 0, 5, 2)
    area_i = ModelParams(kappa=0.5 + 0j, eta_s=1.5 + 0j, eta_i=0.8 + 0j,
                         delta_tilde=6.0, delta_s=4.0, delta_i=-2.0, length=2.0)
    d = derive(general)
    readme_matrix, general_matrix = scan.solve_point(readme), scan.solve_point(general)
    return {"transfer_matrix, degenerate": lambda: analytic.transfer_matrix(readme, 2.0),
            "transfer_matrix, general": lambda: analytic.transfer_matrix(general, 2.0),
            "solve_quartic, general": lambda: characteristic.solve_quartic(d),
            "classify, general": lambda: characteristic.classify(general),
            "classify, general in area I": lambda: characteristic.classify(area_i),
            "classify, three-mode": lambda: characteristic.classify(three_mode),
            'solve_point(solver="averaged")': lambda: scan.solve_point(readme,
                                                                       solver="averaged"),
            "photon_numbers, general": lambda: observables.photon_numbers(general_matrix),
            "observables_summary": lambda: observables.observables_summary(readme_matrix)}


def main() -> None:
    chunks = {"degenerate": layers(scan.degenerate_diagram_spec(count=41)),
              "four-mode": layers(scan.four_mode_diagram_spec(count=41))}
    micro = {"one": one_matrix(), "point": one_point()}  # timed in us
    times = {(chunk, name): [] for chunk, fns in chunks.items() for name in fns}
    times.update({(table, name): [] for table, fns in micro.items() for name in fns})
    with np.errstate(all="ignore"):  # as the engine runs them
        for fns in [*chunks.values(), *micro.values()]:
            for fn in fns.values():
                fn()  # warm up
        for _ in range(ROUNDS):
            for chunk, fns in [*chunks.items(), *micro.items()]:
                for name, fn in fns.items():
                    start = time.perf_counter()
                    for _ in range(REPEATS if chunk in micro else 1):
                        fn()
                    elapsed = time.perf_counter() - start
                    times[chunk, name].append(
                        1e6 * elapsed / REPEATS if chunk in micro else 1e3 * elapsed)
    names = list(chunks["degenerate"])
    whole = names.pop()
    for c, fns in chunks.items():
        times[c, "sum of the layers"] = [sum(v) for v in zip(*(
            times[c, n] for n in fns if n != whole and not n.endswith("*")))]

    def cell(values) -> str:
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return f"{q2:8.3f} ({q1:.3f}-{q3:.3f})"

    print(f"{'layer [ms], median (q1-q3), ' + str(ROUNDS) + ' rounds':<40}"
          + "".join(f"{chunk:>22}" for chunk in chunks))
    for name in names + ["sum of the layers", whole]:
        print(f"{name:<40}" + "".join(
            f"{cell(times[c, name]) if (c, name) in times else '-':>22}" for c in chunks))
    print(f"\n{'one matrix [us], median (q1-q3)':<40}{'README point':>22}")
    for name in micro["one"]:
        print(f"{name:<40}{cell(times['one', name]):>22}")
    print(f"\n{'one point [us], median (q1-q3)':<40}")
    for name in micro["point"]:
        print(f"{name:<40}{cell(times['point', name]):>22}")


if __name__ == "__main__":
    main()
