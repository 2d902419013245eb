"""Time each layer of one scan chunk, in process.

    PYTHONPATH=src python tools/layers.py

takes the first CHUNK_POINTS (512) points of the 41x41 degenerate diagram
and of the 41x41 four-mode diagram and times, for each chunk, the layers
the chunk engine runs: validate + derive, `classify_batch`, `growth_rate`,
`transfer_matrices`, photon numbers + single-mode minima, and, on the
degenerate chunk, the collective search's grid + starts and its Newton
refinement.  Each layer takes the previous layers' results as inputs, made
before timing.  The rounds interleave the layers and the two chunks; the
table gives each layer's median and quartiles [ms], the sum of the layers
the engine runs for the chunk's quantities (neither diagram asks for the
growth rate, marked *), and the whole chunk through the engine
(`scan._evaluate`) for comparison.  OpenBLAS runs on one thread, as in a
single-process scan on a busy host.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from cascade import analytic, observables, scan  # noqa: E402
from cascade.characteristic import classify_batch, growth_rate  # noqa: E402
from cascade.params import derive, validate_batch  # noqa: E402

ROUNDS = 40


def layers(spec) -> dict:
    """{layer: a function of no arguments} for the first chunk of spec."""
    grid = scan._grid(spec)[:scan.CHUNK_POINTS]
    batch = scan._grid_params(spec, grid)
    t = analytic.transfer_matrices(batch, batch.length)
    single = tuple(q for q in ("minvar_a", "minvar_b") if q in spec.quantities)
    growth = "growth_rate" + ("" if "growth_rate" in spec.quantities else " *")
    out = {
        "validate + derive": lambda: (validate_batch(batch), derive(batch)),
        "classify_batch": lambda: classify_batch(batch),
        growth: lambda: growth_rate(derive(batch), batch),
        "transfer_matrices": lambda: analytic.transfer_matrices(batch, batch.length),
        "photon numbers + single-mode minima": lambda: observables.stack_observables(t, single),
    }
    if "minvar_c" in spec.quantities:
        rows = np.moveaxis(t, (-2, -1), (0, 1))

        def grid_and_starts():
            c = observables._collective_coefficients(rows[0], rows[2])
            values = observables._collective_variance([v[:, None] for v in c],
                                                      np.exp)(observables._GRID)
            return c, observables._starts(values)

        c, (points, phases) = grid_and_starts()

        def refinement():  # as stack_observables refines the starts
            starts = [v[points] for v in c]
            d, _ = observables._newton(starts, phases * observables._STEP, np.exp)
            minimum = np.full(len(t), np.inf)
            np.minimum.at(minimum, points, observables._collective_variance(starts, np.exp)(d))
            return minimum

        out["collective grid + starts"] = grid_and_starts
        out["collective refinement"] = refinement
    out["whole chunk (scan._evaluate)"] = lambda: scan._evaluate(
        batch, spec.quantities, spec.solver)
    return out


def main() -> None:
    chunks = {"degenerate": layers(scan.degenerate_diagram_spec(count=41)),
              "four-mode": layers(scan.four_mode_diagram_spec(count=41))}
    times = {(chunk, name): [] for chunk, fns in chunks.items() for name in fns}
    with np.errstate(all="ignore"):  # as the engine runs them
        for fns in chunks.values():
            for fn in fns.values():
                fn()  # warm up
        for _ in range(ROUNDS):
            for chunk, fns in chunks.items():
                for name, fn in fns.items():
                    start = time.perf_counter()
                    fn()
                    times[chunk, name].append(1e3 * (time.perf_counter() - start))
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


if __name__ == "__main__":
    main()
