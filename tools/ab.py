"""Compare source trees: cold start, the benchmark's point requests, and each
layer of a scan chunk, a matrix and a point, the trees side by side.

    python tools/ab.py TREE [TREE ...] [--rounds N] [--seed N] [--requests N]

Each TREE is a checkout with src/cascade.  Every table gives, per tree, the
median and quartiles of its --rounds values (default 20), as measured (no
speed calibration), and, for each tree after the first, the number of rounds
in which it was faster than the first tree.  Every measurement runs the
trees in turn, in reverse order every other round, so that a drift of the
host's speed reaches every tree alike.

- Cold `cascade solve` [ms]: the benchmark's set-up code (`SETUP_CODE` of
  bench/run.py: `import cascade, cascade.cli` and one `cascade solve`) in a
  new interpreter per run, with PYTHONPATH=TREE/src and TREE as the working
  directory, after one untimed run per tree.  It also prints whether
  PYTHONDONTWRITEBYTECODE is set: then no `__pycache__` is written, and
  every cold start compiles the package's modules again.
- Point requests [us per request]: the requests of the `point_queries`
  workload (`PointQueries.requests` of bench/workloads.py, caller 0, its
  rounds 0, 1, ... until --requests (default 3000) are drawn, at --seed,
  default 2103), each served as the workload serves it, in a new
  interpreter per run with PYTHONPATH=TREE/src, TREE as the working
  directory and OPENBLAS_NUM_THREADS=1.  Each run serves the first 600
  requests once untimed, then all of them timed.  Every result is compared
  with the first tree's: floats as float.hex, each transfer matrix T as its
  bytes, a failed request as its failure class and message.  The script
  exits 1 if any request of any run differs, naming the first one that
  does.  bench/ is only imported, from this script's repository.
- Layers, in this process, with OPENBLAS_NUM_THREADS=1 as in a
  single-process scan on a busy host.  Each tree's package is loaded under
  its own name (cascade_t0, cascade_t1, ...; `cascade` itself is not
  imported), and each timed call runs for every tree before the next:
  - one table per chunk [ms]: the first CHUNK_POINTS points of the 41x41
    degenerate and four-mode diagrams (each the whole diagram, 1681
    points), through the layers the chunk engine runs: validate + derive,
    `labels` (given the chunk's derived parameters), `growth_rate` (given
    its labels; neither diagram asks for it, marked *),
    `transfer_matrices`, photon numbers + single-mode minima, and, on the
    degenerate chunk, the collective search's parts as `stack_observables`
    runs them: its coefficients, its 64-phase grid (`_grid`), the grid
    starts (`_starts`) and their Newton refinement.  Each layer takes the
    previous layers' results, made before timing.  Then the sum of the
    layers the engine runs (the starred one left out) and the whole chunk
    through the engine (`scan._evaluate`);
  - one matrix [us]: `collective_min_variance` on the README point (kappa
    = 3, eta_s = 1, delta_s = 10, L = 2) and its grid, starts and
    refinement;
  - one point [us]: `transfer_matrix` at that point (rows form) and at the
    general point of tools/outputs.py (full matrix), `solve_quartic` and
    `classify` at the general point, `classify` at a general point in area
    I (kappa = 0.5, eta_s = 1.5, eta_i = 0.8, delta_tilde = 6, delta_s = 4,
    delta_i = -2, L = 2), which takes no roots, and at the three-mode point
    of tools/outputs.py, `solve_point` with solver="averaged" at the README
    point, `photon_numbers` of the general point's matrix, and
    `single_mode_min_variance(m, "a")` and `observables_summary` of the
    README point's matrix; one value is the mean of REPEATS calls.
"""

import os

CALLER_ENV = dict(os.environ)  # the cold starts run in the caller's environment
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import argparse  # noqa: E402
import ast  # noqa: E402
import cmath  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parents[1] / "bench"
REPEATS = 50  # calls per value of the one-matrix and one-point tables

# the code each point-request interpreter runs: argv is (bench dir, seed, requests)
CHILD = r'''
import dataclasses, enum, hashlib, json, sys, time
import numpy as np
sys.dont_write_bytecode = True  # bench/ is only read
sys.path.insert(1, sys.argv[1])
import workloads

def canon(x):
    if isinstance(x, BaseException):
        return ["failed", type(x).__name__, str(x)]
    if isinstance(x, (bool, int, str, type(None))):
        return repr(x)
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return [x.real.hex(), x.imag.hex()]
    if isinstance(x, np.generic):
        return canon(x.item())
    if isinstance(x, np.ndarray):
        return [x.dtype.str, list(x.shape), x.tobytes().hex()]
    if isinstance(x, enum.Enum):
        return canon(x.value)
    if dataclasses.is_dataclass(x):
        return [type(x).__name__] + [canon(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, dict):
        return [[str(k), canon(v)] for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")

seed, count = int(sys.argv[2]), int(sys.argv[3])
w = workloads.PointQueries(seed, smoke=False)
reqs, r = [], 0
while len(reqs) < count:
    reqs += w.requests(r)
    r += 1
reqs = reqs[:count]

def serve(kind, config, p):
    try:
        return w.serve(kind, config, p)
    except Exception as exc:
        return exc

for kind, config, p in reqs[:w.queries]:
    serve(kind, config, p)
clock = time.perf_counter
start = clock()
results = [serve(kind, config, p) for kind, config, p in reqs]
wall = clock() - start
digests = [hashlib.sha256(json.dumps(canon(x)).encode()).hexdigest()[:16] for x in results]
print(json.dumps({"us": 1e6 * wall / len(reqs), "digests": digests,
                  "kinds": [f"{kind} {config} {p}" for kind, config, p in reqs]}))
'''


def order(n: int, k: int) -> list:
    """The tree indices of round k: in turn, reversed in every odd round."""
    return list(range(n))[::-1 if k % 2 else 1]


def fresh_runs(trees: list, rounds: int, env: dict, *argv: str) -> list:
    """Run python argv in a new interpreter per tree and round, with env,
    PYTHONPATH=TREE/src and TREE as the working directory: per tree, the
    wall time [ms] and the stdout of each round."""
    runs = [[] for _ in trees]
    for k in range(rounds):
        for i in order(len(trees), k):
            start = time.perf_counter()
            out = subprocess.run([sys.executable, *argv], cwd=trees[i], check=True,
                                 env=dict(env, PYTHONPATH=str(trees[i] / "src")),
                                 capture_output=True, text=True).stdout
            runs[i].append((1e3 * (time.perf_counter() - start), out))
    return runs


def setup_code() -> str:
    """The string SETUP_CODE as bench/run.py assigns it."""
    for node in ast.parse((BENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SETUP_CODE" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no SETUP_CODE in {BENCH / 'run.py'}")


def show(title: str, rows: dict, digits: int) -> None:
    """Print rows {name: [values of each round, per tree]} as a table, with
    the rounds in which each later tree i was faster than tree 0 (ti < t0)."""
    trees = len(next(iter(rows.values())))
    print(f"\n{title}\n{'':<40}" + "".join(f"{'tree ' + str(i):>26}" for i in range(trees))
          + "".join(f"{f't{i} < t0':>10}" for i in range(1, trees)))
    for name, per_tree in rows.items():
        cells = []
        for values in per_tree:
            q1, q2, q3 = statistics.quantiles(values, n=4)
            cells.append(f"{q2:.{digits}f} ({q1:.{digits}f}-{q3:.{digits}f})")
        wins = [sum(v < f for v, f in zip(values, per_tree[0])) for values in per_tree[1:]]
        print(f"{name:<40}" + "".join(f"{c:>26}" for c in cells)
              + "".join(f"{f'{w} of {len(values)}':>10}" for w in wins))


def cold_starts(trees: list, rounds: int) -> None:
    code = setup_code()
    fresh_runs(trees, 1, CALLER_ENV, "-c", code)  # warm the file cache, write bytecode if allowed
    runs = fresh_runs(trees, rounds, CALLER_ENV, "-c", code)
    flag = CALLER_ENV.get("PYTHONDONTWRITEBYTECODE")
    print("PYTHONDONTWRITEBYTECODE: " + (
        f"set ({flag!r}): no __pycache__, every start compiles the modules"
        if flag else "not set: cached bytecode is used after the first run"))
    show(f"cold start [ms], {rounds} rounds: median (q1-q3)",
         {"cold `cascade solve`": [[ms for ms, _ in r] for r in runs]}, 1)


def point_requests(trees: list, rounds: int, seed: int, count: int) -> list:
    """Time the requests; the lines naming each tree's first differing one."""
    runs = [[json.loads(out) for _, out in r] for r in fresh_runs(
        trees, rounds, os.environ, "-c", CHILD, str(BENCH), str(seed), str(count))]
    reference, differ = runs[0][0], set()  # tree 0 runs first
    for i, r in enumerate(runs):
        for out in r:
            first = next((j for j, (a, b) in enumerate(zip(out["digests"], reference["digests"]))
                          if a != b), None)
            if first is not None:
                differ.add(f"DIFFERS tree {i}: request {first} ({out['kinds'][first]})")
    digest = hashlib.sha256("".join(reference["digests"]).encode()).hexdigest()[:16]
    print(f"\npoint_queries seed {seed}, {count} requests per run, "
          f"OPENBLAS_NUM_THREADS=1, results digest {digest}")
    show(f"us per request, {rounds} rounds: median (q1-q3)",
         {"point_queries": [[out["us"] for out in r] for r in runs]}, 1)
    print("\n".join(sorted(differ)) or "results identical in every run")
    return sorted(differ)


def load(tree: Path, name: str):
    """tree's package, imported as name, with the submodules timed here."""
    src = tree / "src" / "cascade"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    for module in ("analytic", "characteristic", "observables", "params", "scan"):
        importlib.import_module(f"{name}.{module}")
    return package


def chunk(pkg, spec) -> dict:
    """{layer: a function of no arguments} for the first chunk of spec."""
    analytic, characteristic, observables, params, scan = (
        pkg.analytic, pkg.characteristic, pkg.observables, pkg.params, pkg.scan)
    batch = params.broadcast(scan.point_params(
        spec, *(v[:scan.CHUNK_POINTS] for v in scan._grid(spec))))
    t = analytic.transfer_matrices(batch, batch.length)
    single = tuple(q for q in ("minvar_a", "minvar_b") if q in spec.quantities)
    growth = "growth_rate" + ("" if "growth_rate" in spec.quantities else " *")
    d = params.derive(batch)
    regimes = characteristic.labels(batch, d)
    out = {
        "validate + derive": lambda: (params.validate_batch(batch), params.derive(batch)),
        "labels": lambda: characteristic.labels(batch, d),
        growth: lambda: characteristic.growth_rate(d, batch, regimes),
        "transfer_matrices": lambda: analytic.transfer_matrices(batch, batch.length),
        "photon numbers + single-mode minima": lambda: observables.stack_observables(t, single),
    }
    if "minvar_c" in spec.quantities:
        rows = np.moveaxis(t, (-2, -1), (0, 1))
        c = observables._collective_coefficients(rows[0], rows[2])
        values = observables._grid(c)
        points, phases = observables._starts(values)

        def refinement():  # as stack_observables refines the starts
            starts = [v[points] for v in c]
            _, values, _ = observables._newton(starts, phases * observables._STEP)
            minimum = np.full(len(t), np.inf)
            np.minimum.at(minimum, points, values)
            return minimum

        out["collective coefficients"] = lambda: observables._collective_coefficients(rows[0],
                                                                                      rows[2])
        out["collective grid (_grid)"] = lambda: observables._grid(c)
        out["collective starts (_starts)"] = lambda: observables._starts(values)
        out["collective refinement"] = refinement
    out["whole chunk (scan._evaluate)"] = lambda: scan._evaluate(
        batch, spec.quantities, spec.solver)
    return out


def one_matrix(pkg) -> dict:
    """{part: a function of no arguments} of the collective search of one
    matrix, as `collective_min_variance` runs it."""
    observables = pkg.observables
    m = pkg.scan.solve_point(pkg.params.degenerate_params(3, 1, 0, 10, 2))
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


def one_point(pkg) -> dict:
    """{request: a function of no arguments} of the single-point calls."""
    analytic, characteristic, observables, params, scan = (
        pkg.analytic, pkg.characteristic, pkg.observables, pkg.params, pkg.scan)
    readme = params.degenerate_params(3, 1, 0, 10, 2)
    general = params.ModelParams(kappa=cmath.rect(2, 0.3), eta_s=1.5 + 0j, eta_i=0.8 + 0j,
                                 delta_tilde=1.0, delta_s=4.0, delta_i=-2.0, length=2.0)
    three_mode = params.three_mode_params(3, 2, 0, 5, 2)
    area_i = params.ModelParams(kappa=0.5 + 0j, eta_s=1.5 + 0j, eta_i=0.8 + 0j,
                                delta_tilde=6.0, delta_s=4.0, delta_i=-2.0, length=2.0)
    d = params.derive(general)
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
            'single_mode_min_variance(m, "a")': lambda: observables.single_mode_min_variance(
                readme_matrix, "a"),
            "observables_summary": lambda: observables.observables_summary(readme_matrix)}


def layers(trees: list, rounds: int) -> None:
    """Time the chunk, one-matrix and one-point tables of every tree."""
    packages = [load(tree, f"cascade_t{i}") for i, tree in enumerate(trees)]
    tables = {}  # title: (calls per value, factor to the unit, {name: [a function per tree]})
    for title, repeats, factor, make in (
            ("degenerate chunk [ms]", 1, 1e3,
             lambda p: chunk(p, p.scan.degenerate_diagram_spec(count=41))),
            ("four-mode chunk [ms]", 1, 1e3,
             lambda p: chunk(p, p.scan.four_mode_diagram_spec(count=41))),
            ("one matrix, README point [us]", REPEATS, 1e6 / REPEATS, one_matrix),
            ("one point [us]", REPEATS, 1e6 / REPEATS, one_point)):
        made = [make(p) for p in packages]
        tables[title] = repeats, factor, {name: [fns[name] for fns in made] for name in made[0]}
    times = {(title, name): [[] for _ in trees]
             for title, (_, _, fns) in tables.items() for name in fns}
    with np.errstate(all="ignore"):  # as the engine runs them
        for _, _, fns in tables.values():
            for per_tree in fns.values():
                for fn in per_tree:
                    fn()  # warm up
        for k in range(rounds):
            for title, (repeats, factor, fns) in tables.items():
                for name, per_tree in fns.items():
                    for i in order(len(trees), k):
                        start = time.perf_counter()
                        for _ in range(repeats):
                            per_tree[i]()
                        times[title, name][i].append(factor * (time.perf_counter() - start))
    for title, (_, _, fns) in tables.items():
        rows = {name: times[title, name] for name in fns}
        if "chunk" in title:
            *parts, whole = rows
            parts = [rows[name] for name in parts if not name.endswith("*")]
            rows["sum of the layers"] = [[sum(v) for v in zip(*(p[i] for p in parts))]
                                         for i in range(len(trees))]
            rows[whole] = rows.pop(whole)
        show(f"{title}, {rounds} rounds: median (q1-q3)", rows, 3)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, help="source trees, each with src/")
    parser.add_argument("--rounds", type=int, default=20,
                        help="values per tree and table (default 20)")
    parser.add_argument("--seed", type=int, default=2103,
                        help="point_queries workload seed (default 2103)")
    parser.add_argument("--requests", type=int, default=3000,
                        help="point requests per run (default 3000)")
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be >= 2 for quartiles")
    if args.requests < 1:
        parser.error("--requests must be >= 1")
    trees = [t.resolve() for t in args.trees]
    print("\n".join(f"tree {i}: {tree}" for i, tree in enumerate(trees)))
    cold_starts(trees, args.rounds)
    differ = point_requests(trees, args.rounds, args.seed, args.requests)
    layers(trees, args.rounds)
    if differ:
        sys.exit(1)


if __name__ == "__main__":
    main()
