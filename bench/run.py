#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the cascade package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                 # every workload, untraced then traced
    python3 bench/run.py --smoke         # the same on small inputs

Run it from the repository root; it imports the package from src/ of the
same checkout.  One run times one workload for --seconds of work, checks
its outputs against bench/reference.py, and prints a report followed by
one JSON line {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1.  Exit code 1 means a check failed, 2 that the package
cannot be imported.  README.md describes workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"

#: fresh interpreters timed for setup_s, -X importtime repetitions;
#: (full run, smoke run)
SETUP_REPEATS = (7, 1)
IMPORTTIME_REPEATS = (3, 1)

#: what a fresh interpreter does for setup_s: a cold `cascade solve`
SETUP_CODE = """
import cascade, cascade.cli
cascade.cli.main(["solve", "--kappa", "3", "--eta-s", "1", "--delta-s", "3",
                  "--degenerate", "--length", "2"])
"""

#: per-layer metrics: functions reported with .calls and .self_us, by layer
LAYER_FUNCTIONS = {
    "params": ("derive", "validate"),
    "characteristic": ("solve_quartic", "classify", "classify_degenerate",
                       "classify_three_mode", "classify_general"),
    "analytic": ("full_matrix",),
    "oracle": (),
    "observables": ("photon_numbers", "single_mode_min_variance",
                    "collective_min_variance", "observables_summary",
                    "averaged_model"),
    "bogoliubov": ("to_dict", "branches_coincide"),
    "scan": (),
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _import_package() -> None:
    """Import cascade from this checkout's src/ and nowhere else; worker and
    set-up interpreters inherit the path."""
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = _child_env()["PYTHONPATH"]
    import cascade
    import cascade.cli  # noqa: F401  (a traced layer)

    if Path(cascade.__file__).resolve().parent != (SRC / "cascade").resolve():
        raise ImportError(f"cascade found at {cascade.__file__}")


def _quantile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default method)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child [MB]."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure_setup(repeats: int) -> tuple[float, float]:
    """Median wall time of a fresh interpreter that imports cascade and
    cascade.cli and finishes one `cascade solve` [s], at the reference speed
    and as measured.  Each interpreter runs on one CPU, the CPUs in turn,
    right after the host's speed is measured there."""
    cpus = sorted(os.sched_getaffinity(0))
    scaled, times = [], []
    with calibration.Meter(1) as meter:
        try:
            for i in range(repeats):
                cpu = cpus[i % len(cpus)]
                cal = statistics.median(meter.measure(cpu) for _ in range(3))
                os.sched_setaffinity(0, {cpu})  # inherited by the child
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(),
                               cwd=ROOT, check=True, capture_output=True)
                times.append(time.perf_counter() - t0)
                scaled.append(times[-1] * calibration.factor([cal]))
        finally:
            os.sched_setaffinity(0, cpus)
    return statistics.median(scaled), statistics.median(times)


def measure_imports(repeats: int) -> dict:
    """Cumulative import times [ms] from `python -X importtime`, median over
    fresh interpreters."""
    found = {"cascade": [], "scipy.integrate": [], "numpy": []}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cascade, cascade.cli"],
            env=_child_env(), cwd=ROOT, check=True, capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1000.0)
    return {k: statistics.median(v) if v else 0.0 for k, v in found.items()}


def run_rounds(wl, seconds: float, chk, measure) -> dict:
    """The workload's untimed warm-up rounds, then rounds until their timed
    work adds up to `seconds`, to the nearest round.  Every round's output
    is checked between rounds, outside the timed region.  After each round
    `measure()` times the calibration work on the workload's CPUs, and a
    timed round's times are scaled to the reference speed by the work's
    times right before and right after it ("scaled", "latencies"); "walls"
    are the rounds' times as measured."""
    walls, scaled, latencies, attempted, failed = [], [], [], 0, 0
    measure()  # warm-up
    before = measure()
    r = 0
    warmup = wl.warmup
    while r < warmup or not walls or sum(walls) + statistics.mean(walls) / 2 < seconds:
        out = wl.run_round(r)
        after = measure()
        if r >= warmup:
            f = calibration.factor([before, after])
            walls.append(out["wall"])
            scaled.append(out["wall"] * f)
            latencies.extend(x * f for x in out["latencies"])
        before = after
        attempted += wl.ops
        failed += out["failed"]
        if out["error"] is not None:
            print(f"failed: {out['error']}", file=sys.stderr)
        wl.check_round(chk, out, first=r == 0)
        r += 1
    return {"walls": walls, "scaled": scaled, "latencies": latencies,
            "attempted": attempted, "failed": failed}


def run_caller(args) -> int:
    """One caller process of an untraced run: its own inputs, rounds and
    checks; prints its rounds and check results as one JSON line."""
    try:
        _import_package()
    except ImportError as exc:
        print(f"error: cannot import cascade from {SRC}: {exc}", file=sys.stderr)
        return 2
    # one CPU per caller, the one its calibration measures
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[args.caller % len(cpus)]})
    chk = checks.Checker()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.caller)
    res = run_rounds(wl, args.seconds, chk, calibration.work)
    print(json.dumps({**res, "checked": chk.checked, "check_failures": chk.failures}))
    return 0


def _run_callers(wl, args) -> list:
    """The workload's callers as child interpreters side by side; each is
    waited for, and killed first if this process leaves early."""
    env = _child_env()
    # one BLAS thread per caller: two callers with OpenBLAS's default pool
    # (one thread per core) oversubscribe the cores and stall
    env["OPENBLAS_NUM_THREADS"] = "1"
    procs = []
    try:
        for c in range(wl.callers):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--caller", str(c)] + (["--smoke"] if args.smoke else [])
            procs.append(subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                          stdout=subprocess.PIPE))
        outs = [p.communicate()[0] for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    for c, (p, out) in enumerate(zip(procs, outs)):
        if p.returncode != 0:
            raise RuntimeError(f"{wl.name}: caller {c} exited with {p.returncode}")
    return [json.loads(out.strip().splitlines()[-1]) for out in outs]


def untraced(wl, args, chk) -> tuple[dict, int, int]:
    """The workload's callers side by side, each timing its own rounds; the
    rates add up over callers."""
    if wl.callers == 1:
        with calibration.Meter(wl.workers) as meter:
            res = [run_rounds(wl, args.seconds, chk, meter.measure)]
    else:
        res = _run_callers(wl, args)
        for r in res:
            chk.checked += r["checked"]
            chk.failures += r["check_failures"]
    rss = peak_rss_mb()
    wl.final_check(chk)
    setup, setup_raw = measure_setup(SETUP_REPEATS[args.smoke])
    lat = [x for r in res for x in r["latencies"]] or [float("nan")]
    rounds = [len(r["walls"]) for r in res]
    raw_busy = [sum(r["walls"]) for r in res]
    busy = [sum(r["scaled"]) for r in res]
    speed = [b / rb for b, rb in zip(busy, raw_busy)]
    print(f"{wl.name}: {wl.callers} caller(s), {'+'.join(map(str, rounds))} rounds of "
          f"{wl.ops} operations in {'+'.join(f'{b:.2f}' for b in raw_busy)} s; "
          f"{len(lat)} request latencies")
    print(f"host speed factor {' '.join(f'{f:.3f}' for f in speed)} (times x factor = "
          f"times at the reference speed); as measured: "
          f"{sum(wl.ops * n / b for n, b in zip(rounds, raw_busy)):.1f} points/s, "
          f"setup {setup_raw:.4f} s")
    metrics = {
        "setup_s": (setup, "s"),
        "points_per_s": (sum(wl.ops * n / b for n, b in zip(rounds, busy)), "points/s"),
        "queries_per_s": (sum(wl.queries * n / b for n, b in zip(rounds, busy)),
                          "queries/s"),
        "query_p50_ms": (_quantile(lat, 0.5) * 1e3, "ms"),
        "query_p99_ms": (_quantile(lat, 0.99) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, sum(r["attempted"] for r in res), sum(r["failed"] for r in res)


def traced(wl, args, chk) -> tuple[dict, int, int]:
    """Round 0 replayed with one worker, alternately untraced and traced,
    until the rounds add up to `seconds`; pairing the two cancels the
    machine's drift from the tracing overhead.  Counts and layer totals are
    per traced round; self times are medians per call."""
    attempted = failed = 0
    tracer = tracing.Tracer()
    plain, spanned = [], []  # (round wall, run_scan wall) per round
    while not spanned or sum(w for w, _ in plain + spanned) < args.seconds:
        for walls in (plain, spanned):
            if walls is spanned:
                tracer.install()
            try:
                out = wl.run_round(0, workers=1, same_seed=True)
            finally:
                tracer.uninstall()
            walls.append((out["wall"], out.get("scan_wall")))
            attempted += wl.ops
            failed += out["failed"]
        wl.check_round(chk, out, first=len(spanned) == 1)
    rounds = len(spanned)
    wall = statistics.mean(w for w, _ in spanned)
    untraced_1 = statistics.mean(w for w, _ in plain)
    scan_workload = isinstance(wl, workloads.DegenerateDiagram)
    if scan_workload:
        pooled = [wl.run_round(0) for _ in range(3)]
        attempted += 3 * wl.ops
        failed += sum(o["failed"] for o in pooled)
        chk.expect(all(o["csv"] == wl.csv for o in pooled),
                   f"{wl.name}: traced one-worker CSV differs from the untraced "
                   f"{wl.workers}-worker CSV")

    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / f"{wl.name}.jsonl")
    s = tracer.summarize()

    def calls(name):
        return (s.calls(name) / rounds, "count")

    def self_time(name, scale, unit):
        v = s.self_times.get(name)
        return (statistics.median(v) * scale if v else 0.0, unit)

    m = {}
    for layer, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            m[f"{layer}.{fn}.calls"] = calls(f"{layer}.{fn}")
            m[f"{layer}.{fn}.self_us"] = self_time(f"{layer}.{fn}", 1e6, "us")
        if layer == "analytic":
            n = s.calls("analytic.full_matrix")
            ok = 1.0 - s.errors["analytic.full_matrix"] / n if n else 0.0
            m["analytic.full_matrix.ok_ratio"] = (ok, "ratio")
        elif layer == "oracle":
            m["oracle.matrix_at.calls"] = calls("oracle.matrix_at")
            m["oracle.matrix_at.self_ms"] = self_time("oracle.matrix_at", 1e3, "ms")
            m["oracle.integrate.self_ms"] = self_time("oracle.integrate", 1e3, "ms")
        elif layer == "scan":
            m["scan.solve_point.calls"] = calls("scan.solve_point")
            m["scan.evaluate_quantities.calls"] = calls("scan.evaluate_quantities")
            for fn in ("point_params", "solve_point", "evaluate_quantities"):
                m[f"scan.{fn}.self_us"] = self_time(f"scan.{fn}", 1e6, "us")
            m["scan.run_scan.self_s"] = self_time("scan.run_scan", 1.0, "s")
            emit = s.durations.get("scan.emit")
            m["scan.emit.s"] = (statistics.median(emit) if emit else 0.0, "s")
            m["scan.emit.bytes"] = (float(len(wl.csv)) if scan_workload else 0.0, "bytes")
            efficiency = 0.0
            if scan_workload:
                # point time: the traced share of run_scan spent in per-point
                # spans, applied to the untraced one-worker scan
                share = s.children_of["scan.run_scan"] / sum(s.durations["scan.run_scan"])
                efficiency = (statistics.mean(w for _, w in plain) * share / wl.workers
                              / statistics.median(o["scan_wall"] for o in pooled))
            m["scan.parallel_efficiency"] = (efficiency, "ratio")
        m[f"{layer}.total_s"] = (s.total_self(layer + ".") / rounds, "s")

    imports = measure_imports(IMPORTTIME_REPEATS[args.smoke])
    m["setup.import.cascade_ms"] = (imports["cascade"], "ms")
    m["setup.import.scipy_integrate_ms"] = (imports["scipy.integrate"], "ms")
    m["setup.import.numpy_ms"] = (imports["numpy"], "ms")

    layers = s.total_self("") / rounds
    spans = len(tracer.spans) / rounds
    explained = (layers - spans * tracer.span_cost()) / untraced_1
    m["trace.wall_s"] = (wall, "s")
    m["trace.unattributed_s"] = (wall - layers, "s")
    m["trace.overhead_ratio"] = (wall / untraced_1 - 1.0, "ratio")
    m["trace.explained_ratio"] = (explained, "ratio")
    print(f"{wl.name}: traced {rounds} round(s) of {wl.ops} operations, "
          f"{spans:.0f} spans per round")
    print(f"reconciliation per round: traced wall {wall:.4f} s = layer self "
          f"times {layers:.4f} s + unattributed {wall - layers:.4f} s; tracing "
          f"overhead {wall / untraced_1 - 1.0:.1%} of the untraced one-worker "
          f"wall {untraced_1:.4f} s; less the calibrated span cost the layers "
          f"explain {explained:.1%} of it")
    return m, attempted, failed


def run_one(args) -> int:
    try:
        _import_package()
    except ImportError as exc:
        print(f"error: cannot import cascade from {SRC}: {exc}", file=sys.stderr)
        return 2
    chk = checks.Checker()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    metrics, attempted, failed = (traced if args.trace else untraced)(wl, args, chk)
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:16.6g} {unit}")
    print(f"checks: {chk.checked} values checked, {len(chk.failures)} failed")
    for line in chk.failures[:50]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": chk.ok, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if chk.ok else 1


def run_all(args) -> int:
    """Every workload in its own interpreter, untraced and then traced."""
    runs = []
    for trace in (0, 1):
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            print(f"== {name} --trace {trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            runs.append({"workload": name, "trace": trace, "exit": proc.returncode,
                         "result": result})
    ok = all(r["exit"] == 0 and r["result"]["failed"] == 0 for r in runs)
    print(json.dumps({"correct": ok, "runs": runs}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed work per run [s] (default 30, smoke 1)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small grids and rounds; every check still runs")
    ap.add_argument("--caller", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # a terminated run unwinds, so that its child processes are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 30.0
    if args.workload == "all":
        return run_all(args)
    return run_one(args) if args.caller is None else run_caller(args)


if __name__ == "__main__":
    sys.exit(main())
