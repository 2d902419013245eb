"""Replay the benchmark's point_queries requests against source trees side by side.

    python tools/pointmix.py TREE [TREE ...] [--seed N] [--requests N] [--rounds N]

builds the requests of the `point_queries` workload (`PointQueries.requests`
of bench/workloads.py, caller 0, its rounds 0, 1, ... until --requests are
drawn) and serves each one as the workload does (`PointQueries.serve`), in
a new interpreter per run with PYTHONPATH=TREE/src, TREE as the working
directory and OPENBLAS_NUM_THREADS=1, the trees in turn, in reverse order
every other round, so that a drift of the host's speed reaches every tree
alike.  Each run serves the first 600 requests once untimed, then all of
them timed.  It prints each tree's wall time per request [us] over its
runs, median and quartiles, as measured (no speed calibration), and for
each later tree the number of rounds in which it was faster than the
first tree.

Every result is compared with the first tree's: floats as float.hex, each
transfer matrix T as its bytes, a failed request as its failure class and
message.  The script exits 1 if any request of any run differs, naming
the first one that does.  bench/ is only imported, from this script's
repository.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

# the code each fresh interpreter runs: argv is (bench dir, seed, requests)
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


def run(tree: Path, seed: int, count: int) -> dict:
    """One fresh interpreter serving the requests against tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", CHILD, str(BENCH), str(seed), str(count)],
                         env=env, cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, help="source trees, each with src/")
    parser.add_argument("--seed", type=int, default=2103, help="workload seed (default 2103)")
    parser.add_argument("--requests", type=int, default=3000,
                        help="requests per run (default 3000)")
    parser.add_argument("--rounds", type=int, default=10,
                        help="fresh interpreters per tree (default 10)")
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be >= 2 for quartiles")
    if args.requests < 1:
        parser.error("--requests must be >= 1")
    trees = [t.resolve() for t in args.trees]
    times = {tree: [] for tree in trees}
    reference = None
    differ = []
    for k in range(args.rounds):
        for tree in trees if k % 2 == 0 else trees[::-1]:
            out = run(tree, args.seed, args.requests)
            times[tree].append(out["us"])
            if reference is None:
                reference = out
            elif out["digests"] != reference["digests"]:
                i = next(i for i, (a, b) in enumerate(zip(out["digests"], reference["digests"]))
                         if a != b)
                differ.append(f"{tree}: request {i} ({out['kinds'][i]}) differs")
    digest = hashlib.sha256("".join(reference["digests"]).encode()).hexdigest()[:16]
    print(f"point_queries seed {args.seed}, {args.requests} requests per run, "
          f"OPENBLAS_NUM_THREADS=1, results digest {digest}")
    print(f"us per request, {args.rounds} alternating rounds: median (q1-q3)")
    first = times[trees[0]]
    for tree, values in times.items():
        q1, q2, q3 = statistics.quantiles(values, n=4)
        wins = "" if tree == trees[0] else (
            f"  faster than the first tree in {sum(v < f for v, f in zip(values, first))}"
            f" of {args.rounds}")
        print(f"{q2:8.1f} ({q1:.1f}-{q3:.1f})  {tree}{wins}")
    for line in sorted(set(differ)):
        print(f"DIFFERS {line}")
    if differ:
        sys.exit(1)
    print("results identical in every run")


if __name__ == "__main__":
    main()
