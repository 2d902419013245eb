"""Time a cold `cascade solve` in fresh interpreters, for source trees side by side.

    python tools/coldstart.py TREE [TREE ...] [--rounds N]

runs the benchmark's set-up code (`SETUP_CODE` of bench/run.py: `import
cascade, cascade.cli` and one `cascade solve`) in a new interpreter per run,
with PYTHONPATH=TREE/src and TREE as the working directory, the trees in
turn, so that a drift of the host's speed reaches every tree alike.  It
prints the wall time of each tree's runs [ms], median and quartiles, as
measured (no speed calibration).  It also prints whether
PYTHONDONTWRITEBYTECODE is set: then no `__pycache__` is written, and every
cold start compiles the package's modules again.  Standard library only.
"""

import argparse
import ast
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def setup_code() -> str:
    """The string SETUP_CODE as bench/run.py assigns it."""
    for node in ast.parse(BENCH.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SETUP_CODE" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no SETUP_CODE in {BENCH}")


def cold_run(tree: Path, code: str) -> float:
    """Wall time [s] of one fresh interpreter that runs code against tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=tree, check=True,
                   capture_output=True)
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, help="source trees, each with src/")
    parser.add_argument("--rounds", type=int, default=21,
                        help="fresh interpreters per tree (default 21)")
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be >= 2 for quartiles")
    code = setup_code()
    trees = [t.resolve() for t in args.trees]
    for tree in trees:
        cold_run(tree, code)  # warm the file cache, and write bytecode if allowed
    times = {tree: [] for tree in trees}
    for _ in range(args.rounds):
        for tree in trees:
            times[tree].append(1e3 * cold_run(tree, code))
    flag = os.environ.get("PYTHONDONTWRITEBYTECODE")
    print("PYTHONDONTWRITEBYTECODE: " + (
        f"set ({flag!r}): no __pycache__, every start compiles the modules"
        if flag else "not set: cached bytecode is used after the first run"))
    print(f"cold `cascade solve` [ms], {args.rounds} alternating rounds: median (q1-q3)")
    for tree, values in times.items():
        q1, q2, q3 = statistics.quantiles(values, n=4)
        print(f"{q2:8.1f} ({q1:.1f}-{q3:.1f})  {tree}")


if __name__ == "__main__":
    main()
