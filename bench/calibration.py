"""The host's speed, measured between timed rounds by a fixed piece of work.

The machines this benchmark runs on are shared, and their effective CPU
speed drifts by tens of per cent over minutes, on each CPU differently.  A
fixed piece of work of the same kind as the package's own (4x4 complex
matrix exponentials and eigenvalues through numpy and scipy, and pure-Python
arithmetic), timed on the same CPUs as the workload between its rounds,
slows down with it: over 30-s windows a single-process caller's time varied
by 12-18 %, its ratio to the run's median work time by 4-5 % and the sum of
its rounds' ratios to the work times next to each by 2-3 %.  The end-to-end
times are therefore reported at the reference speed, at which `work()`
takes REFERENCE_S: a time t measured next to work times w becomes
t * REFERENCE_S / median(w).  The work calls nothing in cascade, so no
change to the package moves it.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy.linalg

#: time of one `work()` at the reference speed [s], about its time on a
#: 2.1 GHz Xeon vCPU of the machine the README's figures come from
REFERENCE_S = 0.025

_rng = np.random.default_rng(20111150)
_MATRICES = [_rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4)) for _ in range(8)]


def work() -> float:
    """Wall time of the fixed piece of work [s]."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(40):
        for g in _MATRICES:
            acc += abs(scipy.linalg.expm(0.1 * g)[0, 0])
            acc += float(np.linalg.eigvals(g).real.max())
        s = 0
        for i in range(2000):
            s += i * i % 7
    return time.perf_counter() - t0


class Meter:
    """Helper processes that time `work()` at once on request, one per CPU a
    workload keeps busy.  They run with one OpenBLAS thread: two processes
    with OpenBLAS's default pool (one spinning thread per core) on two cores
    made `work()` 10-80 times slower.  Use it as a context manager; leaving
    it stops and waits for every helper."""

    def __init__(self, processes: int):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        self.procs = []
        try:
            for _ in range(processes):
                self.procs.append(subprocess.Popen(
                    [sys.executable, __file__], env=env, text=True,
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE))
        except BaseException:
            self.close()
            raise

    def measure(self, cpu: int | None = None) -> float:
        """Mean time of `work()` over the helpers, run at once; with `cpu`,
        each runs on that CPU alone."""
        for p in self.procs:
            p.stdin.write(f"{'' if cpu is None else cpu}\n")
            p.stdin.flush()
        return statistics.mean(float(p.stdout.readline()) for p in self.procs)

    def close(self) -> None:
        for p in self.procs:
            try:
                p.stdin.close()
                p.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                p.kill()
                p.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def factor(samples) -> float:
    """Multiplier that takes times measured next to `samples` (times of
    `work()`) to the reference speed."""
    return REFERENCE_S / statistics.median(samples)


def _serve() -> None:
    """A Meter's helper: one `work()` per line read, on the CPU the line
    names or on every CPU this process may use."""
    cpus = os.sched_getaffinity(0)
    work()  # warm-up
    for line in sys.stdin:
        os.sched_setaffinity(0, {int(line)} if line.strip() else cpus)
        print(repr(work()), flush=True)


if __name__ == "__main__":
    _serve()
