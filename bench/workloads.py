"""The benchmark workloads: inputs made from the seed, one round of
operations through the package's public functions, and the checks of each
round's outputs.

A round is a fixed list of operations; `ops` is its length and `attempted`
counts operations.  degenerate_diagram sends one diagram request (run_scan,
then emit to CSV) per round; point_queries sends single-point requests.
Every cascade function is looked up on its module at call time, so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import math
import time

import numpy as np

import checks
import reference

#: grid points per axis, requests per round; (full run, smoke run)
DEGENERATE_COUNT = (41, 9)
ROUND_REQUESTS = (600, 45)
#: degenerate_diagram runs on the process pool with this many workers
POOL_WORKERS = 2
#: collective minima checked by brute force per caller
COLLECTIVE_SAMPLE = 8


class Workload:
    name = ""
    workers = 1
    #: queries (requests) per round
    queries = 1
    #: untimed rounds before timing, for lazy set-up inside the package
    warmup = 0
    #: processes that run the workload's rounds side by side in a timed run
    callers = 1

    def __init__(self, seed: int, smoke: bool, caller: int = 0):
        self.key = [seed, caller]
        self.smoke = smoke

    def rng(self, *tag) -> np.random.Generator:
        """Generator for one input of this seed and caller."""
        return np.random.default_rng(self.key + list(tag))

    def final_check(self, chk) -> None:
        """Checks that need one more run of the program, after timing."""


class DegenerateDiagram(Workload):
    """The paper's degenerate (delta_s, |eta_s|) diagram with all six of its
    quantities, on the process pool.  A round is one diagram request: run_scan
    then emit to CSV; every round is the same request.  The seed sets |kappa|
    in [2.9, 3.1] cm^-1 and its phase."""

    name = "degenerate_diagram"
    workers = POOL_WORKERS
    warmup = 1

    def __init__(self, seed, smoke, caller=0):
        from cascade import scan

        super().__init__(seed, smoke, caller)
        rng = self.rng(1)
        kappa = rng.uniform(2.9, 3.1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        self.spec = scan.degenerate_diagram_spec(kappa=complex(kappa),
                                                 count=DEGENERATE_COUNT[smoke])
        self.ops = self.spec.axis1.count * self.spec.axis2.count
        self.csv = None

    def run_round(self, r: int, workers=None, same_seed=False) -> dict:
        from cascade import scan

        t0 = time.perf_counter()
        result = scan.run_scan(self.spec, workers=workers or self.workers)
        t1 = time.perf_counter()
        csv = scan.emit(result, "csv")
        t2 = time.perf_counter()
        return {"wall": t2 - t0, "scan_wall": t1 - t0, "result": result,
                "csv": csv, "failed": len(result.failures), "error": None,
                "latencies": [t2 - t0]}

    def params_at(self, row):
        from dataclasses import replace

        eta = complex(row["eta_s_abs"])
        return replace(self.spec.base, eta_s=eta, eta_i=eta,
                       delta_s=row["delta_s"], delta_i=row["delta_s"])

    def check_round(self, chk, out, first: bool) -> None:
        """Every round: the same CSV bytes.  First round: every row."""
        if self.csv is None:
            self.csv = out["csv"]
        chk.expect(out["csv"] == self.csv,
                   f"{self.name}: CSV differs between rounds of one input")
        if first:
            self.check_rows(chk, out["result"].rows)

    def check_rows(self, chk, rows) -> None:
        chk.expect(len(rows) == self.ops, f"{self.name}: {len(rows)} rows for "
                   f"{self.ops} points")
        params = [self.params_at(row) for row in rows]
        checks.regimes(chk, [row["regime"] for row in rows], params,
                       what=f"{self.name}.regime")
        blocks = reference.transfer_blocks(params)
        got = np.array([[row["n_as"], row["n_bs"]] for row in rows])
        checks.photon_numbers(chk, got, blocks, [0, 2], f"{self.name}.photons")
        checks.single_mode_minima(chk, [r["minvar_a"] for r in rows],
                                  [r["minvar_b"] for r in rows], blocks, self.name)
        pick = self.rng(2).choice(
            len(rows), size=min(COLLECTIVE_SAMPLE, len(rows)), replace=False)
        checks.collective_minimum(chk, [rows[k]["minvar_c"] for k in pick],
                                  tuple(b[pick] for b in blocks), self.name)
        plain = [r for r in rows if r["eta_s_abs"] == 0.0]
        chk.expect(bool(plain), f"{self.name}: no |eta_s| = 0 row")
        base = self.spec.base
        checks.plain_pdc(chk, abs(base.kappa) * base.length,
                         [r["n_as"] for r in plain], [r["n_bs"] for r in plain],
                         [r["minvar_a"] for r in plain], f"{self.name}.eta0_row")

    def final_check(self, chk) -> None:
        """Byte-identical CSV from one worker instead of the pool."""
        out = self.run_round(0, workers=1)
        chk.expect(out["csv"] == self.csv,
                   f"{self.name}: CSV differs between 1 and {self.workers} workers")


def _zeta(delta: float, length: float) -> complex:
    """Length average of exp(i delta z): sinc(delta L / 2) exp(i delta L / 2)."""
    x = delta * length / 2.0
    return 1.0 + 0j if x == 0.0 else math.sin(x) / x * complex(math.cos(x), math.sin(x))


class PointQueries(Workload):
    """Closed loop with one caller: single-point solve, classify and compare
    requests on degenerate, three-mode and general parameters."""

    name = "point_queries"
    warmup = 1
    callers = 2
    KINDS = ("solve", "classify", "compare")
    CONFIGS = ("degenerate", "three_mode", "general")

    def __init__(self, seed, smoke, caller=0):
        from cascade import characteristic, observables, params, scan

        super().__init__(seed, smoke, caller)
        self.ops = self.queries = ROUND_REQUESTS[smoke]
        self.collective_left = COLLECTIVE_SAMPLE
        # modules, not functions: calls look the function up when made
        self.characteristic, self.observables = characteristic, observables
        self.params, self.scan = params, scan

    def requests(self, r: int) -> list:
        """Round r: kind and configuration uniform and independent; crystal
        length 1-3 cm, |kappa| L in [0.5, 10], |eta| up to 6 cm^-1, every
        mismatch within +-12 cm^-1, all coupling phases uniform."""
        from cascade.params import ModelParams

        rng = self.rng(r, 7)
        out = []
        for _ in range(self.ops):
            kind = self.KINDS[rng.integers(3)]
            config = self.CONFIGS[rng.integers(3)]
            length = rng.uniform(1.0, 3.0)
            mag = (rng.uniform(0.5, 10.0) / length, rng.uniform(0, 6), rng.uniform(0, 6))
            c = [complex(m * np.exp(1j * rng.uniform(0, 2 * np.pi))) for m in mag]
            d = [float(x) for x in rng.uniform(-12.0, 12.0, 3)]
            if config == "degenerate":
                c[2], d[2] = c[1], d[1]
            elif config == "three_mode":
                c[2], d[2] = 0j, 0.0
            out.append((kind, config, ModelParams(
                kappa=c[0], eta_s=c[1], eta_i=c[2], delta_tilde=d[0],
                delta_s=d[1], delta_i=d[2], length=float(length))))
        return out

    def serve(self, kind: str, config: str, p):
        """One request, computed as the cascade command of that name does,
        without argument parsing and JSON output.  Off the degenerate
        configuration `cascade compare` stops with exit 2 at the squeezing
        step; there the request computes the rest."""
        characteristic, observables = self.characteristic, self.observables
        if kind == "solve":
            m = self.scan.solve_point(p)
            return (m, characteristic.classify(p), observables.observables_summary(m),
                    m.to_dict())
        if kind == "classify":
            d = self.params.derive(p)
            return characteristic.classify(p), characteristic.solve_quartic(d)
        m_exact = self.scan.solve_point(p, solver="analytic")
        m_avg = self.scan.solve_point(p, solver="averaged")
        n_exact = observables.photon_numbers(m_exact)
        n_avg = observables.photon_numbers(m_avg)
        pdc = observables.pdc_only_reference(p.kappa, 0.0, p.length)
        minvar = None
        if config == "degenerate":
            minvar = (observables.single_mode_min_variance(m_exact, "a").min_variance,
                      observables.single_mode_min_variance(m_avg, "a").min_variance)
        return n_exact, n_avg, pdc, minvar

    def run_round(self, r: int, workers=None, same_seed=False) -> dict:
        reqs = self.requests(0 if same_seed else r)
        results, lat, failed, errors = [], [], 0, []
        clock = time.perf_counter
        t0 = clock()
        for kind, config, p in reqs:
            ts = clock()
            try:
                res = self.serve(kind, config, p)
            except Exception as exc:  # one failed request; the loop goes on
                res = None
                failed += 1
                errors.append(f"{kind} on {p}: {type(exc).__name__}: {exc}")
            lat.append(clock() - ts)
            results.append(res)
        return {"wall": clock() - t0, "requests": reqs, "results": results,
                "latencies": lat, "failed": failed,
                "error": "; ".join(errors[:3]) or None}

    def check_round(self, chk, out, first: bool) -> None:
        by_kind = {k: [] for k in self.KINDS}
        for (kind, config, p), res in zip(out["requests"], out["results"]):
            if res is not None:
                by_kind[kind].append((config, p, res))
        self._check_solve(chk, by_kind["solve"])
        self._check_classify(chk, by_kind["classify"])
        self._check_compare(chk, by_kind["compare"])

    def _check_solve(self, chk, solve) -> None:
        if not solve:
            return
        ps = [p for _, p, _ in solve]
        regimes = [res[1] for _, _, res in solve]
        summaries = [res[2] for _, _, res in solve]
        checks.regimes(chk, [g.label.value for g in regimes], ps,
                       growth=[g.max_growth_rate for g in regimes], what="solve.regime")
        blocks = reference.transfer_blocks(ps)
        n = np.array([[s[q] for q in ("n_as", "n_ai", "n_bs", "n_bi")]
                      for s in summaries])
        checks.photon_numbers(chk, n, blocks, [0, 1, 2, 3], "solve.photons")
        checks.balance(chk, n, "solve.photon_balance")
        checks.symplectic(chk, [res[0] for _, _, res in solve], "solve.symplectic")
        deg = [k for k, (config, _, _) in enumerate(solve) if config == "degenerate"]
        if deg:
            checks.single_mode_minima(chk, [summaries[k]["minvar_a"] for k in deg],
                                      [summaries[k]["minvar_b"] for k in deg],
                                      tuple(b[deg] for b in blocks), "solve")
            take = deg[:self.collective_left]
            if take:
                self.collective_left -= len(take)
                checks.collective_minimum(chk, [summaries[k]["minvar_c"] for k in take],
                                          tuple(b[take] for b in blocks), "solve")

    @staticmethod
    def _check_classify(chk, cls) -> None:
        if cls:
            checks.regimes(chk, [res[0].label.value for _, _, res in cls],
                           [p for _, p, _ in cls],
                           growth=[res[0].max_growth_rate for _, _, res in cls],
                           roots=[res[1].roots for _, _, res in cls],
                           what="classify.regime")

    @staticmethod
    def _check_compare(chk, cmp_) -> None:
        if not cmp_:
            return
        from cascade.params import ModelParams

        ps = [p for _, p, _ in cmp_]
        averaged = [ModelParams(kappa=p.kappa * _zeta(p.delta_tilde, p.length),
                                eta_s=p.eta_s * _zeta(p.delta_s, p.length),
                                eta_i=p.eta_i * _zeta(p.delta_i, p.length),
                                delta_tilde=0.0, delta_s=0.0, delta_i=0.0,
                                length=p.length) for p in ps]
        deg = [k for k, (config, _, _) in enumerate(cmp_) if config == "degenerate"]
        for idx, (tag, plist) in enumerate((("exact", ps), ("averaged", averaged))):
            blocks = reference.transfer_blocks(plist)
            n = np.array([[res[idx].n_as, res[idx].n_bs] for _, _, res in cmp_])
            checks.photon_numbers(chk, n, blocks, [0, 2], f"compare.{tag}.photons")
            if deg:
                checks.single_mode_minima(chk, [cmp_[k][2][3][idx] for k in deg], None,
                                          tuple(b[deg] for b in blocks), f"compare.{tag}")
        kl = np.array([abs(p.kappa) * p.length for p in ps])
        chk.close([res[2][0] for _, _, res in cmp_], np.sinh(kl) ** 2,
                  checks.PLAIN_PDC_RTOL, "compare.pdc_n_a")
        chk.close([res[2][1] for _, _, res in cmp_], np.exp(-2.0 * kl),
                  checks.PLAIN_PDC_RTOL, "compare.pdc_minvar_a")


WORKLOADS = {w.name: w for w in (DegenerateDiagram, PointQueries)}
