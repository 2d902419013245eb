"""Command-line front end.

Commands: solve, classify, scan, sweep-gain, compare.  Complex couplings are
entered as magnitude plus phase.  Runs are reproducible: identical flags
produce identical output bytes.

The analytic solver is the rotating-frame matrix exponential, valid in every
regime; `solve --no-fallback` uses the paper's closed form alone instead.

Exit codes: 0 success, 2 invalid input, 3 multiple characteristic roots
under --no-fallback (the closed form does not hold there), 4 strict-mode
cross-check failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys

from .analytic import MultipleRootsError
from .characteristic import classify, roots_to_json, solve_quartic
from .observables import observables_summary, photon_numbers, \
    pdc_only_reference, single_mode_min_variance
from .params import (ModelParams, derive, params_from_dict, params_to_dict,
                     validate)
from .scan import ScanSpec, emit, run_scan, solve_point, sweep_gain

_PARAM_FLAGS = (
    ("kappa", "PDC coupling magnitude [cm^-1]"),
    ("kappa-phase", "PDC coupling phase [rad]"),
    ("eta-s", "signal up-conversion coupling magnitude [cm^-1]"),
    ("eta-s-phase", "signal up-conversion coupling phase [rad]"),
    ("eta-i", "idler up-conversion coupling magnitude [cm^-1]"),
    ("eta-i-phase", "idler up-conversion coupling phase [rad]"),
    ("delta-tilde", "PDC wavevector mismatch [cm^-1]"),
    ("delta-s", "signal up-conversion wavevector mismatch [cm^-1]"),
    ("delta-i", "idler up-conversion wavevector mismatch [cm^-1]"),
    ("length", "crystal length [cm]"),
)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    for flag, help_text in _PARAM_FLAGS:
        p.add_argument(f"--{flag}", type=float, default=None, help=help_text)
    p.add_argument("--degenerate", action="store_true",
                   help="enforce eta_i = eta_s and delta_i = delta_s [dimensionless]")
    p.add_argument("--three-mode", action="store_true",
                   help="zero the idler up-conversion arm (eta_i = 0, delta_i = 0)")
    p.add_argument("--config", type=str, default=None,
                   help="JSON parameter file; explicit flags win on conflict")


def _build_params(args: argparse.Namespace) -> ModelParams:
    base = {
        "kappa": [0.0, 0.0], "eta_s": [0.0, 0.0], "eta_i": [0.0, 0.0],
        "delta_tilde": 0.0, "delta_s": 0.0, "delta_i": 0.0, "length": 1.0,
    }
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            base.update(json.load(fh))
    p = params_from_dict(base)

    def flag(name):
        return getattr(args, name.replace("-", "_"))

    def coupling(mag_flag, phase_flag, current: complex) -> complex:
        mag = flag(mag_flag)
        phase = flag(phase_flag)
        if mag is None and phase is None:
            return current
        m = mag if mag is not None else abs(current)
        ph = phase if phase is not None else (cmath.phase(current) if current != 0 else 0.0)
        return m * cmath.exp(1j * ph)

    kw = dict(
        kappa=coupling("kappa", "kappa-phase", p.kappa),
        eta_s=coupling("eta-s", "eta-s-phase", p.eta_s),
        eta_i=coupling("eta-i", "eta-i-phase", p.eta_i),
        delta_tilde=flag("delta-tilde") if flag("delta-tilde") is not None else p.delta_tilde,
        delta_s=flag("delta-s") if flag("delta-s") is not None else p.delta_s,
        delta_i=flag("delta-i") if flag("delta-i") is not None else p.delta_i,
        length=flag("length") if flag("length") is not None else p.length,
    )
    if args.degenerate:
        kw["eta_i"] = kw["eta_s"]
        kw["delta_i"] = kw["delta_s"]
    if args.three_mode:
        kw["eta_i"] = 0j
        kw["delta_i"] = 0.0
    return validate(ModelParams(**kw))


def _write(args: argparse.Namespace, payload: bytes) -> None:
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode())


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode()


def _cmd_solve(args) -> int:
    params = _build_params(args)
    z = args.z if args.z is not None else params.length
    try:
        m = solve_point(params, z=z, solver=args.solver,
                        fallback=not args.no_fallback)
    except MultipleRootsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    doc = {
        "params": params_to_dict(params),
        "regime": classify(params).label.value,
        "matrix": m.to_dict(),
        "observables": observables_summary(m),
    }
    _write(args, _json_bytes(doc))
    return 0


def _cmd_classify(args) -> int:
    params = _build_params(args)
    d = derive(params)
    regime = classify(params)
    roots = solve_quartic(d)
    doc = {
        "params": params_to_dict(params),
        "coefficients": {"P": d.p_coef, "Q": d.q_coef, "R": d.r_coef},
        "cascaded_mismatches": {"phi_s": d.phi_cas_s, "phi_i": d.phi_cas_i,
                                "phi_si": d.phi_cas_si},
        "regime": regime.label.value,
        "max_growth_rate": regime.max_growth_rate,
        "roots": roots_to_json(roots),
        "near_multiple": roots.near_multiple,
    }
    _write(args, _json_bytes(doc))
    return 0


def _cmd_scan(args) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        spec = ScanSpec.from_dict(json.load(fh))
    try:
        result = run_scan(spec, workers=args.threads, strict=args.strict,
                          cross_check=args.cross_check, seed=args.seed)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    _write(args, emit(result, args.format))
    return 0


def _cmd_sweep_gain(args) -> int:
    result = sweep_gain(args.delta_s_l, args.ratio, args.gamma_max, args.points)
    _write(args, emit(result, args.format))
    return 0


def _cmd_compare(args) -> int:
    params = _build_params(args)
    m_exact = solve_point(params, solver="analytic")
    m_avg = solve_point(params, solver="averaged")
    n_ex = photon_numbers(m_exact)
    n_av = photon_numbers(m_avg)
    pdc_n, pdc_mv = pdc_only_reference(params.kappa, 0.0, params.length)
    doc = {
        "params": params_to_dict(params),
        "exact": {"n_a": n_ex.n_as, "n_b": n_ex.n_bs,
                  "minvar_a": single_mode_min_variance(m_exact, "a").min_variance},
        "averaged": {"n_a": n_av.n_as, "n_b": n_av.n_bs,
                     "minvar_a": single_mode_min_variance(m_avg, "a").min_variance},
        "pdc_only": {"n_a": pdc_n, "n_b": 0.0, "minvar_a": pdc_mv},
    }
    _write(args, _json_bytes(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascade",
        description="Exact spatial dynamics of high-gain parametric "
                    "down-conversion with cascaded up-conversion")
    sub = parser.add_subparsers(dest="command", required=True)

    common_out = argparse.ArgumentParser(add_help=False)
    common_out.add_argument("--output", type=str, default=None,
                            help="output file (default: stdout)")

    p = sub.add_parser("solve", parents=[common_out],
                       help="transfer matrix and observables at one point")
    _add_param_flags(p)
    p.add_argument("--z", type=float, default=None,
                   help="evaluation position [cm] (default: crystal length)")
    p.add_argument("--solver", choices=["analytic", "oracle", "averaged"],
                   default="analytic", help="solution method [dimensionless]")
    p.add_argument("--no-fallback", action="store_true",
                   help="analytic solver: use the paper's closed form only, "
                        "which fails with exit 3 at multiple roots")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("classify", parents=[common_out],
                       help="characteristic roots and generation regime")
    _add_param_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("scan", parents=[common_out],
                       help="evaluate a parameter grid")
    p.add_argument("--spec", type=str, required=True,
                   help="JSON scan specification file")
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   help="output format")
    p.add_argument("--threads", type=int,
                   default=int(os.environ.get("CASCADE_THREADS", "1")),
                   help="worker processes (env CASCADE_THREADS)")
    p.add_argument("--strict", action="store_true",
                   help="fail (exit 4) when the oracle cross-check disagrees")
    p.add_argument("--cross-check", action="store_true",
                   help="re-solve a 5%% sample with the ODE oracle")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for cross-check sampling [dimensionless]")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("sweep-gain", parents=[common_out],
                       help="exact/averaged/plain-PDC sweep over parametric gain")
    p.add_argument("--delta-s-l", type=float, required=True,
                   help="product delta_s * L [dimensionless]")
    p.add_argument("--ratio", type=float, required=True,
                   help="coupling ratio r = |eta_s| / |kappa| [dimensionless]")
    p.add_argument("--gamma-max", type=float, required=True,
                   help="largest parametric gain |kappa| L [dimensionless]")
    p.add_argument("--points", type=int, required=True, help="grid size")
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   help="output format")
    p.set_defaults(func=_cmd_sweep_gain)

    p = sub.add_parser("compare", parents=[common_out],
                       help="exact vs averaged vs plain-PDC at one point")
    _add_param_flags(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
