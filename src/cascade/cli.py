"""Command-line front end.

Commands: solve, classify, scan, sweep-gain, compare.  Complex couplings are
entered as magnitude plus phase.  Runs are reproducible: identical flags
produce identical output bytes.

The analytic solver is the rotating-frame matrix exponential, valid in every
regime.  `compare` prints :func:`cascade.scan.compare_point`, the comparison
that `sweep-gain` tabulates over the parametric gain.

Exit codes: 0 success; 2 a failure the package names, by its class: an
OverflowError (a solution that leaves double precision), a ValueError
(invalid input, a `solve --z` outside the crystal, a malformed JSON file or
one with a key it does not know, a quartic with a coefficient that is not
finite), an OSError, another ArithmeticError (a collective phase search that
does not converge, an ODE-oracle solve whose steps stall), or a RuntimeError
(a worker process of the pool that dies); 4 only `scan --strict` whose
cross-check finds a point that disagrees with the ODE oracle, decided here:
:func:`cascade.scan.run_scan` reports disagreements and raises none.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys

from .characteristic import classify, roots_to_json, solve_quartic
from .observables import observables_summary
from .params import (COUPLINGS, DEGENERATE_LOCK, FIELDS, THREE_MODE, ModelParams,
                     derive, params_from_dict, params_to_dict, unit_phase, validate)
from .scan import (SOLVERS, ScanSpec, compare_point, emit, json_bytes, run_scan,
                   solve_point, sweep_gain)

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
    # the two configurations contradict each other: together a usage error
    configuration = p.add_mutually_exclusive_group()
    configuration.add_argument("--degenerate", action="store_true",
                               help="enforce eta_i = eta_s and delta_i = delta_s "
                                    "[dimensionless]")
    configuration.add_argument("--three-mode", action="store_true",
                               help="zero the idler up-conversion arm (eta_i = 0, "
                                    "delta_i = 0)")
    p.add_argument("--config", type=str, default=None,
                   help="JSON parameter file; explicit flags win on conflict")


def _build_params(args: argparse.Namespace) -> ModelParams:
    base = params_to_dict(ModelParams(0j, 0j, 0j, 0.0, 0.0, 0.0, 1.0))
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("--config must hold a JSON object")
        base.update(config)
    kw = dict(vars(params_from_dict(base)))
    # a flag of the magnitude or of the phase keeps the coupling's other part
    for name in COUPLINGS:
        mag, phase = getattr(args, name), getattr(args, f"{name}_phase")
        if mag is not None or phase is not None:
            z = kw[name]
            kw[name] = (abs(z) if mag is None else mag) * (
                unit_phase(z) if phase is None else cmath.exp(1j * phase))
    for name in FIELDS[3:]:
        if getattr(args, name) is not None:
            kw[name] = getattr(args, name)
    if args.degenerate:
        kw.update({idler: kw[signal] for idler, signal in DEGENERATE_LOCK.items()})
    if args.three_mode:
        kw.update(THREE_MODE)
    return validate(ModelParams(**kw))


def _write(args: argparse.Namespace, payload: bytes) -> None:
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode())


def _point_command(document):
    """The command that builds the point's parameters and writes them with
    document(params, args) as one JSON document."""

    def command(args) -> int:
        params = _build_params(args)
        _write(args, json_bytes({"params": params_to_dict(params),
                                 **document(params, args)}))
        return 0

    return command


def _solve(params: ModelParams, args) -> dict:
    m = solve_point(params, z=args.z, solver=args.solver)
    return {"regime": classify(params).label.value, "matrix": m.to_dict(),
            "observables": observables_summary(m)}


def _classify(params: ModelParams, args) -> dict:
    d = derive(params)
    regime = classify(params)
    roots = solve_quartic(d)
    return {
        "coefficients": {"P": d.p_coef, "Q": d.q_coef, "R": d.r_coef},
        "cascaded_mismatches": {"phi_s": d.phi_cas_s, "phi_i": d.phi_cas_i,
                                "phi_si": d.phi_cas_si},
        "regime": regime.label.value,
        "max_growth_rate": regime.max_growth_rate,
        "roots": roots_to_json(roots),
        "near_multiple": roots.near_multiple,
    }


def _cmd_scan(args) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        spec = ScanSpec.from_dict(json.load(fh))
    result = run_scan(spec, workers=args.threads, seed=args.seed,
                      cross_check=args.cross_check or args.strict)
    points = len({v["index"] for v in result.cross_check_violations})
    if args.strict and points:
        print(f"error: strict cross-check failed at {points} point(s)", file=sys.stderr)
        return 4
    _write(args, emit(result, args.format))
    if points:
        print(f"warning: cross-check: {points} point(s) disagree with the ODE "
              "oracle", file=sys.stderr)
    return 0


def _cmd_sweep_gain(args) -> int:
    result = sweep_gain(args.delta_s_l, args.ratio, args.gamma_max, args.points)
    _write(args, emit(result, args.format))
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
                   help="evaluation position [cm] in [0, length] (default: length)")
    p.add_argument("--solver", choices=SOLVERS,
                   default="analytic", help="solution method [dimensionless]")
    p.set_defaults(func=_point_command(_solve))

    p = sub.add_parser("classify", parents=[common_out],
                       help="characteristic roots and generation regime")
    _add_param_flags(p)
    p.set_defaults(func=_point_command(_classify))

    p = sub.add_parser("scan", parents=[common_out],
                       help="evaluate a parameter grid")
    p.add_argument("--spec", type=str, required=True,
                   help="JSON scan specification file")
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   help="output format")
    # a string default is converted by `type` only when `scan` runs, so a
    # bad CASCADE_THREADS is a usage error of `scan`, not of every command
    p.add_argument("--threads", type=int,
                   default=os.environ.get("CASCADE_THREADS", "1"),
                   help="worker processes for the ODE solves of the oracle "
                        "solver and the cross-check, >= 1 (env CASCADE_THREADS)")
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
    p.set_defaults(func=_point_command(lambda params, args: compare_point(params)))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OverflowError as exc:  # an ArithmeticError: before the classes below
        print(f"error: solution leaves double precision: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
