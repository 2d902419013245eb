"""Write the outputs of the package's commands into a directory.

    PYTHONPATH=src python tools/outputs.py DIR

runs the two diagram scans (41x41, on 1 and on 2 workers), a 4x3 oracle
scan, the overflow-boundary scan (the degenerate diagram's quantities at
eta_s = 1, L = 2, |kappa| 1..400 cm^-1 in 401 steps against delta_s
-10..10 cm^-1 in 21; about three quarters of its points are failure rows,
so a drift shows whether failure rows or high-gain values move), the
averaged solver on the 41x41 four-mode diagram and on a 9x9 degenerate
diagram with the oracle cross-check (as JSON), a one-axis |kappa| scan of
the general point below (kappa = 2 e^{0.3i}: the phase a magnitude axis
keeps), `solve` with each solver and
`classify` on the README points, `sweep-gain` for two families, `compare`
on the README point, and `solve` (analytic and averaged) and `classify` on
a general and a three-mode point, each into its own file under DIR; the
four `classify` files cover its degenerate, three-mode and general labels.
(`compare` exits 2 on a point that is not degenerate, since it prints
squeezing.)  `failures.json` holds, for each command of FAILURES, its
argv, its exit code and its stderr lines, captured in process (its
stdout is dropped); an exception that escapes the command counts as exit
1, with the last line of its traceback.  `closed_form.json` holds the
paper's closed form, `cascade.full_matrix(p, L).to_dict()` with every
float as `float.hex`, at the README's degenerate point, the three-mode
point and the general point above, so a drift record also covers the
reference.  Run it against two source trees and compare the directories
with `tools/drift.py` to see which outputs a change moves.
"""

import cmath
import contextlib
import dataclasses
import io
import json
import sys
import traceback
from pathlib import Path

import cascade
from cascade.cli import main
from cascade.params import ModelParams, degenerate_params, three_mode_params
from cascade.scan import (AxisSpec, ScanSpec, degenerate_diagram_spec,
                          four_mode_diagram_spec)

README_POINTS = {
    "kappa3_eta1": ["--kappa", "3", "--length", "2", "--delta-s", "10", "--eta-s", "1",
              "--degenerate"],
    "kappa3_eta4": ["--kappa", "3", "--eta-s", "4", "--degenerate", "--length", "2"],
}
#: points that are not degenerate, which take the full 4x4 exponential
OTHER_POINTS = {
    "general": ["--kappa", "2", "--kappa-phase", "0.3", "--eta-s", "1.5", "--eta-i",
                "0.8", "--delta-tilde", "1", "--delta-s", "4", "--delta-i", "-2",
                "--length", "2"],
    "three_mode": ["--kappa", "3", "--eta-s", "2", "--delta-s", "5", "--three-mode",
                   "--length", "2"],
}
#: commands at the edges of double precision: `solve` where the squeezing
#: minimum, the photon numbers and the transfer matrix leave it, `solve`
#: where the minimum's 1 + 4 |L|^2 overflows while |L|^2 is finite, an
#: ODE-oracle solve whose steps stall, and `classify` of a general point at
#: |kappa| = 1e26, where a zero band CLASS_TOL * scale^12 would leave it
#: (the label is taken without one: exit 0), and at 1e160, where P is -inf
FAILURES = [
    *(["solve", "--kappa", kappa, "--eta-s", "1", "--delta-s", "3", "--degenerate",
       "--length", "2"] for kappa in ("100", "178", "400")),
    ["solve", "--kappa", "99.6", "--eta-s", "0.1", "--delta-s", "1", "--degenerate",
     "--length", "2"],
    ["solve", "--solver", "oracle", "--kappa", "1e160", "--length", "1"],
    *(["classify", "--kappa", kappa, "--eta-s", "1", "--eta-i", "0.5", "--delta-s", "1",
       "--delta-i", "2", "--length", "1"] for kappa in ("1e26", "1e160")),
]
SWEEPS = {
    "readme": ["--delta-s-l", "47.12", "--ratio", "1", "--gamma-max", "6",
               "--points", "61"],
    "high_gain": ["--delta-s-l", "3", "--ratio", "0.5", "--gamma-max", "20",
                  "--points", "401"],
}


def run(out: Path, name: str, *argv: str) -> None:
    if main([*argv, "--output", str(out / name)]) != 0:
        raise SystemExit(f"{name}: cascade {' '.join(argv)} failed")


def failure(argv: list) -> dict:
    """The argv, exit code and stderr lines of a command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except Exception as exc:  # escapes main: the interpreter exits 1
            code = 1
            err.write("".join(traceback.format_exception_only(exc)))
    return {"argv": argv, "exit": code, "stderr": err.getvalue().splitlines()}


def closed_form_hex(p: ModelParams) -> dict:
    """The closed form's T at z = L, each float as float.hex."""
    return {name: [x.hex() for x in v] if isinstance(v, list) else float(v).hex()
            for name, v in cascade.full_matrix(p, p.length).to_dict().items()}


def scan(out: Path, name: str, spec, threads: int, *flags: str,
         suffix: str = "csv") -> None:
    spec_file = out / f"{name}.spec.json"
    spec_file.write_text(json.dumps(spec.to_dict()))
    run(out, f"{name}_threads{threads}.{suffix}", "scan", "--spec", str(spec_file),
        "--threads", str(threads), *flags)


def write_outputs(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for threads in (1, 2):
        scan(out, "degenerate_diagram", degenerate_diagram_spec(count=41), threads)
        scan(out, "four_mode_diagram", four_mode_diagram_spec(count=41), threads)
    oracle = dataclasses.replace(degenerate_diagram_spec(count=4), solver="oracle",
                                 axis2=AxisSpec("eta_s_abs", 0.0, 8.0, 3))
    scan(out, "oracle_scan", oracle, 2)
    boundary = dataclasses.replace(degenerate_diagram_spec(),
                                   base=degenerate_params(1, 1, 0, 0, 2),
                                   axis1=AxisSpec("kappa_abs", 1.0, 400.0, 401),
                                   axis2=AxisSpec("delta_s", -10.0, 10.0, 21))
    scan(out, "overflow_boundary_scan", boundary, 1)
    scan(out, "four_mode_diagram_averaged",
         dataclasses.replace(four_mode_diagram_spec(count=41), solver="averaged"), 1)
    scan(out, "degenerate_diagram_averaged",
         dataclasses.replace(degenerate_diagram_spec(count=9), solver="averaged"), 2,
         "--cross-check", "--format", "json", suffix="json")
    general = ModelParams(kappa=2 * cmath.exp(0.3j), eta_s=1.5 + 0j, eta_i=0.8 + 0j,
                          delta_tilde=1.0, delta_s=4.0, delta_i=-2.0, length=2.0)
    scan(out, "kappa_abs_scan",
         ScanSpec(base=general, axis1=AxisSpec("kappa_abs", 0.0, 8.0, 33),
                  quantities=("regime", "n_as", "n_ai", "n_bs", "n_bi", "growth_rate")), 1)
    for point, flags in README_POINTS.items():
        for solver in ("analytic", "oracle", "averaged"):
            run(out, f"solve_{point}_{solver}.json", "solve", *flags, "--solver", solver)
        run(out, f"classify_{point}.json", "classify", *flags)
    for name, flags in SWEEPS.items():
        run(out, f"sweep_gain_{name}.csv", "sweep-gain", *flags)
    run(out, "compare_readme.json", "compare", "--kappa", "4", "--eta-s", "4",
        "--delta-s", "47.12", "--degenerate")
    for point, flags in OTHER_POINTS.items():
        for solver in ("analytic", "averaged"):
            run(out, f"solve_{point}_{solver}.json", "solve", *flags, "--solver", solver)
        run(out, f"classify_{point}.json", "classify", *flags)
    (out / "failures.json").write_text(
        json.dumps([failure(argv) for argv in FAILURES], indent=2) + "\n")
    references = {"degenerate": degenerate_params(3, 1, 0, 10, 2),
                  "three_mode": three_mode_params(3, 2, 0, 5, 2), "general": general}
    (out / "closed_form.json").write_text(json.dumps(
        {name: closed_form_hex(p) for name, p in references.items()}, indent=2) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    write_outputs(Path(sys.argv[1]))
