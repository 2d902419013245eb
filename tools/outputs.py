"""Write the outputs of the package's commands into a directory.

    PYTHONPATH=src python tools/outputs.py DIR

runs the two diagram scans (41x41, on 1 and on 2 workers), a 4x3 oracle
scan, the averaged solver on the 41x41 four-mode diagram and on a 9x9
degenerate diagram with the oracle cross-check (as JSON), `solve` with each
solver and `classify` on the README points, `sweep-gain` for two families,
`compare` on the README point, and `solve` (analytic and averaged) and
`classify` on a general and a three-mode point, each into its own file under
DIR; the four `classify` files cover its degenerate, three-mode and general
labels.  (`compare` exits 2 on a point that is not degenerate, since it
prints squeezing.)  Run it against two source trees and compare the
directories with `tools/drift.py` to see which outputs a change moves.
"""

import dataclasses
import json
import sys
from pathlib import Path

from cascade.cli import main
from cascade.scan import (AxisSpec, degenerate_diagram_spec,
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
SWEEPS = {
    "readme": ["--delta-s-l", "47.12", "--ratio", "1", "--gamma-max", "6",
               "--points", "61"],
    "high_gain": ["--delta-s-l", "3", "--ratio", "0.5", "--gamma-max", "20",
                  "--points", "401"],
}


def run(out: Path, name: str, *argv: str) -> None:
    if main([*argv, "--output", str(out / name)]) != 0:
        raise SystemExit(f"{name}: cascade {' '.join(argv)} failed")


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
    scan(out, "four_mode_diagram_averaged",
         dataclasses.replace(four_mode_diagram_spec(count=41), solver="averaged"), 1)
    scan(out, "degenerate_diagram_averaged",
         dataclasses.replace(degenerate_diagram_spec(count=9), solver="averaged"), 2,
         "--cross-check", "--format", "json", suffix="json")
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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    write_outputs(Path(sys.argv[1]))
