"""Show how the outputs in two `tools/outputs.py` directories differ.

    python tools/drift.py PARENT_DIR CHANGE_DIR

For every file whose bytes differ it prints, per CSV column or JSON leaf,
the number of changed values, the worst relative change |new - old| / |old|
(inf where an exact zero became nonzero, or for a changed text value) and
where it occurs, and, as a separate count, the zeros whose sign flipped
(0.0 <-> -0.0), which no value comparison sees.  A CSV location is the data
row number with the row's first two cells.  Standard library only.
"""

import csv
import json
import math
import sys
from pathlib import Path


def _number(value):
    """value as a float, or None for text (booleans are text)."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _compare(old, new):
    """(relative change or None if unchanged, whether a zero's sign flipped)."""
    a, b = _number(old), _number(new)
    if a is None or b is None:
        return (None if old == new else math.inf), False
    if a == b or (math.isnan(a) and math.isnan(b)):
        flip = a == 0.0 and math.copysign(1.0, a) != math.copysign(1.0, b)
        return None, flip
    rel = abs(b - a) / abs(a) if a != 0.0 else math.inf
    return (rel if math.isfinite(rel) else math.inf), False


def _csv_values(path: Path) -> dict:
    """{column: [(location, cell), ...]} of a CSV file with a header row."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    out = {name: [] for name in header}
    for n, row in enumerate(body, start=1):
        where = f"row {n} ({', '.join(f'{h}={c}' for h, c in zip(header, row[:2]))})"
        for name, cell in zip(header, row):
            out[name].append((where, cell))
    return out


def _json_leaves(node, path="", out=None) -> dict:
    """{leaf path: [(leaf path, value)]} of a parsed JSON document."""
    out = {} if out is None else out
    if isinstance(node, dict):
        for key, value in node.items():
            _json_leaves(value, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for k, value in enumerate(node):
            _json_leaves(value, f"{path}[{k}]", out)
    else:
        out[path] = [(path, node)]
    return out


def _values(path: Path) -> dict:
    if path.suffix == ".csv":
        return _csv_values(path)
    return _json_leaves(json.loads(path.read_text()))


def report(old_path: Path, new_path: Path) -> list:
    """The lines describing how new_path differs from old_path."""
    old, new = _values(old_path), _values(new_path)
    lines = [f"  only in {name}: {', '.join(sorted(set(a) - set(b)))}"
             for name, a, b in (("parent", old, new), ("change", new, old))
             if set(a) - set(b)]
    for key in (k for k in old if k in new):
        if len(old[key]) != len(new[key]):
            lines.append(f"  {key}: {len(old[key])} values against {len(new[key])}")
            continue
        changed, flips, worst, worst_at = 0, 0, -1.0, ""
        for (where, a), (_, b) in zip(old[key], new[key]):
            rel, flip = _compare(a, b)
            flips += flip
            if rel is not None:
                changed += 1
                if rel > worst:
                    worst, worst_at = rel, where
        if changed or flips:
            text = f"  {key}: {changed} changed"
            if changed:
                text += f", worst relative change {worst:.3g}"
                text += f" at {worst_at}" if worst_at != key else ""
            lines.append(text + f", {flips} sign-of-zero flips")
    return lines


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = Path(argv[0]), Path(argv[1])
    names = sorted({p.name for p in parent.iterdir()} | {p.name for p in change.iterdir()})
    same = 0
    for name in names:
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {'parent' if a.is_file() else 'change'}")
        elif a.read_bytes() == b.read_bytes():
            same += 1
        else:
            print(name)
            for line in report(a, b):
                print(line)
    print(f"{same} of {len(names)} files byte-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
