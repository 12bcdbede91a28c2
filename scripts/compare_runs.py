"""Compare two ``hbflow run`` or ``hbflow sweep`` output trees.

    python scripts/compare_runs.py A B

Both trees must hold the same files, and each file must match byte for
byte. The exception is ``summary.json``, which is compared field by field
as JSON without ``wall_time_seconds``, the one field a rerun changes; a
differing field is printed with both values, and a numeric one also with
their relative difference. Summaries whose fields are equal but in
another order differ too, since a rerun writes them in the same order.
Prints one line per difference; exits 0 when there is none, 1 otherwise,
and 2 when A or B is not a directory.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

VOLATILE = "wall_time_seconds"
_ABSENT = object()          # a summary field that only the other tree has


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _summary(path: Path) -> dict | None:
    try:
        summary = json.loads(path.read_text())
    except ValueError:
        return None
    if isinstance(summary, dict):
        summary.pop(VOLATILE, None)
    return summary


def _leaves(value, path: str = ""):
    """(path, scalar) for every scalar in a parsed JSON value, e.g. ``stages[0].gamma``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _field_difference(a, b) -> str:
    """Both values of a differing field; for two numbers, also their relative difference."""
    text = " vs ".join("absent" if v is _ABSENT else repr(v) for v in (a, b))
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        scale = max(abs(a), abs(b))
        text += f" (relative difference {abs(a - b) / scale if scale else 0.0:.2e})"
    return text


def _differences(a: Path, b: Path) -> list[str]:
    """Why the files a and b differ, one reason per line; empty when they match."""
    if a.name == "summary.json":
        sa, sb = _summary(a), _summary(b)
        if sa is None or sb is None:
            return ["not valid JSON"]
        la, lb = dict(_leaves(sa)), dict(_leaves(sb))
        # repr tells -0.0 from 0.0 and, unlike ==, finds NaN equal to NaN
        fields = (k for k in la.keys() | lb.keys()
                  if repr(la.get(k, _ABSENT)) != repr(lb.get(k, _ABSENT)))
        lines = [f"{k} {_field_difference(la.get(k, _ABSENT), lb.get(k, _ABSENT))}"
                 for k in sorted(fields)]
        if not lines and list(la) != list(lb):
            lines.append("field order differs")
        return lines
    da, db = a.read_bytes(), b.read_bytes()
    if da == db:
        return []
    at = next((i for i, (x, y) in enumerate(zip(da, db)) if x != y), min(len(da), len(db)))
    return [f"bytes differ from offset {at} (sizes {len(da)} and {len(db)})"]


def compare(a: Path, b: Path) -> list[str]:
    """One line per difference between the trees a and b."""
    fa, fb = _files(a), _files(b)
    lines = [f"only in {a}: {name}" for name in sorted(fa - fb)]
    lines += [f"only in {b}: {name}" for name in sorted(fb - fa)]
    for name in sorted(fa & fb):
        lines += [f"{name}: {why}" for why in _differences(a / name, b / name)]
    return lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_runs.py A B", file=sys.stderr)
        return 2
    a, b = (Path(arg) for arg in args)
    for root in (a, b):
        if not root.is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 2
    lines = compare(a, b)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
