"""Compare two ``hbflow run`` or ``hbflow sweep`` output trees.

    python scripts/compare_runs.py A B

Both trees must hold the same files, and each file must match byte for
byte. The exception is ``summary.json``, which is compared as JSON
without ``wall_time_seconds``, the one field a rerun changes. Prints one
line per difference; exits 0 when there is none, 1 otherwise, and 2 when
A or B is not a directory.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

VOLATILE = "wall_time_seconds"


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


def _difference(a: Path, b: Path) -> str | None:
    """Why the files a and b differ, or None when they match."""
    if a.name == "summary.json":
        sa, sb = _summary(a), _summary(b)
        if sa is None or sb is None:
            return "not valid JSON"
        if sa == sb:
            return None
        if isinstance(sa, dict) and isinstance(sb, dict):
            missing = object()
            keys = sorted(k for k in sa.keys() | sb.keys()
                          if sa.get(k, missing) != sb.get(k, missing))
            return "JSON differs in " + ", ".join(keys)
        return "JSON differs"
    da, db = a.read_bytes(), b.read_bytes()
    if da == db:
        return None
    at = next((i for i, (x, y) in enumerate(zip(da, db)) if x != y), min(len(da), len(db)))
    return f"bytes differ from offset {at} (sizes {len(da)} and {len(db)})"


def compare(a: Path, b: Path) -> list[str]:
    """One line per difference between the trees a and b."""
    fa, fb = _files(a), _files(b)
    lines = [f"only in {a}: {name}" for name in sorted(fa - fb)]
    lines += [f"only in {b}: {name}" for name in sorted(fb - fa)]
    for name in sorted(fa & fb):
        why = _difference(a / name, b / name)
        if why is not None:
            lines.append(f"{name}: {why}")
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
