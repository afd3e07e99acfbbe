"""Compare the CSV outputs of two runs, file by file.

    python3 tools/compare_outputs.py DIR_A DIR_B

Every ``*.csv`` under DIR_A (searched recursively) is compared with the file
of the same relative path under DIR_B.  A file whose bytes agree prints
"identical"; otherwise each numeric column prints its largest |a - b| and,
in parentheses, that difference over the column's largest |value| on either
side (so columns in Hz and in unit amplitudes read on one scale), and each
other column the number of cells that differ.  A file missing on one
side, or with another header or row count, prints why and makes the exit
status 1.  Standard library and numpy only.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import numpy as np


def _numeric(values: list[str]) -> np.ndarray | None:
    try:
        return np.array([float(v) for v in values])
    except ValueError:
        return None


def compare(a: Path, b: Path) -> tuple[bool, str]:
    """(comparable, report) of two CSV files."""
    if not b.exists():
        return False, "missing in the second directory"
    if a.read_bytes() == b.read_bytes():
        return True, "identical"
    with a.open(newline="") as fa, b.open(newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if rows_a[:1] != rows_b[:1]:
        return False, f"headers differ: {rows_a[:1]} and {rows_b[:1]}"
    if len(rows_a) != len(rows_b):
        return False, f"row counts differ: {len(rows_a) - 1} and {len(rows_b) - 1}"
    parts = []
    for name, col_a, col_b in zip(rows_a[0], zip(*rows_a[1:]), zip(*rows_b[1:])):
        x, y = _numeric(col_a), _numeric(col_b)
        if x is not None and y is not None:
            diff = np.max(np.abs(x - y), initial=0.0)
            scale = max(np.max(np.abs(x), initial=0.0), np.max(np.abs(y), initial=0.0))
            parts.append(f"{name} {diff:.3g} ({diff / scale if scale else 0.0:.3g} rel)")
        else:
            parts.append(f"{name} {sum(p != q for p, q in zip(col_a, col_b))} cells")
    return True, "max |d|: " + ", ".join(parts)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    root_a, root_b = Path(argv[0]), Path(argv[1])
    ok = True
    for path in sorted(root_a.rglob("*.csv")):
        rel = path.relative_to(root_a)
        comparable, report = compare(path, root_b / rel)
        ok &= comparable
        print(f"{rel}: {report}")
    for path in sorted(root_b.rglob("*.csv")):
        if not (root_a / path.relative_to(root_b)).exists():
            ok = False
            print(f"{path.relative_to(root_b)}: missing in the first directory")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
