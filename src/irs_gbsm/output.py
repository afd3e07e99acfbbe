"""Deterministic CSV/manifest writing shared by the CLI subcommands.

CSVs are written from columns.  Each column is formatted once by its dtype,
and every value comes out exactly as :func:`fmt` would format it: floats
with ``repr`` (shortest round-trip), integers with ``str``, booleans as
``0``/``1`` and anything else with ``str``.  Equal inputs therefore produce
byte-identical files.

An integer or boolean array column whose [min, max] span is narrower than
both its length and 65536 values (ids, grid indices, flags) is formatted
through a table: the strings of every integer in the span are made once per
write, and each cell is a table lookup at ``value - min``, not a ``str``
call.  Finding the span is the only pass over the whole column; cells are
made 8192 rows at a time, so no whole-column temporary is built.  Wider
integer columns, floats and anything else are formatted value by value.

Every run writes a manifest with the full config echo, the SHA-256 of each
output and the package and numpy versions.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# rows formatted per write: a block's cells and joined text take about 90 B
# per cell (tracemalloc), so 7 MB for a 9-column CIR block and 3 MB for a
# 4-column visibility block; 65536-row blocks took 55 and 21 MB
_ROW_BLOCK = 8192

# a lookup table holds at most this many strings (about 4 MB, the size of a
# formatted block), so that no table grows with the column's length
_TABLE_MAX = 1 << 16


def _format(column) -> list[str]:
    """One column's values as strings, each equal to ``fmt`` of the value."""
    if isinstance(column, np.ndarray):
        kind = column.dtype.kind
        if kind in "iu":
            return list(map(str, column.tolist()))
        if kind == "f":
            return list(map(repr, column.tolist()))
    return [fmt(v) for v in column]


def _formatter(column):
    """The function that formats any row block of ``column``; see the module doc."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biu" and column.size:
        lo, hi = int(column.min()), int(column.max())
        if hi - lo < min(column.size, _TABLE_MAX):
            lookup = list(map(str, range(lo, hi + 1))).__getitem__
            # value - lo lies in [0, hi - lo] and fits the 64-bit type of its kind
            wide = np.int64 if column.dtype.kind == "i" else np.uint64
            return lambda block: map(lookup, np.subtract(block, lo, dtype=wide).tolist())
    return _format


def write_csv(path: Path, header: list[str], columns) -> Path:
    """Write equal-length 1-D ``columns`` (arrays or sequences) under ``header``."""
    path = Path(path)
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for {len(header)} header fields")
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):
        raise ValueError("columns differ in length")
    formatters = [_formatter(c) for c in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _ROW_BLOCK):
            cells = [f(c[start: start + _ROW_BLOCK]) for f, c in zip(formatters, columns)]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return path


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def trim_number(x: float) -> str:
    """Compact numeric tag for filenames: 2.0 -> "2", 0.5 -> "0.5"."""
    xf = float(x)
    if xf == int(xf):
        return str(int(xf))
    return repr(xf)


def stat_filename(stat: str, t: float, fc_ghz: float) -> str:
    return f"{stat}_{trim_number(t)}s_{trim_number(fc_ghz)}GHz.csv"


def curve_rows(curves):
    """Long-format rows (grid, real, imag, magnitude, kind, trials)."""
    for curve in curves:
        trials = curve.trials if curve.trials is not None else 0
        for lag, value in zip(curve.lags, curve.values):
            yield (float(lag), float(np.real(value)), float(np.imag(value)),
                   float(np.abs(value)), curve.kind, trials)


def write_manifest(outdir: Path, subcommand: str, config_dict: dict,
                   outputs: list[Path]) -> Path:
    manifest = {
        "subcommand": subcommand,
        "config": config_dict,
        "outputs": {p.name: file_sha256(p) for p in outputs},
        "format_version": 1,
        "versions": {"irs_gbsm": __version__, "numpy": np.__version__},
    }
    path = Path(outdir) / "run_manifest.json"
    with open(path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
