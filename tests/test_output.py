import math

import numpy as np
import pytest

from irs_gbsm import output
from irs_gbsm.output import write_csv


def reference_fmt(value) -> str:
    """The per-value formatter the row-wise writer used."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def reference_write(path, header, rows):
    """The row-wise writer the column writer replaces (oracle)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(reference_fmt(v) for v in row) + "\n")


HEADER = ["flag", "i64", "pyint", "u8", "f64", "f32", "mixed", "label"]
COLUMNS = [
    np.array([True, False, True, True, False, False]),
    np.array([0, -1, 7, 2**62, -(2**63), 12], dtype=np.int64),
    [0, 1, -5, 2**70, 3, -1],
    np.array([0, 1, 2, 3, 254, 255], dtype=np.uint8),
    np.array([-0.0, 5e-324, 1e-300, math.nan, math.inf, 0.1 + 0.2]),
    np.array([0.1, -2.5, 1e-30, 3.0, -math.inf, 65504.0], dtype=np.float32),
    [1, 2.5, np.float64(-0.0), True, np.int32(4), "x"],
    ["sim", "analytical", "a b", "", "é", "sim"],
]


@pytest.mark.parametrize("block", [65536, 4, 1])
def test_columns_match_the_row_writer(tmp_path, monkeypatch, block):
    monkeypatch.setattr(output, "_ROW_BLOCK", block)
    write_csv(tmp_path / "cols.csv", HEADER, COLUMNS)
    reference_write(tmp_path / "rows.csv", HEADER, zip(*COLUMNS))
    got = (tmp_path / "cols.csv").read_bytes()
    assert got == (tmp_path / "rows.csv").read_bytes()
    assert got.count(b"\n") == 1 + 6


def test_header_only(tmp_path):
    empty = [np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64), [], np.zeros(0)]
    header = ["a", "b", "c", "d"]
    write_csv(tmp_path / "cols.csv", header, empty)
    reference_write(tmp_path / "rows.csv", header, [])
    assert (tmp_path / "cols.csv").read_bytes() == b"a,b,c,d\n"
    assert (tmp_path / "rows.csv").read_bytes() == b"a,b,c,d\n"


def test_rejects_ragged_or_miscounted_columns(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "x.csv", ["a", "b"], [np.zeros(2), np.zeros(3)])
    with pytest.raises(ValueError, match="header"):
        write_csv(tmp_path / "x.csv", ["a", "b"], [np.zeros(2)])


def oracle_columns(n):
    """Integer and boolean columns of ``n`` rows, one of each formatter path."""
    rng = np.random.default_rng(n)
    return {
        "cluster": rng.integers(-1, 40, n),  # LoS rows hold -1
        "u16": rng.integers(3, 900, n).astype(np.uint16),
        "u64": (2**64 - 1 - rng.integers(0, 50, n, dtype=np.uint64)).astype(np.uint64),
        "i8": rng.integers(-100, 121, n).astype(np.int8),  # value - min overflows int8
        "flag": rng.random(n) < 0.3,
        "on": np.ones(n, dtype=bool),
        "constant": np.full(n, 7),
        "wide": rng.integers(-(2**40), 2**40, n),  # span wider than the column
        "f64": rng.random(n),
    }


@pytest.mark.parametrize("n", [0, 1, 3, 2 * output._ROW_BLOCK + 5])
def test_every_cell_is_fmt_of_its_value(tmp_path, monkeypatch, n):
    columns = oracle_columns(n)
    built = []
    formatter = output._formatter
    monkeypatch.setattr(output, "_formatter", lambda c: built.append(c) or formatter(c))
    write_csv(tmp_path / "x.csv", list(columns), list(columns.values()))
    assert len(built) == len(columns)  # one formatter per column, however many blocks
    lines = (tmp_path / "x.csv").read_text().splitlines()
    assert lines[0] == ",".join(columns) and len(lines) == 1 + n
    cells = list(zip(*(line.split(",") for line in lines[1:]))) or [()] * len(columns)
    for (name, column), got in zip(columns.items(), cells):
        assert list(got) == [output.fmt(v) for v in column], name


@pytest.mark.parametrize("span", [6000, 1_000_000])
def test_no_whole_column_temporary(tmp_path, span):
    # a 1M-row int64 column is 8 MB: its value - min, its tolist() or its
    # strings built whole would each exceed the bound; a table over the whole
    # of a 1M-wide span would too
    import tracemalloc

    column = np.random.default_rng(span).permutation(1_000_000) % span
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", ["id"], [column])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert (tmp_path / "big.csv").stat().st_size > 1e6
