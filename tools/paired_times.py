"""Time one command on two checkouts in alternating pairs.

    python3 tools/paired_times.py [--pairs N] BASE CHANGE -- ARG ...

Each run is ``python ARG ...`` (the interpreter that runs this tool) with
``CHECKOUT/src`` first on ``PYTHONPATH`` and its standard output discarded;
for the program's CLI the arguments are ``-m irs_gbsm.cli SUBCOMMAND
--config ... --out ...``.  Pair i runs BASE first when i is even and CHANGE
first when it is odd, so a drift of the host falls on both sides alike.

The wall time and peak RSS (``ru_maxrss``) of each child come from
``os.wait4``.  A child starts from this process's resident pages and its
``ru_maxrss`` survives ``exec``, so the tool imports the standard library
only: its own memory stays below any child's.  It prints every pair, then
each side's median and quartiles, and the pairs the change won (less time,
less memory).  The exit status is 1 when a child fails.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path


def run_once(checkout: str, args: list[str]) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of ``python ARGS`` on one checkout."""
    paths = [str(Path(checkout) / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, devnull, 1)])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(devnull)
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise RuntimeError(f"{checkout}: python {' '.join(args)} exited with {code}")
    return wall, usage.ru_maxrss / 1024   # ru_maxrss is in KiB on Linux


def _summary(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.3f} [{q1:.3f}-{q3:.3f}]"


def main(argv: list[str]) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs (>= 2)")
    parser.add_argument("base")
    parser.add_argument("change")
    opts = parser.parse_args(argv[:split])
    args = argv[split + 1:]
    if opts.pairs < 2 or not args:
        parser.error("need --pairs >= 2 and a command after --")
    sides = {"base": opts.base, "change": opts.change}
    results: dict[str, list[tuple[float, float]]] = {"base": [], "change": []}
    try:
        for i in range(opts.pairs):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                results[side].append(run_once(sides[side], args))
            (bw, bm), (cw, cm) = results["base"][-1], results["change"][-1]
            print(f"pair {i + 1}: base {bw:.3f} s {bm:.1f} MB, change {cw:.3f} s {cm:.1f} MB",
                  flush=True)
    except RuntimeError as err:
        print(err, file=sys.stderr)
        return 1
    print("side    wall_s median [quartiles]    peak_rss_mb median [quartiles]")
    for side, rows in results.items():
        walls, peaks = zip(*rows)
        print(f"{side:7} {_summary(list(walls)):28} {_summary(list(peaks))}")
    wins = [sum(c < b for (b, _), (c, _) in zip(results["base"], results["change"])),
            sum(c < b for (_, b), (_, c) in zip(results["base"], results["change"]))]
    print(f"change won: wall_s {wins[0]}/{opts.pairs}, peak_rss_mb {wins[1]}/{opts.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
