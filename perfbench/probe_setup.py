"""Set-up probe: time the CLI's imports plus ``parse_config`` of each scenario.

    PYTHONPATH=src python3 perfbench/probe_setup.py scenario.json [more.json ...]

Prints the elapsed seconds.  Run in a fresh interpreter each time, so the
imports are paid again, as every CLI run pays them.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import json  # noqa: E402

import irs_gbsm.cli  # noqa: E402,F401  (imports every module the CLI uses)
from irs_gbsm.config import parse_config  # noqa: E402

for path in sys.argv[1:]:
    with open(path) as fh:
        parse_config(json.load(fh))
print(repr(perf_counter() - t0))
