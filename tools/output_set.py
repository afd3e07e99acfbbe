"""Run the fixed set of 44 CLI runs whose output bytes a change is checked against.

    python3 tools/output_set.py OUTDIR [--threads N]

Each run is ``python -m irs_gbsm.cli SUBCOMMAND --config SCENARIO --out
OUTDIR/RUN --threads N`` (N defaults to 1), with this checkout's ``src/``
first on ``PYTHONPATH``; the scenario files live in a temporary directory.
The runs:

- all seven subcommands on ``SMALL`` (the scenario of ``tests/test_cli.py``)
  and on ``configs/acf_62ghz.json``, ``acf_quantized_4x4.json``,
  ``doppler_sweep.json`` and ``ds_cdf_sweep.json``, each at 16 trials;
- ``cluster-evolve`` and ``link-budget`` on
  ``configs/cluster_evolution_128.json``;
- ``simulate`` on the benchmark's 8x8 export scenario (``acf_62ghz.json``
  with an 8x8 IRS, 2-element BS and USER arrays and three times) at seeds
  1-3, without LoS and at K = 5 dB;
- ``simulate`` on ``SMALL`` with large-scale fading enabled.

Two sets, say of two checkouts, compare with ``tools/compare_outputs.py A B``
(every CSV, column by column) and by each run's ``run_manifest.json`` (config
echo and output hashes).  It prints one line per run and then the runs and
CSV files written; the exit status is 1 when a run fails.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("simulate", "acf", "ccf", "doppler", "ds-cdf", "cluster-evolve", "link-budget")
CONFIGS = ("acf_62ghz", "acf_quantized_4x4", "doppler_sweep", "ds_cdf_sweep")
# the benchmark's simulate-export step, over acf_62ghz.json
EXPORT = {"irs": {"m_x": 8, "m_y": 8}, "bs": {"num_elements": 2},
          "user": {"num_elements": 2}, "time": {"start_s": 0.0, "stop_s": 2.0, "num": 3}}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _config(name: str) -> dict:
    return json.loads((ROOT / "configs" / f"{name}.json").read_text())


def _small() -> dict:
    """``SMALL`` of tests/test_cli.py, read without importing the test module."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "SMALL" for target in node.targets))


def runs() -> list[tuple[str, str, dict]]:
    """(name, subcommand, scenario) of every run, in the order they run."""
    small = _small()
    bases = {"small": small, **{name: _config(name) for name in CONFIGS}}
    out = [(f"{base}-{sub}", sub, _merge(raw, {"trials": 16}))
           for base, raw in bases.items() for sub in SUBCOMMANDS]
    evolution = _config("cluster_evolution_128")
    out += [(f"cluster_evolution_128-{sub}", sub, evolution)
            for sub in ("cluster-evolve", "link-budget")]
    export = _merge(_config("acf_62ghz"), EXPORT)
    out += [(f"export_8x8-seed{seed}-k_{label}", "simulate",
             _merge(export, {"seed": seed, "rician_k_db": k_db}))
            for seed in (1, 2, 3) for label, k_db in (("null", None), ("5db", 5.0))]
    out.append(("small-large_scale-simulate", "simulate",
                _merge(small, {"large_scale": {"enabled": True}})))
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, sub, scenario in runs():
            config = Path(tmp) / f"{name}.json"
            config.write_text(json.dumps(scenario))
            code = subprocess.run(
                [sys.executable, "-m", "irs_gbsm.cli", sub, "--config", str(config),
                 "--out", str(args.outdir / name), "--threads", str(args.threads)],
                env=env).returncode
            failed += code != 0
            print(f"{name}: {'ok' if code == 0 else f'exited with {code}'}", flush=True)
    csvs = sum(1 for _ in args.outdir.rglob("*.csv"))
    print(f"{len(runs())} runs, {csvs} CSV files, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
