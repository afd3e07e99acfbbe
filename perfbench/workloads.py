"""Benchmark workloads: scenario JSON built from ``configs/`` and the run seed.

Each step is one ``irs-gbsm`` subcommand on a scenario derived from a
committed config; a workload runs one or more steps back to back.  The run
seed becomes the scenario seed, so the program only ever sees generated
inputs.  The two export steps have no Monte-Carlo ensemble to average over, so their output size follows a handful of
Poisson draws and would swing by 10-20 % from seed to seed; for those the
scenario seed is the first of a fixed candidate list derived from the run
seed whose realization has the stated row count (within a tolerance), and
the same realization gives the expected CSV row counts that the run
checks.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    """One step: a CLI subcommand on a scenario derived from a config."""
    name: str
    subcommand: str
    base: str                     # config file under configs/
    overrides: dict               # merged over the base config
    smoke: dict                   # merged on top for the tiny smoke mode
    nominal_rows: dict | None = None  # stated CSV rows per file (sized steps)
    tolerance: float = 0.0            # accepted relative distance, for every file
    max_candidates: int = 0           # scenario seeds tried per run seed
    active_layers: tuple = field(default=())  # layers the traced run must see


STEPS = {
    w.name: w for w in (
        Workload(
            "acf-element", "acf", "acf_62ghz.json",
            {"trials": 1024, "acf": {"anchors_s": [0.0]}},
            {"trials": 8},
            active_layers=("clusters.realize_subchannel", "smallscale.pair_field",
                           "stats.run_ensemble", "output.write_csv")),
        Workload(
            "acf-surface", "acf", "acf_quantized_4x4.json",
            {"trials": 512, "irs": {"m_x": 5, "m_y": 5}, "acf": {"num_lags": 11}},
            {"trials": 8, "irs": {"m_x": 2, "m_y": 2}},
            active_layers=("clusters.realize_subchannel", "smallscale.ray_field",
                           "stats.run_ensemble", "stats.acf_full_irs",
                           "output.write_csv")),
        Workload(
            "simulate-export", "simulate", "acf_62ghz.json",
            {"irs": {"m_x": 8, "m_y": 8}, "bs": {"num_elements": 2},
             "user": {"num_elements": 2}, "time": {"start_s": 0.0, "stop_s": 2.0, "num": 3}},
            {"irs": {"m_x": 2, "m_y": 2}},
            nominal_rows={"cir_bi.csv": 38_000, "cir_iu.csv": 38_000},
            tolerance=0.05, max_candidates=256,
            active_layers=("clusters.realize_subchannel", "smallscale.cir_rows",
                           "assembly.cascade", "output.write_csv")),
        Workload(
            "evolve-128", "cluster-evolve", "cluster_evolution_128.json",
            {},
            {"irs": {"m_x": 16, "m_y": 16}},
            nominal_rows={"cluster_visibility.csv": 320_000},
            tolerance=0.025, max_candidates=16,
            active_layers=("clusters.evolve_visibility",
                           "clusters.VisibilityTensor.rows", "output.write_csv")),
    )
}

# The two export steps share one workload: each is a single realization of a
# few seconds whose time swings by tens of percent from run to run on a shared
# 2-vCPU host, so a round of both, measured over a longer run, is steadier
# than either alone.
WORKLOADS: dict[str, tuple[Workload, ...]] = {
    "acf-element": (STEPS["acf-element"],),
    "acf-surface": (STEPS["acf-surface"],),
    "export": (STEPS["simulate-export"], STEPS["evolve-128"]),
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def import_program():
    """The irs_gbsm package of this checkout (from src/, not installed)."""
    import sys
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import irs_gbsm
    return irs_gbsm


def _expected_rows(w: Workload, raw: dict) -> dict[str, int]:
    """CSV data rows per output file, from the realization the CLI will draw.

    ``simulate`` writes one LoS row plus one row per visible ray for every
    (time, tx, rx) triple; visibility depends only on the element of the
    array the birth-death chain ran over, and every visible cluster
    contributes ``rays_per_cluster`` rays.  ``cluster-evolve`` writes one
    row per visible (element, cluster) entry.
    """
    pkg = import_program()
    from irs_gbsm.clusters import evolve_visibility, realize_subchannel
    cfg = pkg.parse_config(raw)
    if w.subcommand == "cluster-evolve":
        vis = evolve_visibility(cfg.irs.layout(), cfg.clusters,
                                pkg.rng_stream(cfg.seed, "evolve", 0))
        return {"cluster_visibility.csv": int(vis.grid.sum())}
    n_times = cfg.time["num"]
    rpc = cfg.clusters.rays_per_cluster
    rows = {}
    for kind in ("BI", "IU", "BU"):
        real = realize_subchannel(cfg, kind, pkg.rng_stream(cfg.seed, "trial", 0, kind))
        other = (real.rx_layout if real.evolved_side == "tx" else real.tx_layout).num_elements
        per_element = 1 + rpc * real.visibility.matrix.sum(axis=1)
        rows[f"cir_{kind.lower()}.csv"] = int(n_times * other * per_element.sum())
    m_b, m_u = cfg.bs.num_elements, cfg.user.num_elements
    rows["channel_matrix.csv"] = n_times * m_b * m_u
    rows["phase_plan.csv"] = cfg.irs.m_x * cfg.irs.m_y
    return rows


def scenario(w: Workload, seed: int, smoke: bool = False) -> tuple[dict, dict[str, int]]:
    """Scenario dict for a run seed, and the expected rows per output file.

    The expected rows are only known (and checked) for sized steps.
    """
    raw = json.loads((CONFIGS / w.base).read_text())
    raw = _merge(raw, w.overrides)
    if smoke:
        raw = _merge(raw, w.smoke)
    if w.nominal_rows is None:
        raw["seed"] = seed
        return raw, {}
    best = None
    for i in range(w.max_candidates):
        raw["seed"] = seed * w.max_candidates + i
        rows = _expected_rows(w, raw)
        if smoke:
            return raw, rows
        distance = max(abs(rows[name] / want - 1.0) for name, want in w.nominal_rows.items())
        if best is None or distance < best[0]:
            best = (distance, raw["seed"], rows)
        if distance <= w.tolerance:
            break
    raw["seed"] = best[1]
    return raw, best[2]


def input_properties(w: Workload, raw: dict) -> dict:
    """Input facts that fix the shape of the work (printed with every run)."""
    cfg = import_program().parse_config(raw)
    props = {
        "subcommand": w.subcommand,
        "E": cfg.irs.m_x * cfg.irs.m_y,
        "rays_per_cluster": cfg.clusters.rays_per_cluster,
        "mean_clusters": cfg.clusters.mean_count,
        "scenario_seed": cfg.seed,
    }
    if w.subcommand == "acf":
        props.update(trials=cfg.trials, lags=cfg.acf["num_lags"],
                     anchors=len(cfg.acf["anchors_s"]))
    if w.nominal_rows is not None:
        props["nominal_rows"] = w.nominal_rows
    return props


def trials_of(w: Workload, raw: dict) -> int:
    """Monte-Carlo trials one CLI run completes (one realization without an ensemble)."""
    if w.subcommand != "acf":
        return 1
    return raw["trials"] * len(raw["acf"]["anchors_s"])


# ---------------------------------------------------------------------------
# output checks


def verify_manifest(outdir: Path) -> tuple[list[str], dict[str, str]]:
    """Recompute the SHA-256 of every output named in the run manifest.

    Returns (failures, {file name: manifest hash}).
    """
    path = outdir / "run_manifest.json"
    if not path.is_file():
        return [f"{path.name} missing"], {}
    hashes = json.loads(path.read_text())["outputs"]
    failures = []
    for name, digest in hashes.items():
        h = hashlib.sha256()
        with open(outdir / name, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        if h.hexdigest() != digest:
            failures.append(f"{name}: hash differs from the manifest")
    if not hashes:
        failures.append("manifest lists no outputs")
    return failures, hashes


def csv_rows(path: Path) -> int:
    """Data rows of a CSV file (lines after the header)."""
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1


def acf_curves(path: Path) -> dict[str, list[complex]]:
    """{kind: values over the lag grid} from one ACF CSV."""
    curves: dict[str, list[complex]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            curves.setdefault(row["kind"], []).append(
                complex(float(row["real"]), float(row["imag"])))
    return curves


def check_outputs(w: Workload, outdir: Path, expected_rows: dict[str, int]) -> tuple[list[str], dict]:
    """Workload-specific checks on one run's outputs; returns (failures, facts).

    facts: ``rows`` (CSV data rows written) and, for ACF runs, ``acf_gap``
    (largest |sim - analytical| over lags and files).
    """
    failures = []
    manifest = json.loads((outdir / "run_manifest.json").read_text())
    names = sorted(manifest["outputs"])
    rows = {name: csv_rows(outdir / name) for name in names}
    facts: dict = {"rows": sum(rows.values())}
    for name, want in expected_rows.items():
        if rows.get(name) != want:
            failures.append(f"{name}: {rows.get(name)} rows, expected {want}")
    if w.subcommand == "acf":
        gap = 0.0
        for name in names:
            curves = acf_curves(outdir / name)
            sim, ana = curves.get("sim", []), curves.get("analytical", [])
            if not sim or len(sim) != len(ana):
                failures.append(f"{name}: sim/analytical curves missing or unequal")
                continue
            for kind, values in (("sim", sim), ("analytical", ana)):
                if abs(values[0] - 1.0) > 1e-9:
                    failures.append(f"{name}: zero-lag {kind} ACF is {values[0]}, not 1")
            gap = max(gap, max(abs(s - a) for s, a in zip(sim, ana)))
        if not math.isfinite(gap):
            failures.append(f"acf_gap is not finite: {gap}")
        facts["acf_gap"] = gap
    return failures, facts
