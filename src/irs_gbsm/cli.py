"""Command-line experiment runner.

    irs-gbsm <subcommand> --config scenario.json --out outdir [--threads N] [--seed S]

Subcommands: simulate, acf, ccf, doppler, ds-cdf, cluster-evolve,
link-budget.  Every run writes CSV outputs plus ``run_manifest.json`` (config
echo and content hashes); identical config + seed reproduce identical bytes.
Exit codes: 0 success, 2 config error, 3 runtime error.  Set ``IRS_GBSM_LOG``
to a logging level name for diagnostics.
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import stats
from .assembly import cascade, large_scale_factors, phase_model_for
from .clusters import evolve_visibility, realize_subchannel
from .config import ConfigError, ScenarioConfig, parse_config, serialize_config
from .irs import (cascaded_path_loss, optimal_phase, quantize_phase, received_power,
                  resolution_label)
from .largescale import db_to_linear, path_loss_bu_db
from .output import curve_rows, stat_filename, write_csv, write_manifest
from .rng import rng_stream
from .smallscale import CIR_HEADER, cir_row_count, subchannel_taps

log = logging.getLogger("irs_gbsm")

_CURVE_HEADER = ["real", "imag", "magnitude", "kind", "trials"]
# upper bound on one CIR CSV line: four floats of at most 24 characters
# (repr), five integers of at most 10, eight commas and the newline
_CIR_ROW_BYTES = 4 * 24 + 5 * 10 + 8 + 1


def _curve_columns(curves):
    return list(zip(*curve_rows(curves)))


def _run_acf(cfg: ScenarioConfig, outdir: Path, threads: int) -> list[Path]:
    outputs = []
    # at one element |ACF| does not depend on the quantizer (criterion 04), so a
    # 1x1 surface writes one file, at the configured resolution
    bits = cfg.irs.phase_bits
    single = bits is None or cfg.irs.m_x * cfg.irs.m_y == 1
    variants = (bits,) if single else (None, bits)
    for t in cfg.acf["anchors_s"]:
        results = stats.acf_full_irs(cfg, t, bits_variants=variants, threads=threads)
        multi = len(results) > 1
        for label, pair in results.items():
            stat = f"acf_{label}" if multi else "acf"
            path = outdir / stat_filename(stat, t, cfg.fc_ghz)
            outputs.append(write_csv(
                path, ["dt_s", *_CURVE_HEADER],
                _curve_columns([pair["sim"], pair["analytical"]])))
    return outputs


def _run_ccf(cfg: ScenarioConfig, outdir: Path, threads: int) -> list[Path]:
    curves = stats.ccf_spatial(cfg, threads=threads)
    path = outdir / stat_filename("ccf", cfg.ccf["t_s"], cfg.fc_ghz)
    return [write_csv(path, ["separation_m", *_CURVE_HEADER],
                      _curve_columns([curves["sim"], curves["analytical"]]))]


def _run_doppler(cfg: ScenarioConfig, outdir: Path, threads: int) -> list[Path]:
    times, spread, counts = stats.doppler_spread_series(cfg, threads=threads)
    path = outdir / stat_filename("doppler", times[0], cfg.fc_ghz)
    n = spread.size
    # trials: per time, the count of trials the mean averages
    return [write_csv(path, ["t_s", *_CURVE_HEADER],
                      [times, spread, np.zeros(n), spread, ["sim"] * n, counts])]


def _run_ds_cdf(cfg: ScenarioConfig, outdir: Path, threads: int) -> list[Path]:
    samples = stats.ds_cdf(cfg, threads=threads)
    outputs = []
    t = cfg.ds_cdf["t_s"]
    for scale, values in samples.items():
        xs, levels = stats.empirical_cdf(values)
        xs, levels = np.asarray(xs, dtype=float), np.asarray(levels, dtype=float)
        n = xs.size
        path = outdir / stat_filename(f"ds_cdf_sigma{scale:g}", t, cfg.fc_ghz)
        outputs.append(write_csv(
            path, ["ds_s", *_CURVE_HEADER],
            [xs, levels, np.zeros(n), levels, ["sim"] * n, np.full(n, n)]))
    return outputs


def _run_cluster_evolve(cfg: ScenarioConfig, outdir: Path, threads: int) -> list[Path]:
    del threads
    tensor = evolve_visibility(cfg.irs.layout(), cfg.clusters,
                               rng_stream(cfg.seed, "evolve", 0))
    path = outdir / "cluster_visibility.csv"
    out = write_csv(path, ["x", "y", "cluster_id", "visible"], tensor.columns())
    log.info("mean visible clusters per element: %.3f", tensor.mean_visible())
    return [out]


def _run_link_budget(cfg: ScenarioConfig, outdir: Path, threads: int) -> list[Path]:
    del threads
    layout = cfg.irs.layout()
    r_t, r_r = phase_model_for(cfg).legs(0.0)
    wl = cfg.wavelength
    phases = optimal_phase(r_t, r_r, wl)
    p_t = 1.0
    pl_biu = cascaded_path_loss(layout, r_t, r_r, wl)
    pl_bu_db = path_loss_bu_db(float(np.linalg.norm(cfg.scene().d_bu)) / 1e3, cfg.fc_ghz,
                               cfg.large_scale.params("bu"))
    rows = [
        ("fc_ghz", cfg.fc_ghz),
        ("wavelength_m", wl),
        ("tx_power_w", p_t),
        ("received_power_w_continuous", received_power(p_t, layout, r_t, r_r, phases, wl)),
        ("received_power_w_2bit",
         received_power(p_t, layout, r_t, r_r, quantize_phase(phases, 2), wl)),
        ("cascaded_path_gain", pl_biu),
        ("cascaded_path_gain_db", 10.0 * np.log10(pl_biu)),
        ("direct_path_loss_db", pl_bu_db),
        ("direct_path_gain", db_to_linear(pl_bu_db)),
    ]
    path = outdir / "link_budget.csv"
    return [write_csv(path, ["quantity", "value"], list(zip(*rows)))]


def _check_disk(outdir: Path, rows: int) -> None:
    """Stop before writing when the CIR rows may not fit on the output disk."""
    need = rows * _CIR_ROW_BYTES
    free = shutil.disk_usage(outdir).free
    if need > free:
        raise OSError(errno.ENOSPC,
                      f"simulate would write {rows} CIR rows, up to {need} bytes, "
                      f"but {outdir} has {free} bytes free; use a smaller IRS "
                      f"or fewer times")


def _run_simulate(cfg: ScenarioConfig, outdir: Path, threads: int) -> list[Path]:
    del threads
    times = cfg.time_grid()
    outputs = []
    reals = {kind: realize_subchannel(cfg, kind, rng_stream(cfg.seed, "trial", 0, kind))
             for kind in ("BI", "IU", "BU")}
    _check_disk(outdir, sum(cir_row_count(r, times.size) for r in reals.values()))
    matrices = {}
    for kind, real in reals.items():
        # one tap pass writes the CIR file and sums the transfer matrix; the
        # columns go before the next sub-channel's are formed
        columns, matrices[kind] = subchannel_taps(real, times, cfg.eval_offset_hz)
        outputs.append(write_csv(outdir / f"cir_{kind.lower()}.csv", CIR_HEADER, columns))
        del columns

    model = phase_model_for(cfg)
    ls = None
    if cfg.large_scale.enabled:
        ls = large_scale_factors(cfg, rng_stream(cfg.seed, "large_scale"))
    h = cascade(matrices, model.applied_profile(times), large_scale=ls)   # (T, M_U, M_B)
    i_t, p, q = (index.ravel() for index in np.indices(h.shape))   # rows in C order
    h, n = h.ravel(), h.size
    outputs.append(write_csv(
        outdir / "channel_matrix.csv", ["t", "f", "q", "p", "re", "im", "phase_resolution"],
        [times[i_t], [cfg.eval_offset_hz] * n, q + 1, p + 1, h.real, h.imag,
         [resolution_label(model.bits)] * n]))
    outputs.append(write_csv(
        outdir / "phase_plan.csv",
        ["r", "x", "y", "phase_rad", "quantized_phase_rad"],
        list(zip(*model.plan(float(times[0])).rows()))))
    return outputs


_SUBCOMMANDS = {
    "simulate": _run_simulate,
    "acf": _run_acf,
    "ccf": _run_ccf,
    "doppler": _run_doppler,
    "ds-cdf": _run_ds_cdf,
    "cluster-evolve": _run_cluster_evolve,
    "link-budget": _run_link_budget,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irs-gbsm",
        description="IRS-assisted non-stationary GBSM channel simulator")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path,
                       help="scenario JSON file")
        p.add_argument("--out", required=True, type=Path,
                       help="output directory (created if missing)")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="worker pool size (results are thread-count independent)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("IRS_GBSM_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)
    try:
        raw = json.loads(Path(args.config).read_text())
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg = parse_config(raw)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        outputs = _SUBCOMMANDS[args.subcommand](cfg, outdir, args.threads)
        manifest = write_manifest(outdir, args.subcommand, serialize_config(cfg), outputs)
        log.info("wrote %d outputs and %s", len(outputs), manifest)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - report and map to exit code
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
