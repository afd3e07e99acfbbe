"""Simulated and analytical channel statistics.

Time ACF, spatial CCF, local Doppler spread, and RMS delay spread of the
small-scale channel (large-scale factors never enter the statistics).

Estimators
----------
Expectations are Monte-Carlo averages over independent cluster/scatterer
realizations; trial k of a run draws from the stream (seed, "trial", k, ...)
so results are reproducible and extending the trial count never changes
earlier trials.  "Analytical" curves evaluate the closed diagonal-ray
expressions, conditioned on the same realizations and then averaged, e.g.
for one sub-channel pair

    R(dt) = K/(K+1) * exp(j kappa (D(t) - D(t+dt)))
          + 1/(K+1) * sum_rays sqrt(P(t) P(t+dt)) exp(j kappa (d(t) - d(t+dt)))

with kappa = 2 pi (f_c - f)/c.  The full-IRS ACF combines the two
sub-channels' spatial CCF tensors over IRS element pairs (r1, r2) with the
reflection-phase factor exp(-j(theta_r1(t) - theta_r2(t + dt))), so one
ensemble serves any phase resolution.  Every correlation is normalized by
sqrt(R0(anchor1) * R0(anchor2)), making the zero-lag value exactly 1.

Per trial, the full-IRS CCF and equal-time tensors are sums over rays of
outer products across element pairs; ``_correlations`` contracts them with
BLAS (GEMM), O(N E^2 T) work for N rays, E elements and T lags, and the run
holds 8 complex E x E x T accumulators (4 without the analytical tensors).
``acf_full_irs`` refuses, before any trial, a surface whose tensors would not
fit in physical RAM.

Trials are reduced in fixed blocks of 256, summed in block order, so that
results are bit-identical whatever the worker-pool size.  Within a block,
trials are realized in chunks of 16 (``_CHUNK``): one
:func:`~irs_gbsm.clusters.realize_subchannels` call per sub-channel builds
the chunk's realizations, each from its own trial stream, and the per-trial
kernels then run on them one trial at a time.  The chunk only saves numpy
call overhead in the realization.  It is kept small because its
realizations are all alive at once: a whole 256-trial block of them
measured about 15 MB more peak RSS on the ``acf-element`` benchmark
scenario.  The field maths is not batched across trials; there the complex
exponentials over rays x lags set the cost.  Values that do not depend on a
trial's draws, the LoS phasors and the reflection phasors exp(-j theta),
are computed once per run by the statistic's setup function and passed to
the kernels.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .assembly import phase_model_for
from .clusters import ClusterRealization, realize_subchannels
from .config import ScenarioConfig, parse_config, serialize_config
from .rng import rng_stream
from .smallscale import (
    los_phasor,
    pair_field,
    ray_delays,
    ray_field,
    ray_path_rates,
    ray_powers_at,
)

_BLOCK = 256
# trials realized together; small, because a chunk's realizations live at once
_CHUNK = 16


@dataclass(frozen=True)
class CorrelationCurve:
    """One correlation statistic over a lag grid (time lag or element spacing)."""

    anchor_t: float
    anchor_f: float
    elements: tuple
    lags: np.ndarray
    values: np.ndarray
    kind: str                  # "sim" | "analytical"
    trials: int | None = None
    label: str = ""

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)


def _times(t: float, lags: np.ndarray) -> np.ndarray:
    lags = np.asarray(lags, dtype=float)
    if lags[0] != 0.0:
        raise ValueError("lag grid must start at 0")
    return t + lags


def _correlations(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CCF and equal-time tensors of stacked phasors x[n, r, t].

    ccf[r, s, t] = sum_n x[n, r, 0] conj(x[n, s, t]) and
    gram[r, s, t] = sum_n x[n, r, t] conj(x[n, s, t]), both (E, E, T).  Both
    contract over n with BLAS: one GEMM for ccf and a batched GEMM over t for
    gram, which is Hermitian in (r, s).
    """
    n, e, t = x.shape
    # contiguous operands: numpy hands matmul to BLAS only for C- or F-ordered matrices
    x0 = np.ascontiguousarray(x[:, :, 0])
    ccf = (x0.T @ np.conj(x).reshape(n, e * t)).reshape(e, e, t)
    xt = np.ascontiguousarray(x.transpose(2, 1, 0))     # (T, E, n)
    gram = np.matmul(xt, np.conj(xt).transpose(0, 2, 1)).transpose(1, 2, 0)
    return ccf, gram


def _sub_arrays(real: ClusterRealization, t, lags, f, tx_el, rx_el, sweep=None, u=None):
    """Per-realization transfer values plus analytical CCF / zero-lag tensors.

    Returns (h, ana, gram): h is (E, T); ana[r1, r2, dt] the analytical
    cross-correlation anchored at t; gram[r1, r2, s] the equal-time tensor
    used for normalization.  The LoS phasor ``u`` (see :func:`ray_field`)
    enters the contraction as one extra ray weighted sqrt(K/(K+1)), the NLoS
    rays are weighted sqrt(1/(K+1)).
    """
    bundle = ray_field(real, _times(t, lags), f, tx_el, rx_el, sweep, u)
    k = real.k_factor
    x = np.concatenate([np.sqrt(k / (k + 1.0)) * bundle.u[None],
                        np.sqrt(1.0 / (k + 1.0)) * bundle.g])
    return (bundle.transfer(), *_correlations(x))


def _pair_analytical(field: dict) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form single-pair correlation and its zero-lag anchors.

    From a :func:`pair_field` result over times t + dt:
    w_l2 u(t) u*(t+dt) + w_n2 sum_rays g(t) g*(t+dt) and, at each dt,
    w_l2 + w_n2 sum_rays P(t+dt), where w_l2 = K/(K+1) and w_n2 = 1/(K+1).
    """
    g, u = field["g"], field["u"]
    vals = (field["w_l2"] * u[0] * np.conj(u)
            + field["w_n2"] * (g[:, 0][:, None] * np.conj(g)).sum(axis=0))
    anchors = field["w_l2"] + field["w_n2"] * field["powers"].sum(axis=0)
    return vals, anchors


# ---------------------------------------------------------------------------
# per-trial kernels: each takes one trial's realizations {kind: realization}
# and the run's arguments, which a setup function builds once per run from
# the statistic's parameters.  ``realize`` names the sub-channels a trial
# draws; ``los`` holds the draw-independent LoS phasors (see ``los_phasor``).

def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # shared by every trial of the run
    return a


def _los(cfg: ScenarioConfig, kind: str, times, f: float, tx_el: int, rx_el: int,
         sweep: str | None = None) -> np.ndarray:
    return _frozen(los_phasor(cfg.links[kind], times, cfg.fc_hz, f, tx_el, rx_el, sweep))


def _setup_sub(cfg: ScenarioConfig, params: dict) -> dict:
    times = _times(params["t"], params["lags"])
    kinds = params["kinds"]
    return {**params, "times": times, "realize": tuple(dict.fromkeys(k for k, _, _ in kinds)),
            "los": [_los(cfg, kind, times, params["f"], tx, rx)[0] for kind, tx, rx in kinds]}


def _trial_sub(reals: dict, args: dict) -> dict:
    """Sub-channel ACF contributions for each configured (kind, tx, rx)."""
    out = {}
    for (kind, tx_el, rx_el), u in zip(args["kinds"], args["los"]):
        field = pair_field(reals[kind], args["times"], args["f"], tx_el, rx_el, u)
        h = field["h"]
        key = kind.lower()
        out[f"{key}_prod"] = h[0] * np.conj(h)
        out[f"{key}_pow"] = np.abs(h) ** 2
        out[f"{key}_ana"], out[f"{key}_ana0"] = _pair_analytical(field)
    return out


def _setup_cascade(cfg: ScenarioConfig, params: dict) -> dict:
    times, f = _times(params["t"], params["lags"]), params["f"]
    phasors = {label: _frozen(np.exp(-1j * theta)) for label, theta in params["theta"].items()}
    return {**params, "times": times, "realize": ("BI", "IU"), "phasors": phasors,
            "los_bi": _los(cfg, "BI", times, f, params["q"], 1, "rx"),
            "los_iu": _los(cfg, "IU", times, f, 1, params["p"], "tx")}


def _trial_cascade(reals: dict, args: dict) -> dict:
    """Full-IRS contributions: CCF tensors plus direct cascade products."""
    t, lags, f = args["t"], args["lags"], args["f"]
    q, p = args["q"], args["p"]
    bi, iu = reals["BI"], reals["IU"]
    out = {}
    if args.get("analytical", True):
        h_bi, ana_bi, gram_bi = _sub_arrays(bi, t, lags, f, q, 1, "rx", args["los_bi"])
        h_iu, ana_iu, gram_iu = _sub_arrays(iu, t, lags, f, 1, p, "tx", args["los_iu"])
        out.update({"ana_ccf_bi": ana_bi, "ana_gram_bi": gram_bi,
                    "ana_ccf_iu": ana_iu, "ana_gram_iu": gram_iu})
    else:
        times = args["times"]
        h_bi = ray_field(bi, times, f, q, 1, "rx", args["los_bi"]).transfer()
        h_iu = ray_field(iu, times, f, 1, p, "tx", args["los_iu"]).transfer()
    if args.get("tensors", True):
        out["sim_ccf_bi"], out["sim_gram_bi"] = _correlations(h_bi[None])
        out["sim_ccf_iu"], out["sim_gram_iu"] = _correlations(h_iu[None])
    for label, phasor in args["phasors"].items():
        h_part = np.sum(h_bi * h_iu * phasor, axis=0)  # (T,)
        out[f"trial_prod_{label}"] = h_part[0] * np.conj(h_part)
        out[f"trial_pow_{label}"] = np.abs(h_part) ** 2
    return out


def _setup_ccf(cfg: ScenarioConfig, params: dict) -> dict:
    kind, t = params["subchannel"], params["t"]
    times = np.array([t, t + params["dt"]])
    return {**params, "times": times, "realize": (kind,),
            "los": _los(cfg, kind, times, params["f"], 1, 1, params["axis"])}


def _trial_ccf(reals: dict, args: dict) -> dict:
    """Spatial CCF contributions across one array axis of one sub-channel."""
    real = reals[args["subchannel"]]
    bundle = ray_field(real, args["times"], args["f"], 1, 1, args["axis"], args["los"])
    w_l = real.k_factor / (real.k_factor + 1.0)
    w_n = 1.0 / (real.k_factor + 1.0)
    h = bundle.transfer()  # (E, 2)
    ana = (w_l * bundle.u[0, 0] * np.conj(bundle.u[:, 1])
           + w_n * np.einsum("n,ne->e", bundle.g[:, 0, 0], np.conj(bundle.g[:, :, 1])))
    return {
        "prod": h[0, 0] * np.conj(h[:, 1]),
        "pow_ref": np.array([np.abs(h[0, 0]) ** 2]),
        "pow": np.abs(h[:, 1]) ** 2,
        "ana": ana,
        "ana0_ref": np.array([w_l + w_n * bundle.powers[:, 0, 0].sum()]),
        "ana0": w_l + w_n * bundle.powers[:, :, 1].sum(axis=0),
    }


def doppler_frequency(bi: ClusterRealization, iu: ClusterRealization, t: float,
                      q: int = 1, r: int = 1, p: int = 1):
    """Instantaneous per-ray Doppler of the cascaded link, Hz.

    nu = -(1/lambda) d/dt [d_B_BI + d_I_BI + d_I_IU + d_U_IU], so motion that
    shortens the total path gives a positive shift.  Rays of the two
    sub-channels are paired index-wise up to the smaller visible count;
    returns (nu, power_weights).
    """
    vis_bi = np.nonzero(bi.visible_rays(q, r))[0]
    vis_iu = np.nonzero(iu.visible_rays(r, p))[0]
    m = min(vis_bi.size, vis_iu.size)
    if m == 0:
        return np.zeros(0), np.zeros(0)
    vis_bi, vis_iu = vis_bi[:m], vis_iu[:m]
    rate = (ray_path_rates(bi, q, r, t)[vis_bi]
            + ray_path_rates(iu, r, p, t)[vis_iu])
    nu = -rate / bi.wavelength
    p_bi = ray_powers_at(bi, ray_delays(bi, q, r, t), bi.visible_rays(q, r))[vis_bi, 0]
    p_iu = ray_powers_at(iu, ray_delays(iu, r, p, t), iu.visible_rays(r, p))[vis_iu, 0]
    weights = p_bi * p_iu
    weights = weights / weights.sum()
    return nu, weights


def local_doppler_spread(nu: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Power-weighted standard deviation of the instantaneous Doppler, Hz."""
    nu = np.asarray(nu, dtype=float)
    if nu.size == 0:
        raise ValueError("local Doppler spread needs at least one ray")
    if weights is None:
        weights = np.full(nu.size, 1.0 / nu.size)
    mean = float(np.dot(weights, nu))
    second = float(np.dot(weights, nu**2))
    return float(np.sqrt(max(second - mean**2, 0.0)))


def _trial_doppler(reals: dict, args: dict) -> dict:
    bi, iu = reals["BI"], reals["IU"]
    q, r, p = args["q"], args["r"], args["p"]
    spread = np.zeros(len(args["times"]))
    valid = np.zeros(len(args["times"]))
    for i, s in enumerate(args["times"]):
        nu, weights = doppler_frequency(bi, iu, s, q, r, p)
        if nu.size:  # trials whose visible ray set is empty carry no spread
            spread[i] = local_doppler_spread(nu, weights)
            valid[i] = 1.0
    return {"spread": spread, "valid": valid}


def rms_delay_spread(delays, powers) -> float:
    """sqrt(sum P tau^2 - (sum P tau)^2) for normalized tap powers."""
    delays = np.asarray(delays, dtype=float)
    powers = np.asarray(powers, dtype=float)
    if delays.size == 0:
        raise ValueError("RMS delay spread needs at least one tap")
    if abs(powers.sum() - 1.0) > 1e-6:
        raise ValueError(f"tap powers must sum to 1, got {powers.sum()}")
    mean = float(np.dot(powers, delays))
    second = float(np.dot(powers, delays**2))
    return float(np.sqrt(max(second - mean**2, 0.0)))


def _trial_ds(reals: dict, args: dict) -> dict:
    real = reals["BI"]
    if real.num_rays == 0:
        return {"trial_ds": np.array([np.nan])}  # no cluster at all: skip trial
    t = args["t"]
    visible = real.visible_rays(1, 1)
    delays = ray_delays(real, 1, 1, t)
    powers = ray_powers_at(real, delays, visible)[:, 0]
    keep = powers > 0
    if not keep.any():
        return {"trial_ds": np.array([np.nan])}
    return {"trial_ds": np.array([rms_delay_spread(delays[keep, 0], powers[keep])])}


# statistic -> (setup, per-trial kernel)
_STATS = {
    "sub": (_setup_sub, _trial_sub),
    "cascade": (_setup_cascade, _trial_cascade),
    "ccf": (_setup_ccf, _trial_ccf),
    "doppler": (lambda cfg, params: {**params, "realize": ("BI", "IU")}, _trial_doppler),
    "ds": (lambda cfg, params: {**params, "realize": ("BI",)}, _trial_ds),
}


# ---------------------------------------------------------------------------
# ensemble runner: fixed 256-trial blocks, deterministic reduction order

def _reduce(parts, join) -> dict:
    """Sum dicts of arrays in the given order; ``trial_`` keys are joined instead.

    Sums are added in place into an owned copy of each key's first value, so
    no caller's array is written and no new array is allocated per part.
    """
    acc: dict = {}
    rows: dict = {}
    for part in parts:
        for key, value in part.items():
            if key.startswith("trial_"):
                rows.setdefault(key, []).append(value)
            elif key in acc:
                acc[key] += value
            else:
                acc[key] = np.array(value, copy=True)
    acc.update((key, join(values)) for key, values in rows.items())
    return acc


def _trials(cfg: ScenarioConfig, stat: str, args: dict, seed: int, lo: int, hi: int):
    """Per-trial outputs of trials lo..hi-1, realized _CHUNK trials at a time."""
    kernel = _STATS[stat][1]
    for start in range(lo, hi, _CHUNK):
        ks = range(start, min(start + _CHUNK, hi))
        chunk = {kind: realize_subchannels(cfg, kind,
                                           [rng_stream(seed, "trial", k, kind) for k in ks])
                 for kind in args["realize"]}
        for i in range(len(ks)):
            yield kernel({kind: reals[i] for kind, reals in chunk.items()}, args)


def _block_sums(cfg: ScenarioConfig, stat: str, args: dict, seed: int,
                lo: int, hi: int) -> dict:
    return _reduce(_trials(cfg, stat, args, seed, lo, hi), np.stack)


def _block_worker(payload: dict) -> dict:
    cfg = parse_config(payload["config"])
    return _block_sums(cfg, payload["stat"], payload["args"], payload["seed"],
                       payload["lo"], payload["hi"])


def _blocks(trials: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _BLOCK, trials)) for lo in range(0, trials, _BLOCK)]


def run_ensemble(cfg: ScenarioConfig, stat: str, params: dict,
                 trials: int | None = None, seed: int | None = None,
                 threads: int = 1) -> tuple[dict, int]:
    """Accumulate per-trial outputs over the run; returns (reduced, trials).

    Keys starting with ``trial_`` stack one row per trial; all other keys sum.
    Block partials are folded in block order as they arrive, so results are
    independent of ``threads``.
    """
    trials = cfg.trials if trials is None else trials
    seed = cfg.seed if seed is None else seed
    args = _STATS[stat][0](cfg, params)
    blocks = _blocks(trials)
    if threads <= 1 or len(blocks) == 1:
        parts = (_block_sums(cfg, stat, args, seed, lo, hi) for lo, hi in blocks)
        return _reduce(parts, np.concatenate), trials
    payloads = [{"config": serialize_config(cfg), "stat": stat, "args": args,
                 "seed": seed, "lo": lo, "hi": hi} for lo, hi in blocks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return _reduce(pool.map(_block_worker, payloads), np.concatenate), trials


def _normalize(prod: np.ndarray, power: np.ndarray) -> np.ndarray:
    """prod / sqrt(power[0] * power), guarding empty-channel zeros."""
    denom = np.sqrt(power[0] * power)
    return np.divide(prod, denom, out=np.zeros_like(prod), where=denom > 0)


# ---------------------------------------------------------------------------
# public statistics

def acf_analytical_subchannel(real: ClusterRealization, t: float, lags,
                              f: float = 0.0, tx_element: int = 1,
                              rx_element: int = 1) -> CorrelationCurve:
    """Closed-form time ACF of one element pair, conditioned on a realization.

    R(dt) = K/(K+1) exp(j kappa (D(t)-D(t+dt)))
          + 1/(K+1) sum_rays sqrt(P(t) P(t+dt)) exp(j kappa (d(t)-d(t+dt))).
    """
    lags = np.asarray(lags, dtype=float)
    vals, anchors = _pair_analytical(
        pair_field(real, _times(t, lags), f, tx_element, rx_element))
    return CorrelationCurve(t, f, (tx_element, rx_element), lags,
                            _normalize(vals, anchors), "analytical", None,
                            real.subchannel)


def acf_subchannel(cfg: ScenarioConfig, subchannel: str, t: float,
                   lags: np.ndarray | None = None, f: float | None = None,
                   tx_element: int = 1, rx_element: int = 1,
                   trials: int | None = None, seed: int | None = None,
                   threads: int = 1) -> dict[str, CorrelationCurve]:
    """Simulated and analytical time ACF of one sub-channel element pair."""
    lags = cfg.lag_grid() if lags is None else np.asarray(lags, dtype=float)
    f = cfg.eval_offset_hz if f is None else f
    params = {"t": t, "lags": lags, "f": f,
              "kinds": [(subchannel, tx_element, rx_element)]}
    acc, n = run_ensemble(cfg, "sub", params, trials, seed, threads)
    key = subchannel.lower()
    elements = (tx_element, rx_element)
    sim = CorrelationCurve(t, f, elements, lags,
                           _normalize(acc[f"{key}_prod"] / n, acc[f"{key}_pow"] / n),
                           "sim", n, subchannel)
    ana = CorrelationCurve(t, f, elements, lags,
                           _normalize(acc[f"{key}_ana"] / n, acc[f"{key}_ana0"] / n),
                           "analytical", n, subchannel)
    return {"sim": sim, "analytical": ana}


def acf_single_irs_element(cfg: ScenarioConfig, t: float,
                           lags: np.ndarray | None = None, f: float | None = None,
                           q: int = 1, r: int = 1, p: int = 1,
                           bits: int | None = "config",
                           trials: int | None = None, seed: int | None = None,
                           threads: int = 1) -> dict[str, CorrelationCurve]:
    """Cascaded-channel ACF through a single IRS element r.

    Product form: R = R_BI * R_IU * exp(-j(theta_r(t) - theta_r(t + dt))),
    so the magnitude is exactly |R_BI| * |R_IU| for any phase plan.
    """
    lags = cfg.lag_grid() if lags is None else np.asarray(lags, dtype=float)
    f = cfg.eval_offset_hz if f is None else f
    params = {"t": t, "lags": lags, "f": f,
              "kinds": [("BI", q, r), ("IU", r, p)]}
    acc, n = run_ensemble(cfg, "sub", params, trials, seed, threads)
    model = phase_model_for(cfg, bits=bits)
    theta = model.applied_profile(_times(t, lags))[r - 1]
    factor = np.exp(-1j * (theta[0] - theta))
    out = {}
    for kind_label in ("sim", "ana"):
        suffix = "prod" if kind_label == "sim" else "ana"
        norm_suffix = "pow" if kind_label == "sim" else "ana0"
        r_bi = _normalize(acc[f"bi_{suffix}"] / n, acc[f"bi_{norm_suffix}"] / n)
        r_iu = _normalize(acc[f"iu_{suffix}"] / n, acc[f"iu_{norm_suffix}"] / n)
        label = "sim" if kind_label == "sim" else "analytical"
        out[label] = CorrelationCurve(t, f, (q, r, p), lags, r_bi * r_iu * factor,
                                      label, n, "cascade")
        out[f"{label}_bi"] = CorrelationCurve(t, f, (q, r), lags, r_bi, label, n, "BI")
        out[f"{label}_iu"] = CorrelationCurve(t, f, (r, p), lags, r_iu, label, n, "IU")
    return out


def _combine_full(ccf_bi, gram_bi, ccf_iu, gram_iu, theta) -> np.ndarray:
    """Double sum over IRS element pairs with the reflection-phase factors."""
    phase = np.exp(-1j * (theta[:, None, 0:1] - theta[None, :, :]))
    phase0 = np.exp(-1j * (theta[:, None, :] - theta[None, :, :]))
    r_vals = np.einsum("rst,rst,rst->t", ccf_bi, ccf_iu, phase)
    a0 = np.real(np.einsum("rst,rst,rst->t", gram_bi, gram_iu, phase0))
    return _normalize(r_vals, a0)


def _physical_ram_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_tensor_footprint(n_elements: int, n_lags: int, analytical: bool,
                            trials: int, threads: int) -> None:
    """Raise MemoryError, before any trial runs, when the tensors cannot fit.

    Each process holding tensors keeps the accumulators plus one trial's (or
    one block's) output: 2 x (8 or 4) complex E x E x T tensors.  A pooled
    run has one such process per busy worker plus the parent.
    """
    per_process = 2 * (8 if analytical else 4) * n_elements**2 * n_lags * 16
    blocks = len(_blocks(trials))
    processes = 1 if threads <= 1 or blocks == 1 else 1 + min(threads, blocks)
    need, ram = per_process * processes, _physical_ram_bytes()
    if need > ram:
        raise MemoryError(
            f"full-IRS ACF tensors need about {need / 2**30:.1f} GiB "
            f"(E={n_elements} elements, T={n_lags} lags, {processes} process(es)), "
            f"more than the {ram / 2**30:.1f} GiB of physical RAM; use fewer IRS "
            f"elements, fewer lags, analytical=False, or cascade_trial_products")


def acf_full_irs(cfg: ScenarioConfig, t: float,
                 lags: np.ndarray | None = None, f: float | None = None,
                 q: int = 1, p: int = 1,
                 bits_variants: tuple = ("config",),
                 trials: int | None = None, seed: int | None = None,
                 threads: int = 1, keep_trials: bool = False,
                 analytical: bool = True) -> dict:
    """Time ACF of the cascade over every IRS element, per phase resolution.

    One ensemble estimates the sub-channel spatial CCF tensors; each entry of
    ``bits_variants`` (None = continuous, int = quantizer bits, "config" =
    scenario setting) is then combined with its own phase factors.  Returns
    {variant_label: {"sim": curve, "analytical": curve}} plus, when
    ``keep_trials`` is set, per-trial direct products for bootstrap use.
    ``analytical=False`` skips the per-ray analytical tensors: their GEMMs,
    O(N E^2 T) per trial for N rays, are most of a large surface's cost and
    they double the accumulators.  Raises MemoryError before any trial when
    the predicted tensors exceed physical RAM.
    """
    lags = cfg.lag_grid() if lags is None else np.asarray(lags, dtype=float)
    f = cfg.eval_offset_hz if f is None else f
    times = _times(t, lags)
    thetas = {}
    for variant in bits_variants:
        bits = cfg.irs.phase_bits if variant == "config" else variant
        label = "continuous" if bits is None else f"{bits}bit"
        thetas[label] = phase_model_for(cfg, bits=bits).applied_profile(times)
    trials = cfg.trials if trials is None else trials
    _check_tensor_footprint(cfg.irs.m_x * cfg.irs.m_y, lags.size, analytical,
                            trials, threads)
    params = {"t": t, "lags": lags, "f": f, "q": q, "p": p, "theta": thetas,
              "analytical": analytical}
    acc, n = run_ensemble(cfg, "cascade", params, trials, seed, threads)

    out: dict = {}
    for label, theta in thetas.items():
        sim_vals = _combine_full(acc["sim_ccf_bi"] / n, acc["sim_gram_bi"] / n,
                                 acc["sim_ccf_iu"] / n, acc["sim_gram_iu"] / n, theta)
        out[label] = {
            "sim": CorrelationCurve(t, f, (q, p), lags, sim_vals, "sim", n, label),
        }
        if analytical:
            ana_vals = _combine_full(acc["ana_ccf_bi"] / n, acc["ana_gram_bi"] / n,
                                     acc["ana_ccf_iu"] / n, acc["ana_gram_iu"] / n,
                                     theta)
            out[label]["analytical"] = CorrelationCurve(
                t, f, (q, p), lags, ana_vals, "analytical", n, label)
        if keep_trials:
            out[label]["trial_prod"] = acc[f"trial_prod_{label}"]
            out[label]["trial_pow"] = acc[f"trial_pow_{label}"]
    return out


def cascade_trial_products(cfg: ScenarioConfig, t: float,
                           lags: np.ndarray | None = None, f: float | None = None,
                           q: int = 1, p: int = 1, bits: int | None = "config",
                           trials: int | None = None, seed: int | None = None,
                           threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial direct cascade products h(t) h*(t+dt) and powers |h|^2.

    Lean path for bootstrap probes on large surfaces: skips every CCF tensor.
    Returns (trial_prod, trial_pow) with one row per trial.
    """
    lags = cfg.lag_grid() if lags is None else np.asarray(lags, dtype=float)
    f = cfg.eval_offset_hz if f is None else f
    use_bits = cfg.irs.phase_bits if bits == "config" else bits
    label = "continuous" if use_bits is None else f"{use_bits}bit"
    theta = phase_model_for(cfg, bits=use_bits).applied_profile(_times(t, lags))
    params = {"t": t, "lags": lags, "f": f, "q": q, "p": p,
              "theta": {label: theta}, "analytical": False, "tensors": False}
    acc, _ = run_ensemble(cfg, "cascade", params, trials, seed, threads)
    return acc[f"trial_prod_{label}"], acc[f"trial_pow_{label}"]


def ccf_spatial(cfg: ScenarioConfig, t: float | None = None,
                dt: float | None = None, subchannel: str | None = None,
                axis: str | None = None, f: float | None = None,
                trials: int | None = None, seed: int | None = None,
                threads: int = 1) -> dict[str, CorrelationCurve]:
    """Spatial CCF across one array axis, element 1 against every element."""
    ccf_cfg = cfg.ccf
    subchannel = ccf_cfg["subchannel"] if subchannel is None else subchannel
    axis = ccf_cfg["axis"] if axis is None else axis
    t = ccf_cfg["t_s"] if t is None else t
    dt = ccf_cfg["dt_s"] if dt is None else dt
    f = cfg.eval_offset_hz if f is None else f
    params = {"subchannel": subchannel, "axis": axis, "t": t, "dt": dt, "f": f}
    acc, n = run_ensemble(cfg, "ccf", params, trials, seed, threads)
    side = {"BI": ("bs", "irs"), "IU": ("irs", "user"),
            "BU": ("bs", "user")}[subchannel][axis == "rx"]
    layout = {"bs": cfg.bs.layout("BS"), "user": cfg.user.layout("USER"),
              "irs": cfg.irs.layout()}[side]
    seps = layout.spacings[0] * np.arange(layout.num_elements)

    def norm(vals, ref, anchors):
        denom = np.sqrt((ref[0] / n) * (anchors / n))
        return np.divide(vals / n, denom, out=np.zeros_like(vals), where=denom > 0)

    sim_vals = norm(acc["prod"], acc["pow_ref"], acc["pow"])
    ana_vals = norm(acc["ana"], acc["ana0_ref"], acc["ana0"])
    return {
        "sim": CorrelationCurve(t, f, (subchannel, axis), seps, sim_vals, "sim", n),
        "analytical": CorrelationCurve(t, f, (subchannel, axis), seps, ana_vals,
                                       "analytical", n),
    }


def doppler_spread_series(cfg: ScenarioConfig, times: np.ndarray | None = None,
                          q: int = 1, r: int = 1, p: int = 1,
                          trials: int | None = None, seed: int | None = None,
                          threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble-mean local Doppler spread over a time grid."""
    if times is None:
        d = cfg.doppler
        times = np.linspace(d["start_s"], d["stop_s"], d["num"])
    params = {"times": np.asarray(times, dtype=float), "q": q, "r": r, "p": p}
    acc, _ = run_ensemble(cfg, "doppler", params, trials, seed, threads)
    valid = np.maximum(acc["valid"], 1.0)
    return np.asarray(times, dtype=float), acc["spread"] / valid


def ds_cdf(cfg: ScenarioConfig, sigma_scales: list[float] | None = None,
           t: float | None = None, trials: int | None = None,
           seed: int | None = None, threads: int = 1) -> dict[float, np.ndarray]:
    """Empirical RMS delay-spread samples (sorted) per scatterer-sigma scale.

    Scaling multiplies the configured sigma triple; trials reuse the same
    random streams across scales so the sweeps are paired.
    """
    if sigma_scales is None:
        sigma_scales = cfg.ds_cdf["sigma_scales"]
    t = cfg.ds_cdf["t_s"] if t is None else t
    out = {}
    for scale in sigma_scales:
        scaled = dataclasses.replace(
            cfg, clusters=dataclasses.replace(
                cfg.clusters,
                sigma_xyz_m=tuple(scale * s for s in cfg.clusters.sigma_xyz_m)))
        acc, _ = run_ensemble(scaled, "ds", {"t": t}, trials, seed, threads)
        samples = acc["trial_ds"][:, 0]
        out[scale] = np.sort(samples[~np.isnan(samples)])
    return out


def empirical_cdf(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted samples, CDF levels in (0, 1])."""
    s = np.sort(np.asarray(samples, dtype=float))
    return s, np.arange(1, s.size + 1) / s.size


def bootstrap_mean_abs(trial_prod: np.ndarray, trial_pow: np.ndarray,
                       rng: np.random.Generator, n_boot: int = 400,
                       lag_mask: np.ndarray | None = None) -> np.ndarray:
    """Bootstrap samples of mean |ACF| over a lag subset, resampling trials."""
    n = trial_prod.shape[0]
    if lag_mask is None:
        lag_mask = np.ones(trial_prod.shape[1], dtype=bool)
    out = np.empty(n_boot)
    for b in range(n_boot):
        idx = rng.integers(0, n, n)
        prod = trial_prod[idx].mean(axis=0)
        power = trial_pow[idx].mean(axis=0)
        out[b] = np.abs(_normalize(prod, power))[lag_mask].mean()
    return out
