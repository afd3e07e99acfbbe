"""Simulated and analytical channel statistics.

Time ACF, spatial CCF, local Doppler spread, and RMS delay spread of the
small-scale channel (large-scale factors never enter the statistics).

Every statistic is a function of one config: the lags are
``cfg.lag_grid()``, the frequency offset ``cfg.eval_offset_hz``, the trial
count and seed ``cfg.trials`` and ``cfg.seed``, and the ``ccf``,
``doppler`` and ``ds_cdf`` sections set those statistics.  Element 1 carries
each fixed side of a link.  A caller varies only the anchor time t, the
phase resolutions of the full-IRS ACF, whether it forms the analytical
tensors, and the worker count; anything else is a new config
(``dataclasses.replace(cfg, trials=n)``), so a result is always the one its
config describes.

Estimators
----------
Expectations are Monte-Carlo averages over independent cluster/scatterer
realizations; trial k of a run draws from the stream (seed, "trial", k, ...)
so results are reproducible and extending the trial count never changes
earlier trials.  "Analytical" curves evaluate the closed diagonal-ray
expressions, conditioned on the same realizations and then averaged.  They
have one definition: the stacked phasors of a sub-channel
(``smallscale.stacked_phasors``),

    x[0, e, t] = sqrt(K/(K+1)) exp(j kappa D_e(t))
    x[n, e, t] = sqrt(1/(K+1)) sqrt(P_n,e(t)) exp(j kappa d_n,e(t)),  n = 1..N

with kappa = 2 pi (f_c - f)/c, and a correlation is sum_n x[n, r, t]
conj(x[n, s, t + dt]).  For one element pair that is

    R(dt) = K/(K+1) * exp(j kappa (D(t) - D(t+dt)))
          + 1/(K+1) * sum_rays sqrt(P(t) P(t+dt)) exp(j kappa (d(t) - d(t+dt))).

The taps of the rays, their blocks and the block bound belong to
``smallscale``; this module reads them only through its reductions, none of
which depends on how the blocks split, so the bound can never move an
output.  The transfer value is h = x[0] + sqrt(1/(K+1)) sum_n sqrt(P_n)
exp(j kappa d_n) vlink_n, each pair's rays added in ray order as
``simulate`` adds them.  Two contractions of x serve every statistic.
``_correlations`` forms the full E x E x T CCF and equal-time tensors from
the dense x; the full-IRS ACF combines them over IRS element pairs (r1, r2)
with the reflection-phase factor exp(-j(theta_r1(t) - theta_r2(t + dt))), so
one ensemble serves any phase resolution; a 1 x 1 surface is its E = 1 case,
R_BI R_IU exp(-j(theta(t) - theta(t + dt))).  Entry (1, 1) of a sub-channel's
tensors is that sub-channel's own ACF, R_BI or R_IU, which ``acf_full_irs``
returns as its factors.  ``_trial_sub`` forms only row 0, element 1 at t
against every element and time, for the spatial CCF.  It reads each
element's sums over its visible taps
(``smallscale.row_0_tap_sums``), so a CCF across a large array costs
O(visible taps x T) and never holds an N x E x T array.  The Doppler and
delay spreads read the taps of element pair (1, 1)
(``smallscale.element_1_taps``), over all their times at once.
The simulated curves use the same two contractions of the transfer values
h.  Every correlation is normalized by sqrt(R0(anchor1) * R0(anchor2)),
which makes the zero-lag value 1 up to rounding: the product at the anchor
and its power are formed by different operations (a complex product or a
GEMM against |h|^2 or a diagonal), so the written value may read
1.0000000000000002, with an imaginary part of order 1e-17.

Per trial, ``_correlations`` contracts with BLAS (GEMM), O(N E^2 T) work for
N rays, E elements and T lags, and the full-IRS run holds 8 complex
E x E x T accumulators (4 without the analytical tensors).  ``acf_full_irs``
refuses, before any trial, a surface whose tensors would not fit in the
available RAM, and ``ccf_spatial`` an axis whose tap blocks and
realizations would not.

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
are computed once per run, with the rest of the kernel's arguments, and
passed to every trial.  A pooled run sends each worker the config, the
kernel (a module-level function, pickled by reference) and those arguments
as they are.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from dataclasses import dataclass

import numpy as np

from .assembly import phase_model_for
from .clusters import ClusterRealization, expected_cluster_count, realize_subchannels
from .config import ScenarioConfig
from .irs import resolution_label
from .rng import rng_stream
from .smallscale import (
    element_1_taps,
    los_phasor,
    rician_weights,
    row_0_tap_sums,
    stacked_phasors,
    tap_block_bytes,
)

_BLOCK = 256
# trials realized together; small, because a chunk's realizations live at once
_CHUNK = 16
# resident bytes of a process that has imported numpy and this package, before
# any trial: 34 MB by ru_maxrss on CPython 3.11 and numpy 2.4
_PROCESS_BYTES = 36 * 2**20
# bytes per ray of a realization, held by each of a chunk's realizations: the
# ray and scatterer arrays and their transient peak while a chunk is built
_RAY_BYTES = 300


@dataclass(frozen=True)
class CorrelationCurve:
    """One correlation statistic over a lag grid (time lag or element spacing)."""

    lags: np.ndarray
    values: np.ndarray
    kind: str                  # "sim" | "analytical"
    trials: int


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


# ---------------------------------------------------------------------------
# per-trial kernels: each is a module-level function of one trial's
# realizations {kind: realization} and the run's arguments, a dict that the
# statistic builds once per run (``_sub_args``, ``_cascade_args``,
# ``_products_args``) and hands to ``run_ensemble`` with the kernel.
# ``realize`` names the sub-channels a trial draws; ``los`` holds the
# draw-independent LoS phasors (see ``los_phasor``).  Every kernel works on
# element 1 of each fixed side.

def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # shared by every trial of the run
    return a


def _los(cfg: ScenarioConfig, kind: str, times, sweep: str | None) -> np.ndarray:
    return _frozen(los_phasor(cfg.links[kind], times, cfg.fc_hz, cfg.eval_offset_hz,
                              sweep=sweep))


def _sub_args(cfg: ScenarioConfig, times, kind: str, sweep: str | None) -> dict:
    return {"times": times, "kind": kind, "sweep": sweep, "f": cfg.eval_offset_hz,
            "realize": (kind,), "los": _los(cfg, kind, times, sweep)}


def _trial_sub(reals: dict, args: dict) -> dict:
    """Row-0 correlations of one sub-channel, each (E, T).

    Element 1 at the anchor against every (swept) element and time: the
    direct products ``prod`` and powers ``pow`` of h, and the analytical
    ``ana`` and ``ana0``, row 0 of the contractions of x.  The rays enter
    through their per-pair sums (``smallscale.row_0_tap_sums``), so no N x E
    x T array forms; the products are formed once, on the whole (T, E)
    arrays.
    """
    real, u = reals[args["kind"]], args["los"]
    nlos, cross, power = row_0_tap_sums(real, args["times"], args["f"], args["sweep"])
    w_los, w_nlos = rician_weights(real.k_factor)
    x0 = w_los * u.T
    h = x0 + w_nlos * nlos
    return {key: np.ascontiguousarray(value.T) for key, value in (
        ("prod", h[:1, :1] * np.conj(h)), ("pow", np.abs(h) ** 2),
        ("ana", w_los * u[0, 0] * np.conj(x0) + cross), ("ana0", np.abs(x0) ** 2 + power.real))}


def _cascade_args(cfg: ScenarioConfig, times) -> dict:
    return {"times": times, "f": cfg.eval_offset_hz, "realize": ("BI", "IU"),
            "los_bi": _los(cfg, "BI", times, "rx"), "los_iu": _los(cfg, "IU", times, "tx")}


def _products_args(cfg: ScenarioConfig, times) -> dict:
    theta = phase_model_for(cfg).applied_profile(times)
    return {**_cascade_args(cfg, times), "phasor": _frozen(np.exp(-1j * theta))}


def _cascade_phasors(reals: dict, args: dict) -> tuple[tuple, tuple]:
    """(h, x) of BI to every IRS element and of IU from it (``stacked_phasors``)."""
    times, f = args["times"], args["f"]
    return (stacked_phasors(reals["BI"], times, f, "rx", args["los_bi"]),
            stacked_phasors(reals["IU"], times, f, "tx", args["los_iu"]))


def _trial_cascade(reals: dict, args: dict) -> dict:
    """Full-IRS CCF and equal-time tensors of both sub-channels, each (E, E, T).

    The sim tensors contract the transfer values; with ``analytical`` the
    stacked phasors give the analytical tensors as well.
    """
    (h_bi, x_bi), (h_iu, x_iu) = _cascade_phasors(reals, args)
    out = {}
    if args["analytical"]:
        out["ana_ccf_bi"], out["ana_gram_bi"] = _correlations(x_bi)
        out["ana_ccf_iu"], out["ana_gram_iu"] = _correlations(x_iu)
    out["sim_ccf_bi"], out["sim_gram_bi"] = _correlations(h_bi[None])
    out["sim_ccf_iu"], out["sim_gram_iu"] = _correlations(h_iu[None])
    return out


def _trial_products(reals: dict, args: dict) -> dict:
    """Direct cascade product h(t) h*(t + dt) and power |h(t + dt)|^2, each (T,)."""
    (h_bi, _), (h_iu, _) = _cascade_phasors(reals, args)
    h = np.sum(h_bi * h_iu * args["phasor"], axis=0)
    return {"trial_prod": h[0] * np.conj(h), "trial_pow": np.abs(h) ** 2}


def doppler_frequency(bi: ClusterRealization, iu: ClusterRealization, t):
    """Instantaneous per-ray Doppler of the cascaded link through element 1, Hz.

    nu = -(1/lambda) d/dt [d_B_BI + d_I_BI + d_I_IU + d_U_IU], so motion that
    shortens the total path gives a positive shift.  BS, IRS and USER element
    1 carry the link.  Rays of the two sub-channels are paired index-wise up
    to the smaller visible count; returns (nu, power_weights).  ``t`` is a
    time or an array of times: nu and the weights have its shape followed by
    the ray pairs, whose count does not depend on t (visibility does not).
    Each sub-channel's taps come from one tap-kernel call over all the times.
    """
    (ray_bi, _, p_bi, rate_bi), (ray_iu, _, p_iu, rate_iu) = (
        element_1_taps(real, t) for real in (bi, iu))
    m = min(ray_bi.size, ray_iu.size)
    nu = -(rate_bi[:, :m] + rate_iu[:, :m]) / bi.wavelength
    weights = p_bi[:, :m] * p_iu[:, :m]
    weights = weights / weights.sum(axis=-1, keepdims=True)
    return nu.reshape(np.shape(t) + (m,)), weights.reshape(np.shape(t) + (m,))


def _weighted_spread(weights: np.ndarray, x: np.ndarray) -> float:
    """sqrt(sum w (x - mean)^2), mean = sum w x, for weights w that sum to 1.

    The centred form: sum w x^2 - mean^2 cancels when the mean is many spreads
    (a delay spread of ns at a mean delay of us).
    """
    mean = np.dot(weights, x)
    return float(np.sqrt(np.dot(weights, (x - mean) ** 2)))


def local_doppler_spread(nu: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Power-weighted standard deviation of the instantaneous Doppler, Hz."""
    nu = np.asarray(nu, dtype=float)
    if nu.size == 0:
        raise ValueError("local Doppler spread needs at least one ray")
    if weights is None:
        weights = np.full(nu.size, 1.0 / nu.size)
    return _weighted_spread(weights, nu)


def _trial_doppler(reals: dict, args: dict) -> dict:
    nu, weights = doppler_frequency(reals["BI"], reals["IU"], args["times"])
    # a trial without a visible ray pair has none at any time, and carries no spread
    spread = [local_doppler_spread(*row) if nu.shape[1] else 0.0 for row in zip(nu, weights)]
    return {"spread": np.array(spread), "valid": np.full(nu.shape[0], float(nu.shape[1] > 0))}


def rms_delay_spread(delays, powers) -> float:
    """sqrt(sum P (tau - mean)^2), mean = sum P tau, for normalized tap powers."""
    delays = np.asarray(delays, dtype=float)
    powers = np.asarray(powers, dtype=float)
    if delays.size == 0:
        raise ValueError("RMS delay spread needs at least one tap")
    if abs(powers.sum() - 1.0) > 1e-6:
        raise ValueError(f"tap powers must sum to 1, got {powers.sum()}")
    return _weighted_spread(powers, delays)


def _trial_ds(reals: dict, args: dict) -> dict:
    _, (delays,), (powers,), _ = element_1_taps(reals["BI"], args["t"])
    keep = powers > 0
    if not keep.any():   # no visible ray, or no cluster at all: skip the trial
        return {"trial_ds": np.array([np.nan])}
    return {"trial_ds": np.array([rms_delay_spread(delays[keep], powers[keep])])}


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


def _trials(cfg: ScenarioConfig, kernel, args: dict, lo: int, hi: int):
    """Per-trial outputs of trials lo..hi-1, realized _CHUNK trials at a time."""
    for start in range(lo, hi, _CHUNK):
        ks = range(start, min(start + _CHUNK, hi))
        chunk = {kind: realize_subchannels(cfg, kind,
                                           [rng_stream(cfg.seed, "trial", k, kind) for k in ks])
                 for kind in args["realize"]}
        for i in range(len(ks)):
            yield kernel({kind: reals[i] for kind, reals in chunk.items()}, args)


def _block_sums(cfg: ScenarioConfig, kernel, args: dict, block: tuple[int, int]) -> dict:
    return _reduce(_trials(cfg, kernel, args, *block), np.stack)


def _blocks(trials: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _BLOCK, trials)) for lo in range(0, trials, _BLOCK)]


def _workers(trials: int, threads: int) -> int:
    """Trial processes of a run: ``threads`` (at least 1), never more than its blocks.

    One means that the caller runs every block itself and starts no pool.
    """
    return min(max(threads, 1), len(_blocks(trials)))


def run_ensemble(cfg: ScenarioConfig, kernel, args: dict,
                 threads: int = 1) -> tuple[dict, int]:
    """Accumulate ``kernel(reals, args)`` over cfg.trials trials; returns (reduced, trials).

    ``kernel`` is a module-level per-trial kernel and ``args`` its arguments,
    built once per run.  Trial k draws from the streams (cfg.seed, "trial",
    k, kind) of each kind in ``args["realize"]``.  Keys starting with
    ``trial_`` stack one row per trial; all other keys sum.  Block partials
    are folded in block order as they arrive, so results are independent of
    ``threads``.
    """
    sums = functools.partial(_block_sums, cfg, kernel, args)
    workers = _workers(cfg.trials, threads)
    if workers <= 1:
        return _reduce(map(sums, _blocks(cfg.trials)), np.concatenate), cfg.trials
    # imported here, so a run that does not pool never loads multiprocessing;
    # the executor forks all max_workers at once, so it gets no more than blocks
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _reduce(pool.map(sums, _blocks(cfg.trials)), np.concatenate), cfg.trials


def _normalize(prod: np.ndarray, anchor, power: np.ndarray) -> np.ndarray:
    """prod / sqrt(anchor * power), guarding empty-channel zeros."""
    denom = np.sqrt(anchor * power)
    return np.divide(prod, denom, out=np.zeros_like(prod), where=denom > 0)


# ---------------------------------------------------------------------------
# public statistics: each reads its scenario, lags, frequency offset, trial
# count and seed from the config; callers vary only what is listed

def _combine_full(ccf_bi, gram_bi, ccf_iu, gram_iu, theta) -> np.ndarray:
    """Double sum over IRS element pairs with the reflection-phase factors."""
    phase = np.exp(-1j * (theta[:, None, 0:1] - theta[None, :, :]))
    phase0 = np.exp(-1j * (theta[:, None, :] - theta[None, :, :]))
    r_vals = np.einsum("rst,rst,rst->t", ccf_bi, ccf_iu, phase)
    a0 = np.real(np.einsum("rst,rst,rst->t", gram_bi, gram_iu, phase0))
    return _normalize(r_vals, a0[0], a0)


_MEMINFO = "/proc/meminfo"


def _available_ram_bytes() -> int:
    """RAM the kernel can give a new process without swapping, in bytes.

    ``MemAvailable`` of ``/proc/meminfo``: on a shared host that is what the
    run can count on, which may be far below the physical RAM.  Where that
    file or field is missing, the physical RAM.
    """
    try:
        with open(_MEMINFO) as fh:
            return next(int(line.split()[1]) * 1024 for line in fh
                        if line.startswith("MemAvailable:"))
    except (OSError, StopIteration):
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(per_process: int, parent: int, trials: int, threads: int,
                  what: str, remedies: str) -> None:
    """Raise MemoryError, before any trial runs, when a run cannot fit in RAM.

    Each process that runs trials holds ``per_process`` bytes: the caller
    alone, or every busy worker of a pooled run, whose parent then holds
    ``parent`` bytes more while it folds the blocks.  The sum is checked
    against the RAM that is available now.
    """
    workers = _workers(trials, threads)
    need = per_process * workers + (parent if workers > 1 else 0)
    ram = _available_ram_bytes()
    if need > ram:
        raise MemoryError(
            f"{what} need about {need / 2**30:.1f} GiB ({workers} trial process(es)), "
            f"more than the {ram / 2**30:.1f} GiB of available RAM; {remedies}")


def _check_tensor_footprint(n_elements: int, n_lags: int, analytical: bool,
                            trials: int, threads: int) -> None:
    """Refuse a full-IRS ACF whose tensors cannot fit in RAM.

    Each process holding tensors keeps the accumulators plus one trial's (or
    one block's) output: 2 x (8 or 4) complex E x E x T tensors.  A pooled
    run has one such process per busy worker plus the parent.
    """
    per_process = 2 * (8 if analytical else 4) * n_elements**2 * n_lags * 16
    _check_memory(
        per_process, per_process, trials, threads,
        f"full-IRS ACF tensors (E={n_elements} elements, T={n_lags} lags)",
        "in the config, lower irs.m_x and irs.m_y or acf.num_lags, or run with a smaller "
        "--threads (each worker process holds its own tensors); in the library, use "
        "fewer IRS elements, fewer lags, analytical=False, or cascade_trial_products")


def acf_full_irs(cfg: ScenarioConfig, t: float, bits_variants: tuple | None = None,
                 threads: int = 1, analytical: bool = True) -> dict:
    """Time ACF of the cascade over every IRS element, per phase resolution.

    One ensemble estimates the sub-channel spatial CCF tensors of BS and
    USER element 1 on ``cfg.lag_grid()``; each entry of ``bits_variants``
    (None = continuous, int = quantizer bits) is then combined with its own
    phase factors.  ``bits_variants=None`` runs the configured resolution
    only.  Returns {variant_label: {"sim": curve, "analytical": curve,
    "factors": {"BI": {"sim": curve, "analytical": curve}, "IU": {...}}}}.
    The factors are the time ACFs of element pair (1, 1) of BI and IU, entry
    (1, 1) of the same accumulators, normalized alone; they do not depend on
    the phase resolution, so every variant holds the same objects.
    ``analytical=False`` skips the per-ray analytical tensors (and the
    analytical factors): their GEMMs, O(N E^2 T) per trial for N rays, are
    most of a large surface's cost and they double the accumulators.  Raises
    MemoryError before any trial when the predicted tensors exceed the
    available RAM.
    """
    if bits_variants is None:
        bits_variants = (cfg.irs.phase_bits,)
    lags = cfg.lag_grid()
    times = t + lags
    model = phase_model_for(cfg)
    thetas = {resolution_label(bits): dataclasses.replace(model, bits=bits)
              .applied_profile(times) for bits in bits_variants}
    _check_tensor_footprint(cfg.irs.m_x * cfg.irs.m_y, lags.size, analytical,
                            cfg.trials, threads)
    args = {**_cascade_args(cfg, times), "analytical": analytical}
    acc, n = run_ensemble(cfg, _trial_cascade, args, threads)

    prefixes = {"sim": "sim", "analytical": "ana"} if analytical else {"sim": "sim"}
    # entry (1, 1) of a sub-channel's tensors is its own element-pair (1, 1) ACF
    factors: dict = {"BI": {}, "IU": {}}
    for sub in factors:
        for kind, p in prefixes.items():
            power = acc[f"{p}_gram_{sub.lower()}"][0, 0].real / n
            factors[sub][kind] = CorrelationCurve(lags, _normalize(
                acc[f"{p}_ccf_{sub.lower()}"][0, 0] / n, power[0], power), kind, n)
    out: dict = {}
    for label, theta in thetas.items():
        out[label] = {kind: CorrelationCurve(lags, _combine_full(
            *(acc[f"{p}_{key}"] / n for key in ("ccf_bi", "gram_bi", "ccf_iu", "gram_iu")),
            theta), kind, n) for kind, p in prefixes.items()}
        out[label]["factors"] = factors
    return out


def cascade_trial_products(cfg: ScenarioConfig, t: float,
                           threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial direct cascade products h(t) h*(t+dt) and powers |h|^2.

    Lean path for bootstrap probes on large surfaces: skips every CCF tensor.
    The cascade runs from BS element 1 to USER element 1 at the configured
    phase resolution, on ``cfg.lag_grid()``.  Returns (trial_prod,
    trial_pow) with one row per trial, in trial order.
    """
    acc, _ = run_ensemble(cfg, _trial_products, _products_args(cfg, t + cfg.lag_grid()),
                          threads)
    return acc["trial_prod"], acc["trial_pow"]


def ccf_spatial(cfg: ScenarioConfig, threads: int = 1) -> dict[str, CorrelationCurve]:
    """Spatial CCF across one array axis, element 1 at t against every element at t + dt.

    The ``ccf`` section of the config names the sub-channel, the swept axis,
    t and dt.  The grid is each element's distance |l_e - l_1| from element 1.
    Raises MemoryError before any trial when the predicted peak exceeds the
    available RAM.  Each trial process holds one block of the row-0 kernel
    (``smallscale.tap_block_bytes``), at lambda_B / lambda_D clusters' rays
    visible to each pair; a chunk's realizations, ``_RAY_BYTES`` per ray of
    the expected ray count of the sub-channel's chain
    (:func:`~irs_gbsm.clusters.expected_cluster_count`); and the interpreter
    itself, ``_PROCESS_BYTES``, which is also all that a pool's parent holds.
    """
    c = cfg.ccf
    subchannel, axis, t = c["subchannel"], c["axis"], c["t_s"]
    times = t + np.array([0.0, c["dt_s"]])
    link = cfg.links[subchannel]
    swept = link.rx_layout if axis == "rx" else link.tx_layout
    evolved = link.tx_layout if link.evolved_side == "tx" else link.rx_layout
    rays = expected_cluster_count(evolved, cfg.clusters) * cfg.clusters.rays_per_cluster
    taps = cfg.clusters.mean_count * cfg.clusters.rays_per_cluster   # visible at each pair
    e, n_t = swept.num_elements, times.size
    per_process = (tap_block_bytes(taps, e, n_t)
                   + _RAY_BYTES * rays * min(_CHUNK, cfg.trials) + _PROCESS_BYTES)
    _check_memory(
        int(per_process), _PROCESS_BYTES, cfg.trials, threads,
        f"spatial CCF fields (about {rays:.0f} rays, {taps:.0f} visible at each of E={e} "
        f"elements, T={n_t} times)",
        "in the config, lower irs.m_x and irs.m_y (or the swept array's num_elements), "
        "or run with a smaller --threads (each worker process forms its own fields)")
    acc, n = run_ensemble(cfg, _trial_sub, _sub_args(cfg, times, subchannel, axis), threads)
    seps = np.linalg.norm(swept.offsets - swept.offsets[0], axis=1)
    # rows are elements, columns the times t and t + dt: element 1 at t is the anchor
    return {kind: CorrelationCurve(seps, _normalize(
        acc[prod][:, 1] / n, acc[power][0, 0] / n, acc[power][:, 1] / n), kind, n)
        for kind, prod, power in (("sim", "prod", "pow"), ("analytical", "ana", "ana0"))}


def doppler_spread_series(cfg: ScenarioConfig, threads: int = 1
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ensemble-mean local Doppler spread over the ``doppler`` time grid.

    Returns (times, spread, counts): counts[i] is the number of trials with
    a visible ray pair at times[i], the trials that spread[i] averages (0
    where none has, and the spread is 0).  The count is the same at every
    time: the rays visible to element pair (1, 1) do not depend on t.
    """
    d = cfg.doppler
    times = np.linspace(d["start_s"], d["stop_s"], d["num"])
    acc, _ = run_ensemble(cfg, _trial_doppler, {"times": times, "realize": ("BI", "IU")},
                          threads)
    return times, acc["spread"] / np.maximum(acc["valid"], 1.0), acc["valid"].astype(int)


def ds_cdf(cfg: ScenarioConfig, threads: int = 1) -> dict[float, np.ndarray]:
    """Empirical RMS delay-spread samples (sorted) per scatterer-sigma scale.

    The ``ds_cdf`` section of the config lists the scales and the time.
    Scaling multiplies the configured sigma triple; trials reuse the same
    random streams across scales so the sweeps are paired.
    """
    out = {}
    for scale in cfg.ds_cdf["sigma_scales"]:
        scaled = dataclasses.replace(
            cfg, clusters=dataclasses.replace(
                cfg.clusters,
                sigma_xyz_m=tuple(scale * s for s in cfg.clusters.sigma_xyz_m)))
        acc, _ = run_ensemble(scaled, _trial_ds, {"t": cfg.ds_cdf["t_s"], "realize": ("BI",)},
                              threads)
        samples = acc["trial_ds"][:, 0]
        out[scale] = np.sort(samples[~np.isnan(samples)])
    return out


def empirical_cdf(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted samples, CDF levels in (0, 1])."""
    s = np.sort(np.asarray(samples, dtype=float))
    return s, np.arange(1, s.size + 1) / s.size
