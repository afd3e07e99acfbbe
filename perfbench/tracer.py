"""In-process span tracer for the per-layer run.

The program carries no tracing code.  The tracer replaces each traced
function with a timing wrapper at every place the name is looked up
(``stats``, ``cli`` and ``assembly`` bind names with ``from ... import``),
runs the CLI in this process, and restores the originals afterwards.

A span is (id, name, parent, start, end, busy, items).  ``busy`` is the
time spent inside the function; for a plain call it equals end - start.
Generators (``cir_rows``, ``VisibilityTensor.rows``, ``curve_rows``) do no
work when called, so their span covers iteration: ``busy`` sums the time
spent inside ``next()`` and ``items`` counts what was yielded.  The parent
of a generator span is the span that first iterates it, so the time
``write_csv`` spends pulling rows from a generator is charged to the
generator, not to ``write_csv``'s self time.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from dataclasses import dataclass
from time import perf_counter

# span name -> places the function is looked up: (module[:class], attribute)
TARGETS = {
    "config.parse_config": (("irs_gbsm.cli", "parse_config"),),
    "rng.rng_stream": (("irs_gbsm.stats", "rng_stream"), ("irs_gbsm.cli", "rng_stream")),
    "clusters.realize_subchannel": (("irs_gbsm.stats", "realize_subchannel"),
                                    ("irs_gbsm.cli", "realize_subchannel")),
    "clusters.evolve_visibility": (("irs_gbsm.clusters", "evolve_visibility"),
                                   ("irs_gbsm.cli", "evolve_visibility")),
    "clusters.generate_cluster_pairs": (("irs_gbsm.clusters", "generate_cluster_pairs"),),
    "smallscale.pair_field": (("irs_gbsm.stats", "pair_field"),),
    "smallscale.ray_field": (("irs_gbsm.stats", "ray_field"),
                             ("irs_gbsm.smallscale", "ray_field")),
    "stats.run_ensemble": (("irs_gbsm.stats", "run_ensemble"),),
    "stats.acf_full_irs": (("irs_gbsm.stats", "acf_full_irs"),),
    "assembly.cascade": (("irs_gbsm.cli", "cascade"),),
    "output.write_csv": (("irs_gbsm.cli", "write_csv"),),
    "output.write_manifest": (("irs_gbsm.cli", "write_manifest"),),
}
GENERATORS = {
    "smallscale.cir_rows": (("irs_gbsm.cli", "cir_rows"),),
    "output.curve_rows": (("irs_gbsm.cli", "curve_rows"),),
    "clusters.VisibilityTensor.rows": (("irs_gbsm.clusters:VisibilityTensor", "rows"),),
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    busy: float = 0.0
    items: int = 0
    info: object = None


def _owner(where: str):
    module, _, attr = where.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


class Tracer:
    """Collects spans while installed; ``with Tracer() as tr: ...``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name: str, start: float) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, start)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span and return (result, span)."""
        span = self._open(name, perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            span.busy = span.end - span.start
            self._stack.pop()
        return result, span

    def _iterate(self, name: str, it):
        span = None
        try:
            while True:
                t0 = perf_counter()
                if span is None:
                    span = self._open(name, t0)
                else:
                    self._stack.append(span)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    span.end = perf_counter()
                    span.busy += span.end - t0
                    self._stack.pop()
                span.items += 1
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    # -- patching ---------------------------------------------------------
    def _wrap_call(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, span = self.call(name, fn, *args, **kwargs)
            span.info = _count(name, result)
            return result
        return wrapper

    def _wrap_gen(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._iterate(name, iter(fn(*args, **kwargs)))
        return wrapper

    def __enter__(self) -> Tracer:
        originals: dict[str, object] = {}
        for table, wrap in ((TARGETS, self._wrap_call), (GENERATORS, self._wrap_gen)):
            for name, places in table.items():
                for where, attr in places:
                    owner = _owner(where)
                    current = getattr(owner, attr, None)
                    if current is None:
                        continue  # renamed or removed: the layer reports zero calls
                    original = originals.setdefault(name, current)
                    self._patched.append((owner, attr, current))
                    setattr(owner, attr, wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _count(name: str, result):
    """Work counts read off a layer's result (cheap: shapes and masks)."""
    if name == "smallscale.pair_field":
        return result["g"].shape[0] * result["g"].shape[1]
    if name == "smallscale.ray_field":
        n, e, t = result.g.shape
        return n * e * t, int(result.visible.sum()), n * e
    if name == "clusters.realize_subchannel":
        return sum(c.num_rays for c in result.clusters)
    if name == "stats.run_ensemble":
        acc, _ = result
        return sum(v.nbytes for k, v in acc.items() if not k.startswith("trial_"))
    if name == "output.write_csv":
        return result
    return None


# ---------------------------------------------------------------------------
# per-layer metrics


def _self_times(spans: list[Span]) -> dict[int, float]:
    child_busy: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_busy[s.parent] = child_busy.get(s.parent, 0.0) + s.busy
    return {s.id: s.busy - child_busy.get(s.id, 0.0) for s in spans}


def _pct(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[Span], root: Span, file_facts: dict[str, tuple[int, int]]) -> dict:
    """Per-layer values of one traced run (see ``map.json`` for definitions).

    ``file_facts`` maps each written CSV path to (rows, bytes).
    """
    wall = root.busy
    own = _self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.busy for s in by_name.get(name, ()))

    def self_total(name):
        return sum(own[s.id] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def durations_us(name):
        return [s.busy * 1e6 for s in by_name.get(name, ())]

    def infos(name):
        return [s.info for s in by_name.get(name, ())]

    m: dict[str, float] = {}

    def timed(name, seconds, self_s=None):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = seconds
        if self_s is not None:
            m[f"{name}.self_s"] = self_s
        m[f"{name}.share"] = seconds / wall

    timed("config.parse_config", total("config.parse_config"))
    timed("rng.rng_stream", total("rng.rng_stream"))
    timed("clusters.realize_subchannel", total("clusters.realize_subchannel"),
          self_total("clusters.realize_subchannel"))
    m["clusters.realize_subchannel.p50_us"] = _pct(durations_us("clusters.realize_subchannel"), 50)
    m["clusters.realize_subchannel.p99_us"] = _pct(durations_us("clusters.realize_subchannel"), 99)
    timed("clusters.generate_cluster_pairs", total("clusters.generate_cluster_pairs"))
    timed("clusters.evolve_visibility", total("clusters.evolve_visibility"))
    rays = infos("clusters.realize_subchannel")
    m["clusters.rays_mean"] = sum(rays) / len(rays) if rays else 0.0
    m["clusters.rays_max"] = max(rays, default=0)
    m["clusters.empty_realizations"] = sum(1 for r in rays if r == 0)

    timed("smallscale.pair_field", total("smallscale.pair_field"))
    m["smallscale.pair_field.p50_us"] = _pct(durations_us("smallscale.pair_field"), 50)
    m["smallscale.pair_field.p99_us"] = _pct(durations_us("smallscale.pair_field"), 99)
    evals = sum(infos("smallscale.pair_field"))
    m["smallscale.pair_field.ray_lag_evals"] = evals
    m["smallscale.pair_field.ns_per_ray_lag"] = (
        total("smallscale.pair_field") * 1e9 / evals if evals else 0.0)

    timed("smallscale.ray_field", total("smallscale.ray_field"))
    fields = infos("smallscale.ray_field")
    evals = sum(f[0] for f in fields)
    pairs = sum(f[2] for f in fields)
    m["smallscale.ray_field.ray_elem_lag_evals"] = evals
    m["smallscale.ray_field.ns_per_eval"] = (
        total("smallscale.ray_field") * 1e9 / evals if evals else 0.0)
    m["smallscale.ray_field.visible_ratio"] = (
        sum(f[1] for f in fields) / pairs if pairs else 0.0)

    timed("smallscale.cir_rows", total("smallscale.cir_rows"))
    m["smallscale.cir_rows.taps"] = sum(s.items for s in by_name.get("smallscale.cir_rows", ()))
    timed("clusters.VisibilityTensor.rows", total("clusters.VisibilityTensor.rows"))
    timed("output.curve_rows", total("output.curve_rows"))

    timed("stats.run_ensemble", total("stats.run_ensemble"))
    m["stats.ensemble.self_s"] = self_total("stats.run_ensemble")
    m["stats.ensemble.share"] = m["stats.ensemble.self_s"] / wall
    m["stats.acf_full_irs.combine_s"] = self_total("stats.acf_full_irs")
    m["stats.acf_full_irs.share"] = m["stats.acf_full_irs.combine_s"] / wall
    m["stats.tensor_bytes"] = max(infos("stats.run_ensemble"), default=0)

    timed("assembly.cascade", total("assembly.cascade"))

    write_self = self_total("output.write_csv")
    m["output.write_csv.calls"] = calls("output.write_csv")
    m["output.write_csv.self_s"] = write_self
    m["output.write_csv.share"] = write_self / wall
    facts = [file_facts[str(p)] for p in infos("output.write_csv")]
    m["output.write_csv.rows"] = sum(f[0] for f in facts)
    m["output.write_csv.bytes"] = sum(f[1] for f in facts)
    m["output.write_csv.mb_per_s"] = (
        m["output.write_csv.bytes"] / 1e6 / write_self if write_self > 0 else 0.0)
    timed("output.write_manifest", total("output.write_manifest"))
    m["trace.wall_s"] = wall
    return m
