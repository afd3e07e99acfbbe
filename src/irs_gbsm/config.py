"""Scenario configuration: JSON schema, parsing, and derived geometry objects.

Configs are plain JSON with explicit unit suffixes in the key names
(``fc_ghz``, ``spacing_m``, ``azimuth_deg``, ...).  Angles are accepted in
degrees and converted to radians internally; the Rician factor is accepted
in dB (``null`` disables the LoS component entirely).  Unspecified keys fall
back to ``DEFAULTS``, so a minimal config only needs to override what an
experiment changes.  ``parse_config(serialize_config(cfg)) == cfg``.
Each key is declared once, on its field of a section dataclass
(:func:`_key`); ``SCHEMA`` and ``DEFAULTS`` are read from those fields, so a
new key is one field.

``SCHEMA`` is JSON Schema data, read by a small validator here that knows
the eleven keywords it uses: ``type``, ``properties``,
``additionalProperties`` (``false`` only), ``minimum``, ``maximum``,
``exclusiveMinimum``, ``items``, ``minItems``, ``maxItems``, ``enum`` and
``anyOf``.  An ``integer`` is an ``int``, never a ``float`` such as ``4.0``;
a ``number`` is a finite ``float`` or an ``int`` no larger in magnitude
than the largest float, never ``NaN`` or ``Infinity`` (which ``json`` reads
and no bound refuses) nor an integer such as ``10**400`` that no float can
hold; ``bool`` is neither.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any

import numpy as np

from .geometry import SPEED_OF_LIGHT, SceneGeometry, TerminalLayout
from .largescale import LargeScaleParams


class ConfigError(ValueError):
    """Configuration rejected; ``pointer`` locates the offending key."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{pointer or '/'}: {message}")
        self.pointer = pointer or "/"
        self.reason = message


_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_INT1 = {"type": "integer", "minimum": 1}
_VEC3 = {"type": "array", "items": _NUM, "minItems": 3, "maxItems": 3}
_OPT = lambda s: {"anyOf": [s, {"type": "null"}]}  # noqa: E731
_GRID = lambda num: {"start_s": (0.0, _NUM), "stop_s": (2.0, _NUM),  # noqa: E731
                     "num": (num, _INT1)}


def _key(entry, schema: dict | None = None):
    """The field of one config key, which it declares once.

    ``_key(default, schema)`` is a leaf; ``_key(Section)`` a typed section,
    whose keys are the fields of the dataclass ``Section``; ``_key({...})`` a
    dict section, a nested table whose leaves are ``(default, schema)``
    pairs.  The entry rides in the field's ``metadata``: the field keeps no
    Python default, so a section built by hand still needs every value.
    """
    return field(metadata={"key": entry if schema is None else (entry, schema)})


_rad = math.radians


@dataclass(frozen=True)
class TerminalConfig:
    num_elements: int = _key(1, _INT1)
    spacing_m: float = _key(None, _OPT(_POS))
    azimuth_deg: float = _key(0.0, _NUM)
    elevation_deg: float = _key(0.0, _NUM)
    speed_mps: float = _key(0.0, _NONNEG)
    velocity_azimuth_deg: float = _key(0.0, _NUM)

    def layout(self, kind: str) -> TerminalLayout:
        return TerminalLayout.linear(kind, self.num_elements, self.spacing_m,
                                     _rad(self.azimuth_deg), _rad(self.elevation_deg))

    def velocity(self) -> np.ndarray:
        a = _rad(self.velocity_azimuth_deg)
        return self.speed_mps * np.array([math.cos(a), math.sin(a), 0.0])


@dataclass(frozen=True)
class IrsConfig:
    m_x: int = _key(1, _INT1)
    m_y: int = _key(1, _INT1)
    spacing_x_m: float = _key(None, _OPT(_POS))
    spacing_y_m: float = _key(None, _OPT(_POS))
    azimuth_x_deg: float = _key(0.0, _NUM)
    elevation_x_deg: float = _key(0.0, _NUM)
    azimuth_y_deg: float = _key(90.0, _NUM)
    elevation_y_deg: float = _key(0.0, _NUM)
    phase_bits: int | None = _key(None, _OPT(_INT1))

    def layout(self) -> TerminalLayout:
        return TerminalLayout.planar(
            self.m_x, self.m_y, self.spacing_x_m, self.spacing_y_m,
            _rad(self.azimuth_x_deg), _rad(self.elevation_x_deg),
            _rad(self.azimuth_y_deg), _rad(self.elevation_y_deg))


@dataclass(frozen=True)
class ClusterParams:
    birth_rate: float = _key(40.0, _POS)
    death_rate: float = _key(4.0, _POS)
    correlation_factor_m: float = _key(10.0, _POS)
    evolution_rate: float | None = _key(None, _OPT(_POS))
    rays_per_cluster: int = _key(20, _INT1)
    sigma_xyz_m: tuple[float, float, float] = _key([2.0, 2.0, 1.0],
                                                   {**_VEC3, "items": _NONNEG})
    virtual_delay_mean_ns: float = _key(300.0, _NONNEG)
    power_decay_ns: float = _key(1000.0, _POS)
    center_distance_mean_m: float = _key(30.0, _POS)
    center_distance_min_m: float = _key(5.0, _NONNEG)
    center_elevation_max_deg: float = _key(30.0, {"type": "number", "minimum": 0,
                                                  "maximum": 90})
    speed_a_mps: float = _key(0.0, _NONNEG)
    velocity_azimuth_a_deg: float | None = _key(None, _OPT(_NUM))
    speed_z_mps: float = _key(0.0, _NONNEG)
    velocity_azimuth_z_deg: float | None = _key(None, _OPT(_NUM))

    @property
    def mean_count(self) -> float:
        return self.birth_rate / self.death_rate

    @property
    def chain_rate(self) -> float:
        """Rate in the survival-probability exponent (defaults to birth_rate)."""
        return self.birth_rate if self.evolution_rate is None else self.evolution_rate


@dataclass(frozen=True)
class LargeScaleConfig:
    enabled: bool = _key(False, {"type": "boolean"})
    sf_sigma_db: dict[str, float] = _key({"bi": (3.0, _NONNEG), "iu": (3.0, _NONNEG),
                                          "bu": (4.0, _NONNEG)})
    sf_mu_db: float = _key(0.0, _NUM)
    path_loss: dict[str, float] = _key({"a": (22.0, _NUM), "b": (28.0, _NUM),
                                        "c": (20.0, _NUM)})
    scenario_name: str = _key("default", {"type": "string"})

    def params(self, subchannel: str) -> LargeScaleParams:
        return LargeScaleParams(
            sf_sigma_db=self.sf_sigma_db[subchannel.lower()],
            sf_mu_db=self.sf_mu_db,
            pl_a=self.path_loss["a"], pl_b=self.path_loss["b"], pl_c=self.path_loss["c"])


@dataclass(frozen=True)
class LinkEnds:
    """The two ends of one sub-channel: references, layouts and velocities.

    ``evolved_side`` ("tx" or "rx") names the array the birth-death chain
    runs over.  The arrays are read-only, so realizations can share them.
    """

    tx_ref: np.ndarray
    rx_ref: np.ndarray
    tx_layout: TerminalLayout
    rx_layout: TerminalLayout
    v_tx: np.ndarray
    v_rx: np.ndarray
    evolved_side: str


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = _key(1, {"type": "integer", "minimum": 0})
    fc_ghz: float = _key(62.0, _POS)
    rician_k_db: float | None = _key(None, _OPT(_NUM))
    eval_offset_hz: float = _key(0.0, _NUM)
    trials: int = _key(1000, _INT1)
    geometry: dict[str, Any] = _key({
        "d_bi_m": ([100.0, 0.0, 0.0], _OPT(_VEC3)),
        "d_iu_m": ([200.0, 0.0, 0.0], _OPT(_VEC3)),
        "d_bu_m": (None, _OPT(_VEC3)),
    })
    bs: TerminalConfig = _key(TerminalConfig)
    user: TerminalConfig = _key(TerminalConfig)
    irs: IrsConfig = _key(IrsConfig)
    clusters: ClusterParams = _key(ClusterParams)
    large_scale: LargeScaleConfig = _key(LargeScaleConfig)
    time: dict[str, Any] = _key(_GRID(3))
    acf: dict[str, Any] = _key({
        "anchors_s": ([0.0, 2.0], {"type": "array", "items": _NUM, "minItems": 1}),
        "lag_max_s": (0.1, _POS),
        "lag_min_s": (1e-5, _POS),
        "num_lags": (41, {"type": "integer", "minimum": 2}),
        "grid": ("log", {"enum": ["log", "linear"]}),
    })
    ccf: dict[str, Any] = _key({
        "subchannel": ("BU", {"enum": ["BI", "IU", "BU"]}),
        "axis": ("tx", {"enum": ["tx", "rx"]}),
        "t_s": (0.0, _NUM),
        "dt_s": (0.0, _NUM),
    })
    doppler: dict[str, Any] = _key(_GRID(11))
    ds_cdf: dict[str, Any] = _key({
        "sigma_scales": ([1.0, 2.0], {"type": "array", "items": _POS, "minItems": 1}),
        "t_s": (0.0, _NUM),
    })

    @property
    def fc_hz(self) -> float:
        return self.fc_ghz * 1e9

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.fc_hz

    @property
    def k_linear(self) -> float:
        if self.rician_k_db is None:
            return 0.0
        return 10.0 ** (self.rician_k_db / 10.0)

    def scene(self) -> SceneGeometry:
        g = self.geometry
        return SceneGeometry(d_bi=g.get("d_bi_m"), d_iu=g.get("d_iu_m"), d_bu=g.get("d_bu_m"))

    @cached_property
    def links(self) -> dict[str, LinkEnds]:
        """Ends of the BI, IU and BU sub-channels, built once per config.

        The chain runs over the large-array side: the IRS for BI and IU, the
        BS for BU.
        """
        scene = self.scene()
        bs, user, irs = self.bs.layout("BS"), self.user.layout("USER"), self.irs.layout()
        origin, v_irs = np.zeros(3), np.zeros(3)
        v_bs, v_user = self.bs.velocity(), self.user.velocity()
        for v in (origin, v_irs, v_bs, v_user):
            v.flags.writeable = False
        return {
            "BI": LinkEnds(origin, scene.d_bi, bs, irs, v_bs, v_irs, "rx"),
            "IU": LinkEnds(scene.d_bi, scene.d_bu, irs, user, v_irs, v_user, "tx"),
            "BU": LinkEnds(origin, scene.d_bu, bs, user, v_bs, v_user, "tx"),
        }

    def time_grid(self) -> np.ndarray:
        t = self.time
        return np.linspace(t["start_s"], t["stop_s"], t["num"])

    def lag_grid(self) -> np.ndarray:
        """ACF lag grid starting at 0; log spacing resolves the fast early
        decay at mm-wave carriers while still covering the full window."""
        a = self.acf
        if a["grid"] == "linear":
            return np.linspace(0.0, a["lag_max_s"], a["num_lags"])
        lags = np.geomspace(a["lag_min_s"], a["lag_max_s"], a["num_lags"] - 1)
        return np.concatenate([[0.0], lags])


def _table(section: type) -> dict:
    """Key table of a section dataclass: a leaf is (default, schema), a section a dict."""
    return {f.name: _table(key) if isinstance(key := f.metadata["key"], type) else key
            for f in fields(section)}


def _split(keys: dict) -> tuple[dict, dict]:
    """(schema, defaults) of one key table, in its key order."""
    schema: dict[str, Any] = {"type": "object", "additionalProperties": False, "properties": {}}
    defaults: dict[str, Any] = {}
    for name, entry in keys.items():
        if isinstance(entry, dict):
            schema["properties"][name], defaults[name] = _split(entry)
        else:
            defaults[name], schema["properties"][name] = entry
    return schema, defaults


SCHEMA, DEFAULTS = _split(_table(ScenarioConfig))

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                         and abs(v) <= sys.float_info.max
                         or isinstance(v, float) and math.isfinite(v)),
}
# keyword -> test that the value breaks it; each applies to one JSON type only
_LIMITS = {
    "minimum": ("number", lambda v, a: v < a),
    "maximum": ("number", lambda v, a: v > a),
    "exclusiveMinimum": ("number", lambda v, a: v <= a),
    "minItems": ("array", lambda v, a: len(v) < a),
    "maxItems": ("array", lambda v, a: len(v) > a),
}


def _schema_errors(value: Any, schema: dict, path: tuple = ()):
    """Yield (path, message) for each keyword of ``schema`` that ``value`` breaks.

    Errors come in schema order, children after their parent's own keywords,
    as a JSON Schema validator reports them; an unknown keyword raises.
    """
    for key, arg in schema.items():
        if key == "type":
            if not _TYPES[arg](value):
                yield path, f"{value!r} is not of type {arg!r}"
        elif key in _LIMITS:
            kind, breaks = _LIMITS[key]
            if _TYPES[kind](value) and breaks(value, arg):
                yield path, f"{value!r} breaks {key} {arg!r}"
        elif key == "enum":
            if value not in arg:
                yield path, f"{value!r} is not in enum {arg!r}"
        elif key == "anyOf":
            if all(next(_schema_errors(value, s, path), None) for s in arg):
                yield path, f"{value!r} matches no schema of anyOf"
        elif key == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    yield from _schema_errors(item, arg, (*path, i))
        elif key == "properties":
            if isinstance(value, dict):
                for name, sub in arg.items():
                    if name in value:
                        yield from _schema_errors(value[name], sub, (*path, name))
        elif key == "additionalProperties" and arg is False:
            if isinstance(value, dict):
                extra = sorted(set(value) - set(schema.get("properties", ())), key=str)
                if extra:
                    yield path, f"unknown keys {extra} break additionalProperties false"
        else:
            raise KeyError(f"schema keyword {key!r}: {arg!r} is not supported")


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _resolved(raw: dict[str, Any]) -> dict[str, Any]:
    """Fill in wavelength-derived spacing defaults (lambda/2)."""
    out = json.loads(json.dumps(raw))  # deep copy, JSON types only
    half_wl = SPEED_OF_LIGHT / (out["fc_ghz"] * 1e9) / 2.0
    for term in ("bs", "user"):
        if out[term]["spacing_m"] is None:
            out[term]["spacing_m"] = half_wl
    for key in ("spacing_x_m", "spacing_y_m"):
        if out["irs"][key] is None:
            out["irs"][key] = half_wl
    return out


def _build(section: type, values: dict[str, Any]):
    """The section dataclass of its validated values, typed sections built in turn.

    A dict section keeps its dict; a list leaf becomes a tuple, so a frozen
    section holds no list.
    """
    kwargs = {}
    for f in fields(section):
        key, value = f.metadata["key"], values[f.name]
        if isinstance(key, type):
            value = _build(key, value)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[f.name] = value
    return section(**kwargs)


def parse_config(data: dict[str, Any] | str) -> ScenarioConfig:
    """Validate a config dict (or JSON string) and build the typed scenario.

    Raises :class:`ConfigError` with a JSON-pointer path on any violation.
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    merged = _merge(DEFAULTS, data)
    errors = sorted(_schema_errors(merged, SCHEMA), key=lambda e: e[0])
    if errors:
        path, message = errors[0]
        raise ConfigError(message, "/" + "/".join(str(p) for p in path))

    merged = _resolved(merged)
    geom = merged["geometry"]
    if sum(geom[k] is not None for k in ("d_bi_m", "d_iu_m", "d_bu_m")) < 2:
        raise ConfigError("need at least two of d_bi_m, d_iu_m, d_bu_m", "/geometry")

    try:
        cfg = _build(ScenarioConfig, merged)
        cfg.links  # builds (and so validates) the scene and every layout
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def serialize_config(cfg: ScenarioConfig) -> dict[str, Any]:
    """Plain-JSON dict such that parse_config(serialize_config(cfg)) == cfg."""
    def section(obj) -> dict:  # each section's keys in field order; tuples become lists
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    return json.loads(json.dumps(cfg, default=section))
