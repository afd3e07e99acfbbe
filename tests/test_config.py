import dataclasses
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from irs_gbsm.config import (
    SCHEMA,
    ClusterParams,
    ConfigError,
    DEFAULTS,
    IrsConfig,
    LargeScaleConfig,
    ScenarioConfig,
    TerminalConfig,
    _merge,
    _schema_errors,
    parse_config,
    serialize_config,
)
from irs_gbsm.rng import rng_stream, seed_sequence


class TestParsing:
    def test_defaults_only(self):
        cfg = parse_config({})
        assert cfg.seed == DEFAULTS["seed"]
        assert cfg.fc_ghz == 62.0
        half_wl = cfg.wavelength / 2
        assert cfg.bs.spacing_m == pytest.approx(half_wl)
        assert cfg.irs.spacing_x_m == pytest.approx(half_wl)

    def test_round_trip(self):
        cfg = parse_config({
            "seed": 9, "fc_ghz": 28.0, "rician_k_db": 5.0,
            "irs": {"m_x": 4, "m_y": 2, "phase_bits": 2},
            "clusters": {"birth_rate": 30.0},
        })
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_round_trip_through_json_text(self):
        cfg = parse_config({"seed": 3, "user": {"speed_mps": 4.0}})
        text = json.dumps(serialize_config(cfg))
        assert parse_config(text) == cfg

    def test_degrees_to_radians(self):
        cfg = parse_config({"bs": {"azimuth_deg": 90.0, "elevation_deg": 45.0}})
        layout = cfg.bs.layout("BS")
        assert layout.azimuths[0] == pytest.approx(math.pi / 2)
        assert layout.elevations[0] == pytest.approx(math.pi / 4)

    def test_rician_conversion(self):
        assert parse_config({}).k_linear == 0.0
        assert parse_config({"rician_k_db": 0.0}).k_linear == pytest.approx(1.0)
        assert parse_config({"rician_k_db": 10.0}).k_linear == pytest.approx(10.0)

    def test_velocity_vector(self):
        cfg = parse_config({"user": {"speed_mps": 2.0, "velocity_azimuth_deg": 90.0}})
        assert np.allclose(cfg.user.velocity(), [0.0, 2.0, 0.0], atol=1e-12)

    def test_lag_grids(self):
        log_cfg = parse_config({"acf": {"grid": "log", "lag_min_s": 1e-4,
                                        "lag_max_s": 0.1, "num_lags": 11}})
        lags = log_cfg.lag_grid()
        assert lags[0] == 0.0 and lags[1] == pytest.approx(1e-4)
        assert lags[-1] == pytest.approx(0.1)
        lin_cfg = parse_config({"acf": {"grid": "linear", "lag_max_s": 0.2,
                                        "num_lags": 5}})
        assert np.allclose(lin_cfg.lag_grid(), [0.0, 0.05, 0.1, 0.15, 0.2])

    def test_geometry_third_vector_derived(self):
        cfg = parse_config({"geometry": {"d_bi_m": [50.0, 0.0, 0.0],
                                         "d_iu_m": None,
                                         "d_bu_m": [150.0, 10.0, 0.0]}})
        scene = cfg.scene()
        assert np.allclose(scene.d_iu, [100.0, 10.0, 0.0])

    def test_schema_and_defaults_keep_their_key_order(self):
        # SCHEMA and DEFAULTS are built from one key table; their JSON text,
        # key order included, is pinned so that a reordered table fails here
        def digest(obj):
            return hashlib.sha256(json.dumps(obj).encode()).hexdigest()

        assert digest(SCHEMA) == (
            "427fa0b015b311f50c7796f0a3a0ddcaf6cdc8021097d90d1b2b136faf4a71f5")
        assert digest(DEFAULTS) == (
            "2218abd0818ffa69088c6449b61f6e13f8d1c22a286ee5ba9f629b0c5880543f")

    @pytest.mark.parametrize("section", [ScenarioConfig, TerminalConfig, IrsConfig,
                                         ClusterParams, LargeScaleConfig])
    def test_sections_declare_their_keys_without_python_defaults(self, section):
        # each field declares its key once, in its metadata; a section built
        # by hand still needs every value
        for f in dataclasses.fields(section):
            assert "key" in f.metadata, f.name
            assert f.default is dataclasses.MISSING, f.name
            assert f.default_factory is dataclasses.MISSING, f.name
        with pytest.raises(TypeError):
            section()

    def test_typed_sections_hold_no_list(self):
        cfg = parse_config({"clusters": {"sigma_xyz_m": [1.0, 2.0, 3.0]}})
        assert cfg.clusters.sigma_xyz_m == (1.0, 2.0, 3.0)
        assert serialize_config(cfg)["clusters"]["sigma_xyz_m"] == [1.0, 2.0, 3.0]
        assert isinstance(cfg.geometry["d_bi_m"], list)


class TestValidationErrors:
    def test_schema_violation_has_pointer(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"clusters": {"birth_rate": -3.0}})
        assert err.value.pointer == "/clusters/birth_rate"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"unknown_section": 1})

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"irs": {"m_x": "four"}})
        assert "/irs/m_x" == err.value.pointer

    @pytest.mark.parametrize("raw, pointer, keyword, shown", [
        ({"seed": "x"}, "/seed", "type", "'x'"),
        ({"clusters": {"birth_rate": 0}}, "/clusters/birth_rate", "exclusiveMinimum", "0"),
        ({"clusters": {"center_distance_min_m": -1}}, "/clusters/center_distance_min_m",
         "minimum", "-1"),
        ({"clusters": {"center_elevation_max_deg": 91}},
         "/clusters/center_elevation_max_deg", "maximum", "91"),
        ({"acf": {"anchors_s": []}}, "/acf/anchors_s", "minItems", "[]"),
        ({"clusters": {"sigma_xyz_m": [1, 1, 1, 1]}}, "/clusters/sigma_xyz_m",
         "maxItems", "[1, 1, 1, 1]"),
        ({"ds_cdf": {"sigma_scales": [1.0, -2.0]}}, "/ds_cdf/sigma_scales/1",
         "exclusiveMinimum", "-2.0"),
        ({"acf": {"grid": "cubic"}}, "/acf/grid", "enum", "'cubic'"),
        ({"rician_k_db": "5"}, "/rician_k_db", "anyOf", "'5'"),
        ({"bs": {"bogus": 1}}, "/bs", "additionalProperties", "'bogus'"),
    ])
    def test_message_names_value_and_keyword(self, raw, pointer, keyword, shown):
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.pointer == pointer
        assert keyword in err.value.reason and shown in err.value.reason

    def test_geometry_needs_two_vectors(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"geometry": {"d_bi_m": [1.0, 0, 0], "d_iu_m": None,
                                       "d_bu_m": None}})
        assert err.value.pointer == "/geometry"

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[1, 2]")

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def schema_leaves(schema, path=()):
    """(path, schema) of every key SCHEMA names, sections included."""
    for name, sub in schema.get("properties", {}).items():
        yield (*path, name), sub
        yield from schema_leaves(sub, (*path, name))


def candidates(schema, rng):
    """Values that probe each keyword of a key's schema, valid ones included."""
    vals = ["x", True, False, None, math.nan, math.inf, -math.inf, [], {}, {"bogus": 1},
            0, 1, -1, 0.5, 2.0, -3.0]
    for key in ("minimum", "maximum", "exclusiveMinimum"):
        if key in schema:
            b = schema[key]
            vals += [b - 1, b, b + 1, b - 0.5, b + 0.5, float(b)]
    if schema.get("type") == "array":
        item = candidates(schema["items"], rng)
        vals += [[1.0] * 2, [1.0] * 3, [1.0] * 4, [2.0, -1.0, 0.0], [1.0, "a", None],
                 [True, 1, 2], [math.nan] * 3, [rng.choice(item) for _ in range(3)]]
    vals += schema.get("enum", []) + ["LOG"] * ("enum" in schema)
    for sub in schema.get("anyOf", []):
        vals += candidates(sub, rng)
    return vals


def set_at(raw, path, value):
    for name in path[:-1]:
        if not isinstance(raw.get(name), dict):
            raw[name] = {}
        raw = raw[name]
    raw[path[-1]] = value


def mutation_corpus(n, seed=20211019):
    """``n`` seeded configs, each a base with one to three keys changed."""
    rng = random.Random(seed)
    leaves = list(schema_leaves(SCHEMA)) + [((), SCHEMA)]
    bases = [json.loads(p.read_text()) for p in CONFIGS] + [{}]
    for _ in range(n):
        raw = json.loads(json.dumps(rng.choice(bases)))
        for _ in range(rng.choice((1, 1, 2, 3))):
            path, schema = rng.choice(leaves)
            if path:
                set_at(raw, path, rng.choice(candidates(schema, rng)))
            else:
                raw["bogus"] = rng.choice(candidates({}, rng))
        yield raw


def holds_non_finite(value):
    if isinstance(value, list):
        return any(map(holds_non_finite, value))
    return isinstance(value, float) and not math.isfinite(value)


def path_of(pointer):
    return [int(p) if p.isdigit() else p for p in pointer.strip("/").split("/")]


def value_at(merged, pointer):
    for name in path_of(pointer):
        merged = merged[name]
    return merged


class TestSchemaOracle:
    """The validator against jsonschema, which reads SCHEMA as the standard says."""

    @pytest.fixture(scope="class")
    def oracle(self):
        jsonschema = pytest.importorskip("jsonschema")
        validator = jsonschema.Draft202012Validator(SCHEMA)

        def first_pointer(merged):
            errors = sorted(validator.iter_errors(merged), key=lambda e: list(e.absolute_path))
            return "/" + "/".join(map(str, errors[0].absolute_path)) if errors else None
        return first_pointer

    @staticmethod
    def pointer(raw):
        """First pointer parse_config reports for a schema error, or None."""
        if not list(_schema_errors(_merge(DEFAULTS, raw), SCHEMA)):
            return None
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        return err.value.pointer

    def test_configs_and_defaults_are_accepted(self, oracle):
        for raw in [json.loads(p.read_text()) for p in CONFIGS] + [{}]:
            assert oracle(_merge(DEFAULTS, raw)) is None
            assert self.pointer(raw) is None

    def test_mutations_give_the_oracle_first_pointer(self, oracle):
        same = rejected = floats = nonfinite = 0
        for raw in mutation_corpus(3000):
            merged = _merge(DEFAULTS, raw)
            want, got = oracle(merged), self.pointer(raw)
            rejected += got is not None
            if got == want:
                same += 1
                continue
            # the two allowed differences, values the oracle admits and this
            # validator refuses, ahead of any error the oracle reports: an
            # integral float where SCHEMA asks for an integer, and a
            # non-finite number (inside an anyOf array, the array is reported)
            value = value_at(merged, got)
            if holds_non_finite(value):
                nonfinite += 1
            else:
                assert isinstance(value, float) and value.is_integer(), (raw, want, got)
                floats += 1
            assert want is None or path_of(got) < path_of(want), (raw, want, got)
        assert same > 2500 and floats > 20 and nonfinite > 20, (same, floats, nonfinite)
        assert 1000 < rejected < 2900, rejected

    @pytest.mark.parametrize("key", [
        "trials", "seed", "acf/num_lags", "irs/m_x", "irs/phase_bits",
        "clusters/rays_per_cluster", "bs/num_elements", "time/num", "doppler/num"])
    def test_integral_float_is_refused_where_the_oracle_admits_it(self, oracle, key):
        for value, pointer in ((2.0, "/" + key), (2, None)):
            raw = {}
            set_at(raw, tuple(key.split("/")), value)
            assert oracle(_merge(DEFAULTS, raw)) is None
            assert self.pointer(raw) == pointer

    @pytest.mark.parametrize("key, value", [
        ("bs/speed_mps", math.nan), ("acf/lag_max_s", math.inf), ("fc_ghz", math.nan),
        ("clusters/birth_rate", math.nan), ("rician_k_db", -math.inf),
        ("ds_cdf/sigma_scales", [1.0, math.inf]),
        pytest.param("fc_ghz", 10**400, id="fc_ghz-10**400")])
    def test_non_finite_number_is_refused_where_the_oracle_admits_it(self, oracle, key,
                                                                    value):
        # NaN breaks no bound, and Infinity none of these; an integer past the
        # largest float breaks none either, but no float can hold it
        raw = {}
        set_at(raw, tuple(key.split("/")), value)
        assert oracle(_merge(DEFAULTS, raw)) is None
        pointer = "/" + key + ("/1" if isinstance(value, list) else "")
        assert self.pointer(raw) == pointer


class TestRngStreams:
    def test_same_path_same_sequence(self):
        a = rng_stream(7, "trial", 3, "BI").standard_normal(32)
        b = rng_stream(7, "trial", 3, "BI").standard_normal(32)
        assert np.array_equal(a, b)

    def test_different_paths_uncorrelated(self):
        n = 100_000
        a = rng_stream(7, "trial", 0).standard_normal(n)
        b = rng_stream(7, "trial", 1).standard_normal(n)
        c = rng_stream(7, "other", 0).standard_normal(n)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01
        assert abs(np.corrcoef(a, c)[0, 1]) < 0.01

    def test_trial_streams_stable_under_extension(self):
        # stream of trial k does not depend on how many trials a run has
        early = [rng_stream(5, "trial", k).integers(0, 1 << 31, 8) for k in range(3)]
        late = [rng_stream(5, "trial", k).integers(0, 1 << 31, 8) for k in range(10)]
        for k in range(3):
            assert np.array_equal(early[k], late[k])

    def test_string_and_int_tokens_distinct(self):
        a = seed_sequence(1, "2").generate_state(4)
        b = seed_sequence(1, 2).generate_state(4)
        assert not np.array_equal(a, b)

    def test_seed_matters(self):
        a = rng_stream(1, "x").standard_normal(8)
        b = rng_stream(2, "x").standard_normal(8)
        assert not np.array_equal(a, b)
