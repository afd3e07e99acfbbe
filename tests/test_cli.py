import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import irs_gbsm
from irs_gbsm import cli, smallscale, stats
from irs_gbsm.cli import main
from irs_gbsm.clusters import realize_subchannel
from irs_gbsm.config import parse_config
from irs_gbsm.irs import cascaded_path_loss, optimal_phase, received_power
from irs_gbsm.output import file_sha256
from irs_gbsm.rng import rng_stream
from irs_gbsm.smallscale import cir_row_count, subchannel_taps
from tests.cir_oracle import weighted_taps

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SMALL = {
    "seed": 77,
    "fc_ghz": 62.0,
    "trials": 40,
    "rician_k_db": 5.0,
    "geometry": {"d_bi_m": [100.0, 0.0, 0.0], "d_iu_m": [200.0, 0.0, 0.0]},
    "bs": {"speed_mps": 10.0},
    "user": {"speed_mps": 10.0, "velocity_azimuth_deg": 90.0},
    "irs": {"m_x": 2, "m_y": 2, "phase_bits": 2},
    "clusters": {"birth_rate": 12.0, "rays_per_cluster": 5,
                 "speed_a_mps": 5.0, "speed_z_mps": 5.0},
    "acf": {"anchors_s": [0.0], "num_lags": 9},
    "time": {"start_s": 0.0, "stop_s": 1.0, "num": 2},
    "doppler": {"start_s": 0.0, "stop_s": 1.0, "num": 3},
    "ds_cdf": {"sigma_scales": [1.0], "t_s": 0.0},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SMALL))
    return path


def run(sub, config_path, out, *extra):
    return main([sub, "--config", str(config_path), "--out", str(out),
                 "--threads", "1", *extra])


def manifest(outdir):
    return json.loads((Path(outdir) / "run_manifest.json").read_text())


class TestSubcommands:
    def test_acf_outputs(self, config_path, tmp_path):
        out = tmp_path / "acf"
        assert run("acf", config_path, out) == 0
        files = sorted(p.name for p in out.glob("*.csv"))
        assert files == ["acf_2bit_0s_62GHz.csv", "acf_continuous_0s_62GHz.csv"]
        header = (out / files[0]).read_text().splitlines()[0]
        assert header == "dt_s,real,imag,magnitude,kind,trials"
        body = (out / files[0]).read_text().splitlines()[1:]
        kinds = {line.split(",")[4] for line in body}
        assert kinds == {"sim", "analytical"}

    def test_acf_single_element_file_name(self, config_path, tmp_path):
        cfg = dict(SMALL, irs={"m_x": 1, "m_y": 1})
        p = tmp_path / "single.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "acf1"
        assert run("acf", p, out) == 0
        assert (out / "acf_0s_62GHz.csv").exists()

    def test_ccf(self, config_path, tmp_path):
        out = tmp_path / "ccf"
        assert run("ccf", config_path, out) == 0
        assert (out / "ccf_0s_62GHz.csv").exists()

    def test_doppler(self, config_path, tmp_path):
        out = tmp_path / "dop"
        assert run("doppler", config_path, out) == 0
        lines = (out / "doppler_0s_62GHz.csv").read_text().splitlines()
        assert len(lines) == 1 + 3
        # each row counts the trials its mean averages, not the configured 40
        _, _, counts = stats.doppler_spread_series(parse_config(SMALL))
        assert [int(line.split(",")[-1]) for line in lines[1:]] == counts.tolist()
        assert counts.tolist() == [36, 36, 36]

    def test_ds_cdf(self, config_path, tmp_path):
        out = tmp_path / "ds"
        assert run("ds-cdf", config_path, out) == 0
        lines = (out / "ds_cdf_sigma1_0s_62GHz.csv").read_text().splitlines()
        levels = [float(l.split(",")[1]) for l in lines[1:]]
        assert levels == sorted(levels) and levels[-1] == 1.0

    def test_cluster_evolve(self, config_path, tmp_path):
        out = tmp_path / "ev"
        assert run("cluster-evolve", config_path, out) == 0
        lines = (out / "cluster_visibility.csv").read_text().splitlines()
        assert lines[0] == "x,y,cluster_id,visible"
        assert all(line.endswith(",1") for line in lines[1:])

    def test_link_budget_values(self, config_path, tmp_path):
        out = tmp_path / "lb"
        assert run("link-budget", config_path, out) == 0
        rows = dict(line.split(",") for line in
                    (out / "link_budget.csv").read_text().splitlines()[1:])
        cfg = parse_config(SMALL)
        scene = cfg.scene()
        layout = cfg.irs.layout()
        l_r = layout.offsets
        r_t = np.linalg.norm(scene.d_bi + l_r, axis=1)
        r_r = np.linalg.norm(scene.d_iu - l_r, axis=1)
        phases = optimal_phase(r_t, r_r, cfg.wavelength)
        expect_pr = received_power(1.0, layout, r_t, r_r, phases, cfg.wavelength)
        expect_pl = cascaded_path_loss(layout, r_t, r_r, cfg.wavelength)
        assert float(rows["received_power_w_continuous"]) == pytest.approx(
            expect_pr, rel=1e-12, abs=0)
        assert float(rows["cascaded_path_gain"]) == pytest.approx(expect_pl, rel=1e-12,
                                                                  abs=0)
        assert float(rows["received_power_w_2bit"]) <= expect_pr * (1 + 1e-9)

    def test_simulate(self, config_path, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", config_path, out) == 0
        for name in ("cir_bi.csv", "cir_iu.csv", "cir_bu.csv",
                     "channel_matrix.csv", "phase_plan.csv"):
            assert (out / name).exists()
        header = (out / "cir_bi.csv").read_text().splitlines()[0]
        assert header == "t,tx,rx,cluster,ray,delay_s,amplitude,phase_rad,is_los"
        matrix_header = (out / "channel_matrix.csv").read_text().splitlines()[0]
        assert matrix_header == "t,f,q,p,re,im,phase_resolution"
        plan_lines = (out / "phase_plan.csv").read_text().splitlines()
        assert plan_lines[0] == "r,x,y,phase_rad,quantized_phase_rad"
        assert len(plan_lines) == 1 + 4


class TestExportColumns:
    """The column-wise exports against the per-tap objects and pinned bytes."""

    @staticmethod
    def oracle_rows(real, times):
        rows = []
        for t in times:
            for tx in range(1, real.tx_layout.num_elements + 1):
                for rx in range(1, real.rx_layout.num_elements + 1):
                    for tap in weighted_taps(real, float(t), tx, rx):
                        rows.append(repr((
                            float(t), tx, rx, int(tap.cluster_id), int(tap.ray_id),
                            float(tap.delay), float(tap.amplitude), float(tap.phase),
                            bool(tap.is_los))))
        return rows

    @pytest.mark.parametrize("over", [
        {},
        {"rician_k_db": None},
        {"clusters": dict(SMALL["clusters"], birth_rate=0.01)},
        {"irs": {"m_x": 3, "m_y": 2}, "bs": {"num_elements": 2},
         "user": {"num_elements": 3}, "time": {"start_s": 0.0, "stop_s": 2.0, "num": 3},
         "clusters": dict(SMALL["clusters"], birth_rate=40.0, rays_per_cluster=9)},
    ], ids=["k5db", "k0", "no_clusters", "multi_element"])
    def test_cir_columns_equal_weighted_taps(self, over):
        cfg = parse_config(dict(SMALL, **over))
        times = cfg.time_grid()
        for kind in ("BI", "IU", "BU"):
            real = realize_subchannel(cfg, kind, rng_stream(cfg.seed, "trial", 0, kind))
            if over.get("clusters", {}).get("birth_rate") == 0.01:
                assert real.num_rays == 0
            cols, _ = subchannel_taps(real, times)
            got = [repr(row) for row in zip(*(c.tolist() for c in cols))]
            assert got == self.oracle_rows(real, times), kind
            assert len(got) == cir_row_count(real, times.size)

    # SHA-256 of the bytes earlier versions wrote for SMALL: the row-wise
    # export (simulate, cluster-evolve), the per-cluster realization (acf) and
    # the per-kernel side norms (ccf, doppler, ds-cdf, link-budget)
    PINNED = {
        # the statistics sum their rays from the taps, each pair's power
        # normalizer pairwise over the zero-padded ray axis; the values moved by
        # at most 3.3e-16, and the dense field kernel wrote 12fefad2...a8e3983f
        # and 323fc6f3...f5c07c6
        "acf": {
            "acf_2bit_0s_62GHz.csv":
                "065a933ae323048947da534cca592d833a8db6d00f3542045f2aa69e5d1d79dd",
            "acf_continuous_0s_62GHz.csv":
                "073856fd00fcce320c5dae5c1f545d67918f6dc5995cf97bbe816da795f59f13",
        },
        # H is the tap sum of the CIR taps, which moved its entries by at most
        # 2.8e-16 relative; one ray_field call per (time, tx) wrote e1c184f6...2928da52
        "simulate": {
            "channel_matrix.csv":
                "2fc1fa82b80e61ab174457d90f9110fb7c778c9e423f4a20cbdcaa603da22324",
            "cir_bi.csv": "a52beee6ae9c97efc6e2ddc233a1a3ff0e46fe3a79e877201eb4ad77e520bf94",
            "cir_bu.csv": "f01ac555f998cc588b90526662d070069885b5217fae740b58f6d2dab7f65ff2",
            "cir_iu.csv": "7d0702e8ee866a00bb0232b22126b80ead5a3ba21e99d67b2182d70a220e5619",
            "phase_plan.csv":
                "f3671441c251587a346be2ab4f0fba6bccdc734e4458d44c8053d864979777a8",
        },
        "cluster-evolve": {
            "cluster_visibility.csv":
                "90635cb5bfec3694afbcab864ad15df0b766ffe53171fd9f2f835f7a226ebad9",
        },
        # the row-0 kernel sums its correlations from the visible taps, which
        # moved the values by at most 4.6e-17; the dense fields wrote
        # c85ab9d6...babd025a322e and the direct sum 503dbb0c...b8dda6ff
        "ccf": {
            "ccf_0s_62GHz.csv":
                "3ac3f73698d13ac2183b60c5073302ee210818dd1e106621a0be8b0b26893c1f",
        },
        # the trials column counts the trials with a visible ray pair (36 of
        # 40 at each time); writing cfg.trials there gave bc83e117...c42a96da
        "doppler": {
            "doppler_0s_62GHz.csv":
                "9ac9bba8063bae6224f71d59b78421c499176d368b7e5c8330495ca8d08e8a05",
        },
        "ds-cdf": {
            "ds_cdf_sigma1_0s_62GHz.csv":
                "98925acc4889f543a0f89d5cfa50406e6bfbb8cdd862ae3e93c0541988416cff",
        },
        "link-budget": {
            "link_budget.csv":
                "a6621765413160df5b8ebcf1bafb5e681797e0ddd9c347f1a2cd860c59fa2558",
        },
    }

    @pytest.mark.parametrize("sub", sorted(PINNED))
    def test_output_bytes_are_pinned(self, sub, config_path, tmp_path):
        assert run(sub, config_path, tmp_path / sub) == 0
        assert manifest(tmp_path / sub)["outputs"] == self.PINNED[sub]

    def test_single_element_acf_bytes_are_pinned(self, tmp_path):
        # a 1x1 surface runs the full-IRS ensemble at E = 1 and writes one file.
        # Pinned at the tap kernel, which moved the values by at most 5.6e-16; the
        # dense field kernel wrote dbc881fa...0b9b49882,
        # the product of two single-pair ACFs 1843f8d8...0c74618 and, before the
        # path lengths were summed in np.linalg.norm's order, 6c88b523...decd945
        path = tmp_path / "element.json"
        path.write_text(json.dumps(dict(SMALL, irs=dict(SMALL["irs"], m_x=1, m_y=1))))
        assert run("acf", path, tmp_path / "acf") == 0
        assert manifest(tmp_path / "acf")["outputs"] == {
            "acf_0s_62GHz.csv":
                "bb13a5c24709f72cf7441ac1b73216af5d53f91ce0b0b7cb3828fc3b42cb33cf"}

    def test_export_too_large_for_disk(self, config_path, tmp_path, monkeypatch, capsys):
        cfg = parse_config(SMALL)
        rows = sum(
            cir_row_count(realize_subchannel(cfg, k, rng_stream(cfg.seed, "trial", 0, k)),
                          cfg.time_grid().size) for k in ("BI", "IU", "BU"))
        need = rows * cli._CIR_ROW_BYTES
        usage = shutil.disk_usage(tmp_path)
        monkeypatch.setattr(shutil, "disk_usage",
                            lambda path: usage._replace(free=need - 1))
        out = tmp_path / "full"
        assert run("simulate", config_path, out) == 3
        err = capsys.readouterr().err
        for fact in (f"{rows} CIR rows", f"up to {need} bytes", "smaller IRS",
                     "fewer times"):
            assert fact in err
        assert list(out.iterdir()) == []  # nothing written
        monkeypatch.setattr(shutil, "disk_usage", lambda path: usage._replace(free=need))
        assert run("simulate", config_path, out) == 0


class TestDeterminism:
    def test_identical_reruns(self, config_path, tmp_path):
        assert run("acf", config_path, tmp_path / "a") == 0
        assert run("acf", config_path, tmp_path / "b") == 0
        assert manifest(tmp_path / "a")["outputs"] == manifest(tmp_path / "b")["outputs"]

    def test_thread_count_invariance(self, config_path, tmp_path):
        assert main(["acf", "--config", str(config_path), "--out",
                     str(tmp_path / "t1"), "--threads", "1"]) == 0
        assert main(["acf", "--config", str(config_path), "--out",
                     str(tmp_path / "t2"), "--threads", "2"]) == 0
        assert manifest(tmp_path / "t1")["outputs"] == manifest(tmp_path / "t2")["outputs"]

    def test_pool_path_thread_count_invariance(self, tmp_path):
        # 300 trials are two 256-trial blocks, so --threads 2 starts the worker pool;
        # the second block ends in a partial chunk
        path = tmp_path / "pool.json"
        path.write_text(json.dumps(dict(SMALL, trials=300)))
        assert len(stats._blocks(300)) == 2
        for sub in ("acf", "ccf", "doppler", "ds-cdf"):
            for threads in ("1", "2"):
                assert main([sub, "--config", str(path), "--out",
                             str(tmp_path / f"{sub}{threads}"), "--threads", threads]) == 0
            assert (manifest(tmp_path / f"{sub}1")["outputs"]
                    == manifest(tmp_path / f"{sub}2")["outputs"]), sub

    def test_seed_override_changes_results(self, config_path, tmp_path):
        assert run("acf", config_path, tmp_path / "s1") == 0
        assert run("acf", config_path, tmp_path / "s2", "--seed", "123") == 0
        assert manifest(tmp_path / "s1")["outputs"] != manifest(tmp_path / "s2")["outputs"]
        assert manifest(tmp_path / "s2")["config"]["seed"] == 123

    def test_manifest_hashes_match_files(self, config_path, tmp_path):
        out = tmp_path / "m"
        assert run("cluster-evolve", config_path, out) == 0
        for name, digest in manifest(out)["outputs"].items():
            assert file_sha256(out / name) == digest

    def test_manifest_records_versions(self, config_path, tmp_path):
        out = tmp_path / "versions"
        assert run("link-budget", config_path, out) == 0
        assert manifest(out)["versions"] == {"irs_gbsm": irs_gbsm.__version__,
                                             "numpy": np.__version__}

    def test_manifest_config_is_parseable_echo(self, config_path, tmp_path):
        out = tmp_path / "echo"
        assert run("link-budget", config_path, out) == 0
        echoed = parse_config(manifest(out)["config"])
        assert echoed == parse_config(SMALL)


class TestBlockBound:
    """The tap kernel's block bound is a memory knob: no output depends on it.

    At a bound of 1 every element pair and every time is a block of its own;
    at 50 a block holds a few times of one pair.
    """

    @pytest.mark.parametrize("sub, base, over", [
        ("acf", "acf_quantized_4x4", {}),
        ("ccf", "acf_quantized_4x4", {"ccf": {"subchannel": "BI", "axis": "rx"}}),
        ("ccf", "acf_62ghz", {}),
        ("simulate", "acf_quantized_4x4", {}),
        ("doppler", "doppler_sweep", {}),
        ("ds-cdf", "ds_cdf_sweep", {}),
    ], ids=["acf", "ccf_swept", "ccf_one_element", "simulate", "doppler", "ds_cdf"])
    def test_manifests_equal_at_every_bound(self, sub, base, over, tmp_path, monkeypatch):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(
            {**json.loads((CONFIGS / f"{base}.json").read_text()), **over, "trials": 16}))
        manifests = []
        for bound in (smallscale._BLOCK_FLOATS, 1, 50):
            monkeypatch.setattr(smallscale, "_BLOCK_FLOATS", bound)
            assert run(sub, path, tmp_path / str(bound)) == 0
            manifests.append(manifest(tmp_path / str(bound)))
        assert manifests[1] == manifests[0]
        assert manifests[2] == manifests[0]


class TestErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["acf", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["acf", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_schema_violation_reports_pointer(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"clusters": {"death_rate": -1}}))
        assert main(["acf", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "/clusters/death_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("key", [
        "trials", "seed", "acf/num_lags", "irs/m_x", "irs/phase_bits",
        "clusters/rays_per_cluster", "bs/num_elements", "time/num", "doppler/num"])
    def test_integral_float_is_not_an_integer(self, tmp_path, capsys, key):
        # 2.0 is an integer to JSON Schema, but not to range() or the seed
        section, _, name = key.rpartition("/")
        raw = {section: {name: 2.0}} if section else {name: 2.0}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["acf", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: /{key}: 2.0 " in capsys.readouterr().err

    @pytest.mark.parametrize("text, pointer", [
        ('{"bs": {"speed_mps": NaN}}', "/bs/speed_mps"),
        ('{"acf": {"lag_max_s": Infinity}}', "/acf/lag_max_s"),
        ('{"fc_ghz": NaN}', "/fc_ghz"),
        ('{"clusters": {"birth_rate": NaN}}', "/clusters/birth_rate"),
        pytest.param('{"fc_ghz": 1' + "0" * 400 + "}", "/fc_ghz", id="400-digit fc_ghz"),
    ])
    def test_non_finite_number_is_refused(self, tmp_path, capsys, text, pointer):
        # json reads NaN and Infinity, and NaN breaks no bound: a NaN speed
        # once ran to exit 0 and wrote an all-zero ACF.  A 400-digit integer
        # once exited 1 with an OverflowError traceback
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["acf", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {pointer}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unwritable_output_dir(self, config_path, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert run("acf", config_path, blocker) == 3

    def test_surface_too_large_for_memory(self, config_path, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.setattr(stats, "_available_ram_bytes", lambda: 4096)
        assert run("acf", config_path, tmp_path / "big") == 3
        err = capsys.readouterr().err
        for remedy in ("fewer IRS elements", "fewer lags", "analytical=False",
                       "cascade_trial_products", "irs.m_x", "irs.m_y", "acf.num_lags",
                       "--threads"):
            assert remedy in err

    def test_swept_ccf_too_large_for_memory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(stats, "_available_ram_bytes", lambda: 4096)
        path = tmp_path / "ccf.json"
        path.write_text(json.dumps({**SMALL, "ccf": {"subchannel": "BI", "axis": "rx"}}))
        out = tmp_path / "big"
        assert run("ccf", path, out) == 3
        err = capsys.readouterr().err
        for remedy in ("spatial CCF fields", "irs.m_x", "irs.m_y", "--threads"):
            assert remedy in err
        assert list(out.iterdir()) == []

    def test_log_env_smoke(self, config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("IRS_GBSM_LOG", "DEBUG")
        assert run("link-budget", config_path, tmp_path / "log") == 0


def fresh_interpreter(code, **env):
    """Run ``code`` in a new interpreter on this package, without BLAS settings."""
    clean = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(irs_gbsm.__file__).resolve().parents[1])
    clean["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env={**clean, **env},
                          capture_output=True, text=True, timeout=60, check=True)


def test_cli_import_leaves_out_the_validator_library_and_the_pool():
    # each costs every run start-up time: the pool is imported where a run pools
    code = ("import sys, irs_gbsm.cli; print([m for m in ('jsonschema', "
            "'concurrent.futures.process') if m in sys.modules])")
    assert fresh_interpreter(code).stdout.strip() == "[]"


class TestMemory:
    def test_cluster_evolve_128_peak_rss(self, tmp_path):
        # the dense (128, 128, ~5900) grid alone is 97 MB: a run that built it
        # peaked at 204-224 MB, one that keeps the ~321k visible entries at
        # about 65 MB.  ru_maxrss survives exec, so the CLI runs under a small
        # launcher; started straight from the test runner it would report the
        # runner's own RSS
        config = Path(__file__).resolve().parents[1] / "configs" / "cluster_evolution_128.json"
        argv = [sys.executable, "-m", "irs_gbsm.cli", "cluster-evolve",
                "--config", str(config), "--out", str(tmp_path)]
        code = ("import resource, subprocess\n"
                f"subprocess.run({argv!r}, check=True)\n"
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
        peak_kb = int(fresh_interpreter(code).stdout)
        # pinned bytes of the 128 x 128 visibility file
        assert file_sha256(tmp_path / "cluster_visibility.csv") == (
            "6640d94a11256f89cccf0296c88fdcbf35084f00a5f6855ade4ff269d4d8ab33")
        assert peak_kb / 1024 < 150


class TestBlasThreadPolicy:
    """Importing the package pins BLAS to one thread per process by default."""

    def blas_env_after_import(self, **env):
        code = ("import os, irs_gbsm; print(os.environ['OPENBLAS_NUM_THREADS'], "
                "os.environ['MKL_NUM_THREADS'])")
        return fresh_interpreter(code, **env).stdout.split()

    def test_default_is_one_thread(self):
        assert self.blas_env_after_import() == ["1", "1"]

    def test_user_setting_wins(self):
        assert self.blas_env_after_import(OPENBLAS_NUM_THREADS="3",
                                          MKL_NUM_THREADS="2") == ["3", "2"]

    def test_numpy_imported_first_warns(self):
        err = fresh_interpreter("import numpy, irs_gbsm").stderr
        assert "numpy was imported before irs_gbsm" in err
        assert "OPENBLAS_NUM_THREADS=1" in err
        # a user's own BLAS setting is a choice, not an accident
        assert fresh_interpreter("import numpy, irs_gbsm",
                                 OPENBLAS_NUM_THREADS="1").stderr == ""

    def test_package_imported_first_is_silent(self):
        assert fresh_interpreter("import irs_gbsm, numpy").stderr == ""
