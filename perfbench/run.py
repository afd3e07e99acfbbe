"""irs-gbsm benchmark: one workload (or all of them) through the CLI.

    python3 perfbench/run.py --workload acf-element --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Run from the repository root; the program is imported from ``src/`` as is,
nothing is installed.

A workload is one or more CLI steps (``workloads.WORKLOADS``); a round runs
each step once, and its times are summed.

``--trace 0`` measures end to end.  A closed loop starts one
``python -m irs_gbsm.cli ... --threads 2`` child at a time, for ``--seconds``
seconds, after one untimed warm-up run and at least twice, and reads wall
time, CPU time and peak RSS of each run's process tree from ``wait4`` (pool
workers are reaped by the CLI, so their usage is included).  Before each
run, fresh interpreters time set-up (imports plus ``parse_config``).  Every
run is checked: exit code 0, every manifest hash matches its file, repeats
of the seed are byte-identical, plus the workload checks in
``workloads.check_outputs``.

``--trace 1`` gives the per-layer numbers: the CLI runs in this process at
``--threads 1``, once untraced and once under ``tracer.Tracer``, repeated
for ``--seconds`` seconds; the spans are written to ``.perfbench_runs/``.
ACF outputs there must hash the same as one ``--threads 2`` run.

Each workload prints one table row per metric (unit, sample count, median,
quartiles) and, as its last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (median of each metric).
``--smoke`` runs a tiny version of each workload for the minimum rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

import workloads as wl

RUNS = wl.ROOT / ".perfbench_runs"
TIME_LIMIT_S = 170.0           # a single-workload invocation ends before this
SETUP_SHARE = 0.1              # of each end-to-end round, spent on set-up probes


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf in ("share", "visible_ratio", "overhead_ratio"):
        return "ratio"
    if leaf.endswith("_us"):
        return "us"
    if leaf.startswith("ns_per"):
        return "ns"
    if leaf == "mb_per_s":
        return "MB/s"
    if leaf.endswith("_per_s"):
        return "1/s"
    if leaf.endswith("_mb"):
        return "MB"
    if leaf in ("bytes", "tensor_bytes"):
        return "B"
    if leaf == "s" or leaf.endswith("_s"):
        return "s"
    return "count"


def machine_facts() -> dict:
    def getconf(key):
        try:
            out = subprocess.run(["getconf", key], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
            return int(out) if out.isdigit() else None
        except (OSError, subprocess.SubprocessError):
            return None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "l2_bytes_per_core": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "ram_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(wl.SRC), env.get("PYTHONPATH")) if p)
    env.pop("IRS_GBSM_LOG", None)
    return env


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # already gone


def spawn(args: list[str], log: Path, timeout_s: float) -> dict:
    """Run one child in its own process group; wall, CPU and peak RSS of its tree.

    The group is killed after ``timeout_s``, which shows as a non-zero exit.
    """
    with open(log, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(args, stdout=subprocess.DEVNULL, stderr=err, cwd=wl.ROOT,
                                env=child_env(), start_new_session=True)
        killer = threading.Timer(timeout_s, kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss * 1024 / 1e6}


def tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def summary(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


class Step:
    """One CLI subcommand of a workload: its scenario and the facts of its outputs."""

    def __init__(self, w: wl.Workload, seed: int, smoke: bool, where: Path):
        self.w = w
        self.raw, self.expected_rows = wl.scenario(w, seed, smoke)
        self.scenario = where / f"{w.name}.json"
        self.scenario.write_text(json.dumps(self.raw, indent=2))
        self.facts: dict = {}

    def cli(self, outdir: Path, threads: int) -> list[str]:
        return [sys.executable, "-m", "irs_gbsm.cli", self.w.subcommand,
                "--config", str(self.scenario), "--out", str(outdir),
                "--threads", str(threads)]

    def check_first(self, outdir: Path) -> list[str]:
        problems, self.facts = wl.check_outputs(self.w, outdir, self.expected_rows)
        self.facts["bytes"] = sum(p.stat().st_size for p in outdir.iterdir())
        return problems


class Run:
    """One workload invocation: its steps, samples, checks and failure count."""

    def __init__(self, name: str, seed: int, seconds: float, smoke: bool):
        self.name, self.seed, self.seconds, self.smoke = name, seed, seconds, smoke
        self.end = perf_counter() + TIME_LIMIT_S
        self.dir = RUNS / f"{name}-seed{seed}-pid{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.steps = [Step(w, seed, smoke, self.dir) for w in wl.WORKLOADS[name]]
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def left(self) -> float:
        """Seconds before the invocation's hard limit (at least 1)."""
        return max(1.0, self.end - perf_counter())

    def record(self, problems: list[str], label: str) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return not problems

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def child_run(self, step: Step, outdir: Path, threads: int) -> tuple[dict, dict, list[str]]:
        """One CLI child; returns (timings, manifest hashes, problems)."""
        log = outdir.with_suffix(".log")
        res = spawn(step.cli(outdir, threads), log, self.left())
        if res["code"] != 0:
            return res, {}, [f"{step.w.name} exit {res['code']}: {tail(log)}"]
        problems, hashes = wl.verify_manifest(outdir)
        return res, hashes, problems

    def fits(self, i: int, minimum: int, deadline: float, last_s: float) -> bool:
        """Whether to start repeat i: always up to ``minimum``, then while it ends in time."""
        if i < minimum:
            return True
        return not self.smoke and perf_counter() + last_s <= deadline

    # -- trace 0 ------------------------------------------------------------
    def setup_probe(self) -> tuple[float, list[str]]:
        """Imports plus ``parse_config`` in a fresh interpreter; (seconds, problems)."""
        out = subprocess.run(
            [sys.executable, str(wl.ROOT / "perfbench" / "probe_setup.py"),
             *(str(step.scenario) for step in self.steps)],
            capture_output=True, text=True, cwd=wl.ROOT, env=child_env(), timeout=self.left())
        if out.returncode != 0:
            return 0.0, [f"exit {out.returncode}: "
                         f"{' '.join(out.stderr.strip().splitlines()[-1:])}"]
        return float(out.stdout), []

    def end_to_end(self) -> None:
        """Rounds of set-up probes plus one CLI run per step, for ``--seconds`` seconds.

        Round 0 warms the page cache and the bytecode cache and gives the
        reference hashes and the workload checks; it is not timed.  A shared
        2-vCPU host drifts by tens of percent within seconds, so the report
        takes medians over the many rounds that fit, not a few long runs.
        """
        first = None
        deadline = perf_counter() + self.seconds
        i, last, round_s = 0, 0.0, 0.0
        while self.fits(i, 3, deadline, last):
            t_round = perf_counter()
            timed = i > 0
            # set-up probes take about a tenth of each round, at least one
            while True:
                setup, problems = self.setup_probe()
                if self.record(problems, f"setup probe {i}") and timed:
                    self.add("setup_s", setup)
                if problems or perf_counter() - t_round >= SETUP_SHARE * round_s:
                    break
            wall = cpu = rss = 0.0
            hashes, problems = [], []
            for step in self.steps:
                outdir = self.dir / f"run{i}-{step.w.name}"
                res, step_hashes, bad = self.child_run(step, outdir, 2)
                if not bad and first is None:
                    bad += step.check_first(outdir)
                wall, cpu, rss = wall + res["wall"], cpu + res["cpu"], max(rss, res["rss_mb"])
                hashes.append(step_hashes)
                problems += bad
                shutil.rmtree(outdir, ignore_errors=True)
            round_s = wall
            if not problems:
                if first is None:
                    first = hashes
                elif hashes != first:
                    problems.append("outputs differ from the first run of the same seed")
            if self.record(problems, f"run {i}") and timed:
                self.add("wall_s", wall)
                self.add("cpu_s", cpu)
                self.add("peak_rss_mb", rss)
                self.add("trials_per_s", sum(wl.trials_of(s.w, s.raw) for s in self.steps) / wall)
                self.add("rows_per_s", sum(s.facts["rows"] for s in self.steps) / wall)
            last = perf_counter() - t_round
            i += 1
        if first is not None:
            self.add("output_mb", sum(s.facts["bytes"] for s in self.steps) / 1e6)

    # -- trace 1 ------------------------------------------------------------
    def traced(self) -> None:
        wl.import_program()
        import irs_gbsm.cli as cli
        import tracer

        references: dict[str, dict] = {}
        for step in self.steps:
            if step.w.subcommand == "acf":
                # thread invariance: the in-process --threads 1 runs below must
                # hash the same as a --threads 2 run through the pool
                outdir = self.dir / f"threads2-{step.w.name}"
                _, hashes, problems = self.child_run(step, outdir, 2)
                if self.record(problems, f"{step.w.name} --threads 2 reference run"):
                    references[step.w.name] = hashes
                shutil.rmtree(outdir, ignore_errors=True)

        def run_steps(kind: str, i: int) -> list[int]:
            return [cli.main(step.cli(self.dir / f"{kind}{i}-{step.w.name}", 1)[3:])
                    for step in self.steps]

        deadline = perf_counter() + self.seconds
        spans_out = []
        seen: set[str] = set()
        i, last = 0, 0.0
        while self.fits(i, 1, deadline, last):
            t_pair = perf_counter()
            codes = {}
            tr = tracer.Tracer()
            # alternate the order so one-time costs do not always land on one side
            for kind in (("plain", "traced") if i % 2 == 0 else ("traced", "plain")):
                if kind == "plain":
                    t0 = perf_counter()
                    codes["plain"] = run_steps("plain", i)
                    wall_plain = perf_counter() - t0
                else:
                    with tr:
                        codes["traced"], root = tr.call("cli.main", run_steps, "traced", i)
            problems = [f"{kind} exit {c}" for kind, cs in codes.items() for c in cs if c != 0]
            if not problems:
                for step in self.steps:
                    for kind in ("plain", "traced"):
                        outdir = self.dir / f"{kind}{i}-{step.w.name}"
                        bad, hashes = wl.verify_manifest(outdir)
                        problems += bad
                        want = references.setdefault(step.w.name, hashes)
                        if hashes != want:
                            problems.append(f"{outdir.name}: outputs differ from the reference run")
                    if i == 0:
                        problems += step.check_first(self.dir / f"plain{i}-{step.w.name}")
            if self.record(problems, f"traced pair {i}"):
                file_facts = {}
                for s in tr.spans:
                    if s.name == "output.write_csv":
                        path = Path(s.info)
                        file_facts[str(path)] = (wl.csv_rows(path), path.stat().st_size)
                metrics = tracer.layer_metrics(tr.spans, root, file_facts)
                metrics["trace.overhead_ratio"] = root.busy / wall_plain
                for name, value in metrics.items():
                    self.add(name, value)
                spans_out += [{"run": i, **vars(s), "info": None} for s in tr.spans]
                seen.update(s.name for s in tr.spans)
            for step in self.steps:
                for kind in ("plain", "traced"):
                    shutil.rmtree(self.dir / f"{kind}{i}-{step.w.name}", ignore_errors=True)
            last = perf_counter() - t_pair
            i += 1
        with open(RUNS / f"spans-{self.name}-seed{self.seed}.jsonl", "w") as fh:
            for s in spans_out:
                fh.write(json.dumps(s) + "\n")
        missing = [n for step in self.steps for n in step.w.active_layers if n not in seen]
        if missing:
            print(f"# warning: no spans recorded for {', '.join(missing)}")

    # -- report -------------------------------------------------------------
    def report(self, trace: int) -> dict:
        metrics = {}
        print(f"# perfbench {self.name} seed={self.seed} trace={trace} "
              f"seconds={self.seconds:g}{' smoke' if self.smoke else ''}")
        for step in self.steps:
            print("# inputs " + json.dumps(wl.input_properties(step.w, step.raw)))
        print(f"# {'metric':<44} {'unit':>6} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14}")
        for name, values in self.samples.items():
            med, q1, q3 = summary(values)
            print(f"  {name:<44} {unit_of(name):>6} {len(values):>3} "
                  f"{med:>14.6g} {q1:>14.6g} {q3:>14.6g}")
            metrics[name] = {"value": med, "unit": unit_of(name)}
        failed = len(self.failures)
        print(f"  {'fail_ratio':<44} {'ratio':>6} {self.attempted:>3} "
              f"{failed / max(self.attempted, 1):>14.6g}")
        gaps = [s.facts["acf_gap"] for s in self.steps if "acf_gap" in s.facts]
        if gaps:
            print(f"  {'acf_gap':<44} {'1':>6} {1:>3} {max(gaps):>14.6g}")
        for f in self.failures:
            print(f"# FAILED {f}")
        return {"correct": not self.failures and bool(self.samples),
                "attempted": max(self.attempted, 1), "failed": failed,
                "metrics": metrics}

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def run_one(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    run = Run(name, seed, seconds, smoke)
    try:
        run.traced() if trace else run.end_to_end()
        return run.report(trace)
    finally:
        run.cleanup()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, fewest rounds (checks the metric names only)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    missing = [p for p in (wl.CONFIGS, wl.SRC / "irs_gbsm" / "cli.py") if not p.exists()]
    if missing:
        print("perfbench: run from an irs-gbsm checkout; missing "
              + ", ".join(str(p.relative_to(wl.ROOT)) for p in missing), file=sys.stderr)
        return 2
    print("# machine " + json.dumps(machine_facts()))
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_one(n, args.seed, args.seconds, args.trace, args.smoke) for n in names}
    if len(results) == 1:
        line = results[names[0]]
    else:
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {n: r["metrics"] for n, r in results.items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
