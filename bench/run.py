"""exitlab benchmark: run one workload through ``exitlab.cli.run`` and report.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all       # every workload, one table

Run from the root of a source checkout (the directory holding ``src/``).
The seed generates the workload's config; each measured run is a fresh
Python process that loads that config and runs it, one at a time (a closed
loop with one client), until ``--seconds`` have passed. Every run's reports
are checked: exit status, every ``"passed"`` field, an independent
recomputation with ``numpy.linalg.solve``, and a digest of the reports with
timestamps removed that must repeat exactly across runs.

``--trace 0`` reports the end-to-end metrics (medians over the runs).
``--trace 1`` alternates traced and untraced runs and reports the per-layer
metrics of the traced ones (medians; counts must repeat exactly). The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, the workload's sizes and the reports digest.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import COUNT_METRICS, Span, layer_metrics
from workloads import WORKLOADS, check_reports

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One BLAS thread for the measured process: on a small shared machine a
# second thread made the dense workloads slower and noisier, not faster.
BLAS_THREADS = 1

# Stop starting new runs after this many seconds, so one invocation ends
# well within three minutes even when a run is slow.
DEADLINE_S = 150.0
# Fresh processes that only import exitlab and load the config, started
# before the measured runs, so setup_s is a median over enough samples.
SETUP_ONLY_RUNS = 5
MIN_PLAIN_RUNS = 3
MIN_TRACED_RUNS = 2

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {"paths_per_s": "1/s", "_s": "s", "emit_bytes": "bytes"}

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def reports_digest(out_dir: Path) -> tuple[str, int]:
    """SHA-256 over every report file with timestamp values blanked, and its size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.iterdir()):
        data = _TIMESTAMP.sub(b'"timestamp": ""', path.read_bytes())
        h.update(path.name.encode() + b"\0" + len(data).to_bytes(8, "big") + data)
        size += len(data)
    return h.hexdigest(), size


def failed_reports(out_dir: Path) -> list[str]:
    """Names of JSON reports whose top-level "passed" is not true."""
    bad = []
    for path in sorted(out_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        if "passed" in doc and doc["passed"] is not True:
            bad.append(path.name)
    return bad


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def environment(seed: int, workload, cfg: dict) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "seed": seed,
        "workload": workload.name,
        "sizes": workload.sizes(cfg),
    }


class Bench:
    """The runs of one workload at one seed, and what they measured."""

    def __init__(self, workload, seed: int, work_dir: Path, expected=None):
        """``expected`` defaults to the independent values computed by
        ``expected.py`` in a process of its own (see there for why)."""
        self.work_dir = work_dir
        self.config_path = work_dir / "config.json"
        self.config_path.write_bytes(workload.config_bytes(seed))
        self.cfg = json.loads(self.config_path.read_bytes())
        # A fixed hash seed keeps dict and set layouts the same in every run.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        if expected is None:
            proc = subprocess.run(
                [sys.executable, str(HERE / "expected.py"), str(SRC), workload.name, str(self.config_path)],
                env=self.env,
                capture_output=True,
                text=True,
                timeout=DEADLINE_S,
                check=True,
            )
            expected = json.loads(proc.stdout)
        self.expected = expected
        self.started = time.monotonic()
        self.setup_s: list[float] = []
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None
        self.emit_bytes: int | None = None

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, mode: str, out_dir: Path) -> dict | None:
        """Start one worker process, wait for it, return its result line."""
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(SRC), str(self.config_path), str(out_dir), mode],
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(5.0, DEADLINE_S + 20.0 - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} run timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.problems.append(f"{mode} worker exited {proc.returncode}: {' | '.join(tail)}")
            return None
        result = json.loads(lines[-1])
        self.setup_s.append(result["setup_done"] - spawned)
        return result

    def measure(self, mode: str) -> bool:
        """One full run: time it, check its reports, keep its numbers.

        A run that completed keeps its timings even when a check failed;
        the failure counts in ``failed`` and makes the result incorrect.
        Returns False when the worker produced no result at all.
        """
        out_dir = self.work_dir / f"run-{self.attempted}"
        self.attempted += 1
        result = self.spawn(mode, out_dir)
        problems = []
        if result is not None:
            if result["status"] != 0:
                problems.append(f"exit status {result['status']}")
            problems += [f"{name}: passed is not true" for name in failed_reports(out_dir)]
            problems += check_reports(out_dir, self.expected)
            digest, size = reports_digest(out_dir)
            if self.digest is None:
                self.digest, self.emit_bytes = digest, size
            elif (digest, size) != (self.digest, self.emit_bytes):
                problems.append(f"reports digest {digest[:12]} differs from {self.digest[:12]}")
        shutil.rmtree(out_dir, ignore_errors=True)
        if result is None or problems:
            self.failed += 1
            self.problems += [f"run {self.attempted - 1} ({mode}): {p}" for p in problems]
        if result is None:
            return False
        (self.traced if mode == "traced" else self.plain).append(result)
        return True

    def setup_only(self) -> None:
        for i in range(SETUP_ONLY_RUNS):
            self.spawn("setup", self.work_dir / f"setup-{i}")

    def due(self, seconds: float, *pending: bool) -> bool:
        if self.elapsed() >= DEADLINE_S:
            return False
        return self.elapsed() < seconds or any(pending)

    def run_plain(self, seconds: float) -> None:
        self.setup_only()
        while self.due(seconds, len(self.plain) < MIN_PLAIN_RUNS):
            if not self.measure("plain"):
                break

    def run_traced(self, seconds: float) -> None:
        while self.due(seconds, len(self.traced) < MIN_TRACED_RUNS, not self.plain):
            if not self.measure("plain" if len(self.traced) > len(self.plain) else "traced"):
                break

    def end_to_end(self) -> dict:
        return {
            "run_s": statistics.median(r["run_s"] for r in self.plain),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in self.plain),
        }

    def per_layer(self) -> dict:
        runs = [layer_metrics([Span(**s) for s in r["spans"]]) for r in self.traced]
        for r in runs[1:]:
            for name in COUNT_METRICS:
                if r[name] != runs[0][name]:
                    self.problems.append(f"{name} changed between traced runs: {runs[0][name]} vs {r[name]}")
        out = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
        out.update((name, runs[0][name]) for name in COUNT_METRICS)
        for r in runs:
            layers = sum(v for k, v in r.items() if k.endswith(".self_s"))
            if abs(layers - r["trace.total_s"]) > 0.05 * r["trace.total_s"]:
                self.problems.append(
                    f"layer self times add up to {layers:.4f} s, traced total is {r['trace.total_s']:.4f} s"
                )
        out["cli.emit_bytes"] = self.emit_bytes
        out["trace.overhead_s"] = out["trace.total_s"] - statistics.median(r["run_s"] for r in self.plain)
        return out


def bench_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (environment record, result object)."""
    workload = WORKLOADS[name]
    work_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        bench = Bench(workload, seed, work_dir)
        if trace:
            bench.run_traced(seconds)
        else:
            bench.run_plain(seconds)
        metrics = {}
        if bench.plain and (bench.traced or not trace):
            values = bench.per_layer() if trace else bench.end_to_end()
            units = {k: per_layer_unit(k) for k in values} if trace else END_TO_END
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        env = environment(seed, workload, bench.cfg)
        env.update(
            reports_sha256=bench.digest,
            run_s_samples=[round(r["run_s"], 4) for r in bench.plain],
            setup_s_samples=[round(t, 4) for t in bench.setup_s],
            traced_runs=len(bench.traced),
            elapsed_s=round(bench.elapsed(), 3),
            problems=bench.problems,
        )
        result = {
            "correct": not bench.problems and bool(metrics),
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": metrics,
        }
        return env, result
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "exitlab" / "cli.py").is_file():
        print(f"error: no exitlab sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = None
    for name in names:
        env, result = bench_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted = max(result["attempted"], 1)
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        print(f"{name} failed_frac {result['failed'] / attempted:.6g} ratio")
        print(json.dumps(env, sort_keys=True))
        if not result["metrics"]:
            print(f"error: {name}: no run completed: {env['problems']}", file=sys.stderr)
            return 3
    if args.workload != "all":
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
