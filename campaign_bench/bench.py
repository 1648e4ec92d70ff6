"""Measurement, correctness bookkeeping and reporting of one benchmark run.

``run.py`` is the command; this module does the work once the library
sources are importable.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy
from repro.simulation.native.toolchain import compiler_banner, find_compiler

from .calibration import calibrate, slowdown
from .ledger import Ledger, layer_figures, tracing
from .workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Set-ups per run (``setup_s`` is their median): at least the first
#: count, and more while their total stays under the time (seconds), up to
#: the cap, so that cheap set-ups get enough samples for a steady median.
SETUP_REPEATS = (5, 1.0, 100)
#: Fewest timed campaigns per run, whatever ``--seconds`` says.
MIN_CAMPAIGNS = 3

#: End-to-end metrics.  Timings are medians at the reference host speed
#: (``calibration.py``); the raw medians are in the run's detail record.
END_TO_END = {  # name -> unit
    # simulated scenario ticks per second of campaign wall clock
    "scenario_ticks_per_s": "1/s",
    # campaign wall clock; on search_coverage the time to full coverage of
    # one search per model
    "campaign_s": "s",
    # scenarios a campaign simulates; on search_coverage the evaluations a
    # search pair needs to reach full coverage (median over the pairs)
    "evaluations_per_campaign": "count",
    # transition coverage of the campaign's machines (the FDA's four MTDs
    # are observed on the warm-up campaign, which collects mode histories)
    "coverage.transitions": "ratio",
    # model build, battery generation and compile, cold native build
    # included (median of the run's set-ups)
    "setup_s": "s",
    # peak resident set of the run plus its largest child process
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of a traced run, medians over its traced campaigns.
#: Layer times are shares of the campaign's wall clock (``ledger.SHARES``).
PER_LAYER = {  # name -> unit
    "compiled.compile_share": "ratio",
    "compiled.compiles": "count",
    "native.build_share": "ratio",
    "native.cache_hit_ratio": "ratio",
    "native.trampolines_per_tick": "count",
    "native.lowered_ops": "count",
    "native.fallback_ops": "count",
    "engine.feeds_share": "ratio",
    "engine.drive_share": "ratio",
    "kernel.step_share": "ratio",
    "kernel.steps": "count",
    "kernel.step_us_per_tick": "us",
    "batch.sweep_share": "ratio",
    "batch.scalar_fallback_ticks": "count",
    "trace.record_share": "ratio",
    "trace.record_calls": "count",
    "report.observe_share": "ratio",
    "report.mode_paths_share": "ratio",
    "runner.dispatch_share": "ratio",
    "runner.pool_start_share": "ratio",
    "runner.ipc_share": "ratio",
    "runner.result_bytes": "bytes",
    "runner.worker_busy_ratio": "ratio",
    "search.breed_share": "ratio",
    "search.fitness_share": "ratio",
    "search.minimize_share": "ratio",
    "search.rounds": "count",
    "search.earned_ratio": "ratio",
    "ledger.unaccounted_ratio": "ratio",
    "ledger.overhead_ratio": "ratio",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Campaign benchmark of the AutoMoDe reproduction")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --------------------------------------------------------------------------
# host fingerprint and memory
# --------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, *ref.split("/"))
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of the library sources the run measured."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def fingerprint() -> Dict[str, Any]:
    compiler = find_compiler()
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiler": compiler_banner(compiler) if compiler else None,
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for
    child (pool worker or compiler), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def _median_sample(values: List[float]) -> Dict[str, Any]:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "samples": len(values)}


def timed_campaigns(workload: Any, seconds: float, campaign: Any = None
                    ) -> Tuple[List[Dict[str, float]], Any]:
    """Closed loop of campaigns for *seconds* (at least MIN_CAMPAIGNS);
    returns each campaign's figures and the last campaign's output."""
    campaign = campaign or workload.campaign
    runs = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_CAMPAIGNS or time.perf_counter() < deadline:
        calibration = calibrate()
        started = time.perf_counter()
        output = campaign()
        wall = time.perf_counter() - started
        runs.append({"wall_s": wall, "ticks": workload.check(output),
                     "calibration_s": calibration})
    return runs, output


def calibrated_wall(runs: List[Dict[str, float]]) -> float:
    """Median wall clock of *runs* at the reference host speed, each run
    scaled by the slowdown measured just before it."""
    return statistics.median(run["wall_s"] / slowdown(run["calibration_s"])
                             for run in runs)


def end_to_end(workload: Any, seconds: float,
               setups: List[Dict[str, float]]) -> Dict[str, float]:
    runs, _ = timed_campaigns(workload, seconds)
    walls = [run["wall_s"] for run in runs]
    rates = [run["ticks"] / run["wall_s"] for run in runs]
    workload.details["raw_campaign_s"] = _median_sample(walls)
    workload.details["raw_scenario_ticks_per_s"] = _median_sample(rates)
    workload.details["host_slowdown"] = _median_sample(
        [slowdown(run["calibration_s"]) for run in runs])
    workload.describe_timings(statistics.median(walls),
                              statistics.median(rates))
    return {"scenario_ticks_per_s": statistics.median(
                run["ticks"] / run["wall_s"] * slowdown(run["calibration_s"])
                for run in runs),
            "campaign_s": calibrated_wall(runs),
            "evaluations_per_campaign": workload.evaluations,
            "coverage.transitions": workload.coverage,
            "setup_s": calibrated_wall(setups),
            "peak_rss_mb": peak_rss_mb()}


def per_layer(workload: Any, seconds: float) -> Dict[str, float]:
    campaign = workload.ledger_campaign
    plain, _ = timed_campaigns(workload, seconds / 2, campaign)
    ledger = Ledger()
    traced = []

    def traced_campaign() -> Any:
        ledger.take()
        started = time.perf_counter()
        output = campaign()
        wall = time.perf_counter() - started
        traced.append(layer_figures(ledger.take(), wall))
        return output

    with tracing(ledger):
        runs, last = timed_campaigns(workload, seconds / 2, traced_campaign)
    metrics = {name: statistics.median(figures[name] for figures in traced)
               for name in traced[0]}
    metrics.update({name: 0.0 for name in PER_LAYER if name not in metrics})
    metrics.update(workload.trace_figures(last))
    metrics["ledger.overhead_ratio"] = (calibrated_wall(runs)
                                        / calibrated_wall(plain) - 1.0)
    workload.details["traced_campaigns"] = len(runs)
    workload.details["plain_campaigns"] = len(plain)
    return metrics


def run(args: argparse.Namespace, scratch: str) -> Dict[str, Any]:
    workload = WORKLOADS[args.workload](args.seed, scratch)
    setups: List[Dict[str, float]] = []
    fewest, budget_s, most = SETUP_REPEATS
    while len(setups) < fewest or (
            sum(setup["wall_s"] for setup in setups) < budget_s
            and len(setups) < most):
        calibration = calibrate()
        started = time.perf_counter()
        workload.setup()
        setups.append({"wall_s": time.perf_counter() - started,
                       "calibration_s": calibration})
    workload.prepare()
    if args.trace:
        metrics = per_layer(workload, args.seconds)
        units = PER_LAYER
    else:
        metrics = end_to_end(workload, args.seconds, setups)
        units = END_TO_END
    workload.oracle()
    workload.details["raw_setup_s"] = _median_sample(
        [setup["wall_s"] for setup in setups])
    workload.details["failed_ratio"] = workload.failed / workload.attempted
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "host": fingerprint(), "details": workload.details,
                      "problems": workload.problems}, default=str))
    return {"correct": workload.failed == 0 and not workload.problems,
            "attempted": workload.attempted, "failed": workload.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"campaign_bench: unknown workload {args.workload!r} "
              f"(choose from {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    base = os.path.join(ROOT, ".campaign_bench_tmp")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=base)
    # compilers and temp files of the run stay inside the repository
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    if not WORKLOADS[args.workload].pooled \
            and hasattr(os, "sched_setaffinity"):
        # a serial run keeps to one CPU, so that its campaigns and the
        # calibration before each of them run on the same CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        result = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    print(json.dumps(result))
    return 0
