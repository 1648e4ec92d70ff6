"""Bench-regression tracking: a gated, plotted series over BENCH artifacts.

The benchmark harness writes one ``BENCH_<name>.json`` per gate
(:func:`benchmarks._bench_utils.write_bench_json`), but between runs the
performance trajectory is invisible: each CI run sees only its own
numbers.  This module turns the artifacts into a **history** -- an
append-only JSON file of per-run gated metrics -- and a **check**: current
medians are compared against a baseline (the median of the last few
recorded runs) with a configurable tolerance, a trend table renders the
series, and ``--check`` exits non-zero on regression.  Wired as the CI
``bench-regress`` job::

    PYTHONPATH=src python -m repro.obs.regress --check \\
        --bench-dir bench-artifacts --history bench-artifacts/BENCH_history.json

**Which metrics gate.**  Bench payloads are flattened to dotted numeric
keys (the embedded ``observability`` telemetry and the ``host``
fingerprint are skipped); a key gates when it contains ``median`` (the
cross-run statistic the harness records
precisely for this purpose, see ``time_median``) AND its improvement
direction is inferable from its name -- ``*seconds*``/``*duration*`` are
lower-is-better, ``*per_second*``/``*speedup*`` higher-is-better.
Everything else is tracked in the history but never gates, so adding an
exotic payload key cannot fail CI by accident.

The baseline is the **median of the last ``window`` recorded runs**, so a
single noisy CI run neither poisons the baseline nor (because the check
compares against history, not the previous run alone) trips the gate.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

HISTORY_SCHEMA_VERSION = 1

#: Substring marking a metric as gate-worthy (median statistics only:
#: best-of and single-shot numbers are too noisy to fail CI on).
GATE_TOKEN = "median"

#: Name fragments implying lower-is-better / higher-is-better.
LOWER_TOKENS = ("seconds", "duration", "time_s", "overhead", "latency")
HIGHER_TOKENS = ("per_second", "per_sec", "speedup", "rate", "throughput")

#: Payload keys never flattened into metrics (embedded telemetry and the
#: host fingerprint).
SKIP_KEYS = ("observability", "host")


def metric_direction(key: str) -> Optional[str]:
    """``"lower"`` / ``"higher"`` (is better), or ``None`` if unknown.

    Higher-is-better tokens win ties (``ticks_per_second_median`` contains
    ``seconds`` only as part of ``per_second``).
    """
    lowered = key.lower()
    if any(token in lowered for token in HIGHER_TOKENS):
        return "higher"
    if any(token in lowered for token in LOWER_TOKENS):
        return "lower"
    return None


def flatten_numeric(payload: Any, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a bench payload as sorted dotted keys."""
    flat: Dict[str, float] = {}
    if not isinstance(payload, dict):
        return flat
    for key in sorted(payload):
        if not prefix and key in SKIP_KEYS:
            continue
        value = payload[key]
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            flat[path] = float(value)
        elif isinstance(value, dict):
            flat.update(flatten_numeric(value, path))
    return flat


def gated_metrics(flat: Dict[str, float]) -> Dict[str, float]:
    """The subset of flattened metrics the regression gate watches."""
    return {key: value for key, value in flat.items()
            if GATE_TOKEN in key.lower()
            and metric_direction(key) is not None}


def load_bench_dir(directory: str) -> Dict[str, Dict[str, float]]:
    """``{bench name: flattened numeric metrics}`` from ``BENCH_*.json``."""
    benches: Dict[str, Dict[str, float]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        name = os.path.basename(path)[len("BENCH_"):-len(".json")]
        if name == "history":  # the history file is not a bench artifact
            continue
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        benches[name] = flatten_numeric(payload)
    return benches


class BenchHistory:
    """The append-only run history backing baselines and trend tables."""

    def __init__(self, path: str):
        self.path = path
        self.data: Dict[str, Any] = {
            "schema_version": HISTORY_SCHEMA_VERSION, "runs": []}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            if data.get("schema_version", 0) > HISTORY_SCHEMA_VERSION:
                raise ValueError(
                    f"bench history {path!r} has schema version "
                    f"{data.get('schema_version')!r}; this reader "
                    f"understands <= {HISTORY_SCHEMA_VERSION}")
            self.data = data
            self.data.setdefault("runs", [])

    @property
    def runs(self) -> List[Dict[str, Any]]:
        return self.data["runs"]

    def record_run(self, benches: Dict[str, Dict[str, float]],
                   label: str = "",
                   timestamp: Optional[float] = None) -> Dict[str, Any]:
        """Append one run (gated metrics only, keeping the file compact)."""
        run = {
            "timestamp": time.time() if timestamp is None else timestamp,
            "label": label,
            "benches": {name: gated_metrics(flat)
                        for name, flat in sorted(benches.items())},
        }
        self.runs.append(run)
        return run

    def series(self, bench: str, metric: str) -> List[float]:
        """Every recorded value of one metric, oldest first."""
        values = []
        for run in self.runs:
            value = run.get("benches", {}).get(bench, {}).get(metric)
            if value is not None:
                values.append(value)
        return values

    def baseline(self, bench: str, metric: str,
                 window: int = 5) -> Optional[float]:
        """Median of the last *window* recorded values, or ``None``."""
        values = self.series(bench, metric)[-window:]
        return statistics.median(values) if values else None

    def save(self) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(self.data, handle, indent=2, sort_keys=True)
            handle.write("\n")


@dataclass
class RegressionFinding:
    """One gated metric compared against its history baseline.

    ``worse`` is the signed degradation fraction (positive = worse,
    direction-adjusted); ``regressed`` is ``worse > tolerance``.
    """

    bench: str
    metric: str
    direction: str
    baseline: Optional[float]
    current: float
    worse: float
    regressed: bool


def check_regressions(history: BenchHistory,
                      benches: Dict[str, Dict[str, float]],
                      tolerance: float = 0.25,
                      window: int = 5) -> List[RegressionFinding]:
    """Compare every gated metric of *benches* against its baseline.

    Metrics with no recorded history (first run, renamed key) yield a
    finding with ``baseline=None`` that never regresses -- the gate only
    has teeth once a series exists.
    """
    findings: List[RegressionFinding] = []
    for bench in sorted(benches):
        for metric, current in sorted(gated_metrics(benches[bench]).items()):
            direction = metric_direction(metric) or "lower"
            baseline = history.baseline(bench, metric, window)
            if baseline is None or baseline == 0:
                findings.append(RegressionFinding(
                    bench, metric, direction, baseline, current, 0.0, False))
                continue
            delta = (current - baseline) / abs(baseline)
            worse = delta if direction == "lower" else -delta
            findings.append(RegressionFinding(
                bench, metric, direction, baseline, current, worse,
                worse > tolerance))
    return findings


def format_trend(history: BenchHistory,
                 findings: Sequence[RegressionFinding],
                 window: int = 5) -> str:
    """The trend table: per gated metric, history, baseline, verdict."""
    if not findings:
        return "no gated bench metrics found (nothing to track)"
    name_width = max(len(f"{finding.bench}.{finding.metric}")
                     for finding in findings)
    lines = [f"{'metric':<{name_width}}  {'dir':<6}  {'baseline':>12}  "
             f"{'current':>12}  {'change':>8}  {'runs':>4}  trend"]
    for finding in findings:
        name = f"{finding.bench}.{finding.metric}"
        series = history.series(finding.bench, finding.metric)
        spark = " ".join(f"{value:.4g}" for value in series[-window:])
        baseline = ("(none)" if finding.baseline is None
                    else f"{finding.baseline:.6g}")
        change = f"{100.0 * finding.worse:+.1f}%"
        verdict = "  << REGRESSED" if finding.regressed else ""
        lines.append(
            f"{name:<{name_width}}  {finding.direction:<6}  {baseline:>12}  "
            f"{finding.current:>12.6g}  {change:>8}  {len(series):>4}  "
            f"[{spark}]{verdict}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.regress",
        description="Track BENCH_*.json artifacts against a history "
                    "baseline and flag median regressions.")
    parser.add_argument("--bench-dir", default=".",
                        help="directory holding BENCH_*.json artifacts")
    parser.add_argument("--history", default="BENCH_history.json",
                        help="history file to read and append to")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional degradation before a "
                             "metric counts as regressed (default 0.25)")
    parser.add_argument("--window", type=int, default=5,
                        help="history runs forming the baseline median")
    parser.add_argument("--label", default="",
                        help="label stored with this run (e.g. a commit)")
    parser.add_argument("--timestamp", type=float, default=None,
                        help="override the recorded timestamp "
                             "(deterministic histories in tests)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when any metric regressed")
    parser.add_argument("--no-record", action="store_true",
                        help="compare only; do not append this run")
    args = parser.parse_args(argv)

    benches = load_bench_dir(args.bench_dir)
    if not benches:
        print(f"regress: no BENCH_*.json artifacts under "
              f"{args.bench_dir!r}; nothing to check")
        return 0
    history = BenchHistory(args.history)
    findings = check_regressions(history, benches,
                                 tolerance=args.tolerance,
                                 window=args.window)
    if not args.no_record:
        history.record_run(benches, label=args.label,
                          timestamp=args.timestamp)
        history.save()
    print(format_trend(history, findings, window=args.window))
    regressed = [finding for finding in findings if finding.regressed]
    if regressed:
        print(f"\nregress: {len(regressed)} metric(s) beyond "
              f"{100.0 * args.tolerance:.0f}% tolerance:")
        for finding in regressed:
            print(f"  {finding.bench}.{finding.metric}: "
                  f"{finding.baseline:.6g} -> {finding.current:.6g} "
                  f"({100.0 * finding.worse:+.1f}%, {finding.direction} "
                  f"is better)")
        if args.check:
            return 1
    else:
        print(f"\nregress: all {len(findings)} gated metric(s) within "
              f"{100.0 * args.tolerance:.0f}% of baseline "
              f"({len(history.runs)} run(s) in history)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
