"""Reporting helpers shared by the benchmark harness.

Every benchmark regenerates one paper artefact (figure or case-study claim)
and prints the regenerated rows/series with a stable ``[Fx]`` prefix so the
output can be compared against EXPERIMENTS.md.  Performance benchmarks can
additionally emit a machine-readable ``BENCH_<name>.json`` artefact
(:func:`write_bench_json`); CI uploads these, so the performance trajectory
is tracked across PRs instead of living only in log output.
"""


import json
import os
import platform
import statistics
import subprocess
import time


def report(experiment_id: str, text: str) -> None:
    """Print one experiment's regenerated artefact with a stable prefix."""
    print(f"\n===== [{experiment_id}] =====")
    print(text)


def time_best(runner, repeats: int = 3) -> float:
    """Best-of-*repeats* wall-clock of ``runner()`` (speedup-gate timing)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        runner()
        best = min(best, time.perf_counter() - start)
    return best


def time_interleaved(runners: dict, rounds: int = 7) -> dict:
    """Wall clock of every round per runner of *runners* (name ->
    callable), timed in interleaved rounds: each round runs every runner
    once, in order, so a burst of load on a shared host slows both sides
    of a comparison instead of one."""
    samples = {name: [] for name in runners}
    for _ in range(rounds):
        for name, runner in runners.items():
            start = time.perf_counter()
            runner()
            samples[name].append(time.perf_counter() - start)
    return samples


def time_best_interleaved(runners: dict, rounds: int = 7) -> dict:
    """Best-of-*rounds* wall clock per runner, timed in interleaved rounds
    (:func:`time_interleaved`).  For gates comparing two paths of one
    engine by a small margin."""
    return {name: min(seconds) for name, seconds
            in time_interleaved(runners, rounds).items()}


def spread(samples) -> dict:
    """``min`` / ``median`` / ``max`` of *samples*: the spread a gate's
    timings are recorded with."""
    return {"min": min(samples), "median": statistics.median(samples),
            "max": max(samples)}


def time_median(runner, repeats: int = 5) -> float:
    """Median-of-*repeats* wall-clock of ``runner()``.

    Medians are the right statistic for rate artefacts that get compared
    *across* runs/PRs: one noisy outlier neither inflates (as with best-of)
    nor drags (as with mean) the recorded figure.
    """
    durations = []
    for _ in range(repeats):
        start = time.perf_counter()
        runner()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha():
    """HEAD of the checkout holding this file, or None outside git."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)), timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def host_fingerprint() -> dict:
    """The host a measurement came from: CPU model and count, Python,
    NumPy, C compiler banner (the native backend's toolchain) and the git
    sha of the measured tree.  Figures are only comparable between runs
    with equal fingerprints."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.simulation.native.toolchain import (compiler_banner,
                                                   find_compiler)
    compiler = find_compiler()
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "numpy": numpy_version,
        "compiler": compiler_banner(compiler) if compiler else None,
        "git_sha": _git_sha(),
    }


def write_bench_json(name: str, payload: dict, telemetry=None) -> str:
    """Write ``BENCH_<name>.json``, the machine-readable benchmark artefact.

    The file lands in the current working directory unless ``BENCH_OUT_DIR``
    redirects it.  Keys are sorted so diffs between two uploads are stable.
    When *telemetry* (a :class:`repro.obs.Telemetry`) is given, its metrics
    and span tree are embedded under an ``"observability"`` key, so one
    artefact carries both the gate verdicts and the telemetry that explains
    them.  With ``BENCH_HISTORY`` set, the payload's gated metrics are also
    appended to that :class:`repro.obs.regress.BenchHistory` file, so local
    benchmark runs build the same regression series CI tracks.  Returns the
    written path.  Every file embeds the :func:`host_fingerprint` under
    ``"host"``.
    """
    payload = dict(payload, host=host_fingerprint())
    if telemetry is not None:
        payload["observability"] = {
            "metrics": telemetry.registry.to_json_dict(),
            "spans": telemetry.tracer.to_json_dict(),
        }
    out_dir = os.environ.get("BENCH_OUT_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    history_path = os.environ.get("BENCH_HISTORY")
    if history_path:
        from repro.obs.regress import BenchHistory, flatten_numeric
        history = BenchHistory(history_path)
        history.record_run({name: flatten_numeric(payload)})
        history.save()
    return path
