"""The four campaign workloads.

Each workload knows how to set itself up from a seed, run one campaign
(the call the benchmark times), check a campaign's outputs cheaply, and
run a deeper correctness oracle outside the timed region.  ``run.py``
drives them all the same way.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import random
import statistics
import tempfile
import time
import warnings
from typing import Any, Dict, List, Sequence

from repro.casestudy import (build_door_lock_control, build_engine_modes_mtd,
                             build_reengineered_fda)
from repro.io.json_io import trace_to_json
from repro.scenarios import BatchReport, Scenario, run_with_report, runner
from repro.search import SearchConfig, search_coverage
from repro.simulation import CompiledSimulator
from repro.simulation.engine import simulate
from repro.simulation.native import native_available

from .batteries import fda_battery, modes_battery, search_plan

#: Pool size of ``fda_native_pool`` (the host this benchmark was written
#: on has two CPUs).
POOL_WORKERS = 2
#: Scenarios per run checked byte for byte against the reference
#: interpreter.
ORACLE_SAMPLE = 3


class BackendDegraded(RuntimeError):
    """A workload's backend fell back to another one; the run refuses to
    report figures that would be measured on the wrong backend."""


def trace_digest(result: Any) -> str:
    """A type-preserving digest of one result's trace (or its error)."""
    if result.error is not None:
        return "error: " + result.error
    trace = result.trace
    text = repr((trace.ticks,
                 [(name, trace.outputs[name].values())
                  for name in sorted(trace.outputs)],
                 [(name, trace.inputs[name].values())
                  for name in sorted(trace.inputs)],
                 trace.mode_history))
    return hashlib.sha256(text.encode()).hexdigest()


def mode_coverage(component: Any, results: Sequence[Any]) -> float:
    """Transition coverage of *component*'s machines over *results*'
    collected mode histories."""
    report = BatchReport.for_component(component)
    for result in results:
        for path, history in (result.mode_paths or {}).items():
            if path in report.coverage:
                report.coverage[path].observe_history(history)
    return report.overall_transition_coverage()


class Workload:
    """Shared bookkeeping: attempted/failed scenarios and oracle findings."""

    name = ""
    #: True when campaigns run in a process pool on every CPU; serial
    #: workloads are pinned to one CPU
    pooled = False

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.details: Dict[str, Any] = {}
        #: transition coverage and scenario evaluations of one campaign;
        #: both are fixed by the seed, and set by prepare()
        self.coverage = 0.0
        self.evaluations = 0

    # -- the interface run.py drives ---------------------------------------
    def setup(self) -> None:
        """Build the model, generate the battery and compile (timed)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed: warm-up campaign and reference outputs."""
        raise NotImplementedError

    def campaign(self) -> Any:
        """One campaign: the call the benchmark times."""
        raise NotImplementedError

    def ledger_campaign(self) -> Any:
        """The campaign a traced run measures layer by layer."""
        return self.campaign()

    def check(self, output: Any) -> int:
        """Check one campaign; returns the scenario ticks it simulated."""
        raise NotImplementedError

    def oracle(self) -> None:
        """Untimed deep checks after the timed region."""
        raise NotImplementedError

    def trace_figures(self, output: Any) -> Dict[str, float]:
        """Workload-specific per-layer figures, from the last traced
        campaign's output."""
        return {}

    def describe_timings(self, campaign_s: float,
                         ticks_per_s: float) -> None:
        """Add workload-specific views of the raw median timings to the
        run's details."""

    # -- helpers -----------------------------------------------------------
    def fail(self, scenarios_failed: int, problem: str) -> None:
        self.failed += scenarios_failed
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check_results(self, results: Sequence[Any],
                      battery: Sequence[Scenario],
                      reference: Sequence[str]) -> int:
        """Count *results* against the battery and reference digests;
        returns the scenario ticks they simulated."""
        self.attempted += len(battery)
        if [result.name for result in results] != \
                [scenario.name for scenario in battery]:
            self.fail(len(battery), "results do not match the battery")
            return 0
        ticks = 0
        for result, scenario, expected in zip(results, battery, reference):
            if result.error is not None:
                self.fail(1, f"{result.name}: {result.error}")
            elif result.trace.ticks != scenario.ticks:
                self.fail(1, f"{result.name}: {result.trace.ticks} ticks "
                             f"recorded, {scenario.ticks} asked for")
            elif trace_digest(result) != expected:
                self.fail(1, f"{result.name}: trace differs from the "
                             "reference")
            else:
                ticks += scenario.ticks
        return ticks

    def sample_indices(self, count: int) -> List[int]:
        rng = random.Random(f"oracle/{self.name}/{self.seed}")
        return sorted(rng.sample(range(count), min(ORACLE_SAMPLE, count)))

    def check_against_interpreter(self, component: Any,
                                  scenario: Scenario, produced: str) -> None:
        """Byte-compare one produced ``trace_to_json`` with the reference
        interpreter's."""
        self.attempted += 1
        expected = trace_to_json(simulate(component, scenario.stimuli,
                                          scenario.ticks))
        if produced != expected:
            self.fail(1, f"{scenario.name}: trace differs from the "
                         "reference interpreter")


# --------------------------------------------------------------------------
# modes_report
# --------------------------------------------------------------------------

def _report_json(report: BatchReport) -> str:
    data = report.to_json_dict()
    del data["scenarios"]["total_duration_s"]  # wall clock, not an output
    return repr(sorted(data.items()))


class ModesReport(Workload):
    """Fig.-6 engine-modes battery through ``run_with_report``, serial."""

    name = "modes_report"
    scenarios, ticks = 120, 200

    def setup(self) -> None:
        self.model = build_engine_modes_mtd()
        self.battery = modes_battery(self.seed, self.scenarios, self.ticks)
        CompiledSimulator(self.model)

    def campaign(self) -> Any:
        return run_with_report(self.model, self.battery, executor="serial")

    def prepare(self) -> None:
        results, report = self.campaign()
        self.reference = [trace_digest(result) for result in results]
        self.report_json = _report_json(report)
        self.first_results = results
        self.check((results, report))
        self.coverage = report.overall_transition_coverage()
        self.evaluations = len(self.battery)

    def check(self, output: Any) -> int:
        results, report = output
        ticks = self.check_results(results, self.battery, self.reference)
        if _report_json(report) != self.report_json:
            self.fail(len(self.battery),
                      "coverage report differs between campaigns")
        return ticks

    def oracle(self) -> None:
        for index in self.sample_indices(len(self.battery)):
            self.check_against_interpreter(
                self.model, self.battery[index],
                trace_to_json(self.first_results[index].trace))
        self.first_results = None


# --------------------------------------------------------------------------
# fda_native_pool and fda_batch_sweep
# --------------------------------------------------------------------------

class _FdaWorkload(Workload):
    """Shared parts of the two FDA workloads: flat reference and oracle."""

    def reference_from(self, results: Sequence[Any]) -> None:
        """Keep the flat backend's digests and sample traces."""
        self.attempted += len(results)
        for result in results:
            if result.error is not None:
                self.fail(1, f"flat reference {result.name}: "
                             f"{result.error}")
        self.reference = [trace_digest(result) for result in results]
        self.samples = {index: trace_to_json(results[index].trace)
                        for index in self.sample_indices(len(results))
                        if results[index].error is None}

    def warm_up(self, results: Sequence[Any]) -> None:
        """Check the warm-up campaign (run with mode collection)."""
        self.check(results)
        self.coverage = mode_coverage(self.model, results)
        self.evaluations = len(self.battery)
        self.produced = {index: trace_to_json(results[index].trace)
                         for index in self.samples
                         if results[index].error is None}

    def check(self, output: Any) -> int:
        return self.check_results(output, self.battery, self.reference)

    def oracle(self) -> None:
        for index, flat_json in self.samples.items():
            produced = self.produced.get(index)
            if produced != flat_json:
                self.attempted += 1
                self.fail(1, f"{self.battery[index].name}: trace differs "
                             "from the flat backend's")
            self.check_against_interpreter(self.model, self.battery[index],
                                           flat_json)


class FdaNativePool(_FdaWorkload):
    """Sec.-5 FDA, long random walks, native backend in a process pool."""

    name = "fda_native_pool"
    scenarios, ticks = 64, 400
    pooled = True

    def setup(self) -> None:
        # a fresh shared-object cache per set-up: set-up pays the cold build
        os.environ["REPRO_NATIVE_CACHE"] = tempfile.mkdtemp(
            prefix="native-", dir=self.scratch)
        self.model = build_reengineered_fda()
        self.battery = fda_battery(self.seed, self.scenarios, self.ticks,
                                   self.name)
        if not native_available():
            raise BackendDegraded("no C compiler: backend 'native' would "
                                  "run the flat interpreter")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            schedule = CompiledSimulator(self.model,
                                         backend="native").schedule
        degraded = [str(warning.message) for warning in caught
                    if issubclass(warning.category, RuntimeWarning)]
        if schedule.kind != "native" or degraded:
            raise BackendDegraded(
                f"backend 'native' gave a {schedule.kind!r} schedule "
                f"({'; '.join(degraded) or 'no warning'})")
        self.details["native_lowered_ops"] = len(schedule.lowered.lowered_ops)
        self.details["native_fallback_ops"] = \
            len(schedule.lowered.fallback_ops)

    def _pool(self, backend: str, battery: Sequence[Scenario],
              collect_modes: bool = False) -> List[Any]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = runner.run_sharded(
                self.model, battery, executor="process",
                max_workers=POOL_WORKERS, backend=backend,
                collect_modes=collect_modes)
        if backend == "native" and any(
                issubclass(warning.category, RuntimeWarning)
                for warning in caught):
            raise BackendDegraded("backend 'native' warned during a "
                                  "campaign")
        return results

    def campaign(self) -> Any:
        return self._pool("native", self.battery)

    def check(self, output: Any) -> int:
        ticks = super().check(output)
        # the next campaign forks its workers from this process: collect
        # first, so that every campaign forks the same heap
        gc.collect()
        return ticks

    def describe_timings(self, campaign_s: float,
                         ticks_per_s: float) -> None:
        self.details["native_over_flat"] = (
            ticks_per_s / self.details["flat_scenario_ticks_per_s"])

    def ledger_campaign(self) -> Any:
        # worker-side layers, traced in-process on the same battery
        return runner.run_sharded(self.model, self.battery,
                                  executor="serial", backend="native")

    def prepare(self) -> None:
        flat_rates = []
        for _ in range(2):
            started = time.perf_counter()
            results = self._pool("flat", self.battery)
            flat_rates.append(self.scenarios * self.ticks
                              / (time.perf_counter() - started))
        self.reference_from(results)
        self.details["flat_scenario_ticks_per_s"] = statistics.median(
            flat_rates)
        self.warm_up(self._pool("native", self.battery, collect_modes=True))

    def trace_figures(self, output: Any) -> Dict[str, float]:
        """Pool start, IPC and worker utilisation of the process pool, as
        shares of a pool campaign's wall clock."""
        starts = []
        probe = [Scenario(f"probe-{index}", {}, 1)
                 for index in range(POOL_WORKERS)]
        for _ in range(3):
            started = time.perf_counter()
            self._pool("native", probe)
            starts.append(time.perf_counter() - started)
        busy, walls = [], []
        for _ in range(3):
            started = time.perf_counter()
            results = self.campaign()
            walls.append(time.perf_counter() - started)
            self.check(results)
            busy.append(sum(result.duration for result in results)
                        / (POOL_WORKERS * walls[-1]))
        wall = statistics.median(walls)
        # what the pool ships: the model once per worker, each result back
        started = time.perf_counter()
        payload = pickle.dumps(self.model)
        for _ in range(POOL_WORKERS):
            pickle.loads(payload)
        result_bytes = 0
        for result in output:
            shipped = pickle.dumps(result)
            result_bytes += len(shipped)
            pickle.loads(shipped)
        ipc_s = time.perf_counter() - started
        return {"runner.pool_start_share": statistics.median(starts) / wall,
                "runner.ipc_share": ipc_s / wall,
                "runner.result_bytes": result_bytes,
                "runner.worker_busy_ratio": statistics.median(busy)}


class FdaBatchSweep(_FdaWorkload):
    """Sec.-5 FDA, many short random walks, one vectorized sweep."""

    name = "fda_batch_sweep"
    scenarios, ticks = 512, 50

    def setup(self) -> None:
        self.model = build_reengineered_fda()
        self.battery = fda_battery(self.seed, self.scenarios, self.ticks,
                                   self.name)
        if CompiledSimulator(self.model,
                             backend="batch").batch_schedule is None:
            raise BackendDegraded("backend 'batch' gave no batch schedule")

    def _serial(self, backend: str, collect_modes: bool = False) -> List[Any]:
        return runner.run_sharded(self.model, self.battery, executor="serial",
                                  backend=backend,
                                  collect_modes=collect_modes)

    def campaign(self) -> Any:
        return self._serial("batch")

    def prepare(self) -> None:
        self.reference_from(self._serial("flat"))
        self.warm_up(self._serial("batch", collect_modes=True))


# --------------------------------------------------------------------------
# search_coverage
# --------------------------------------------------------------------------

class SearchCoverageWorkload(Workload):
    """Coverage searches from weak batteries, serial, to full coverage.

    One campaign is one search on each model.  Campaigns cycle through the
    seed's search pairs, so the medians over campaigns describe a typical
    search rather than the rare seed that needs many more rounds.
    """

    name = "search_coverage"
    pairs = 12

    def setup(self) -> None:
        self.models = {"engine_modes": build_engine_modes_mtd(),
                       "door_lock": build_door_lock_control()}
        self.plan = search_plan(self.seed, self.pairs)
        self.turn = 0
        for model in self.models.values():
            CompiledSimulator(model)

    def campaign(self) -> Any:
        index = self.turn
        self.turn = (index + 1) % len(self.plan)
        return index, [
            search_coverage(self.models[key], weak,
                            SearchConfig(seed=seed, executor="serial",
                                         max_rounds=40, minimize=True))
            for key, weak, seed in self.plan[index]]

    def prepare(self) -> None:
        passes = [self.campaign() for _ in self.plan]
        self.reference = [[report.to_json() for report in reports]
                          for _index, reports in passes]
        self.first_reports = [reports for _index, reports in passes]
        for output in passes:
            self.check(output)
        everything = [report for reports in self.first_reports
                      for report in reports]
        self.coverage = min(report.transition_coverage()
                            for report in everything)
        self.evaluations = statistics.median(
            sum(report.evaluations for report in reports)
            for reports in self.first_reports)
        self.details["search.evaluations_to_full"] = {
            key: [report.evaluations for report in everything
                  if report.component_name == model.name]
            for key, model in self.models.items()}

    def describe_timings(self, campaign_s: float,
                         ticks_per_s: float) -> None:
        self.details["raw_time_to_coverage_s"] = campaign_s

    def check(self, output: Any) -> int:
        index, reports = output
        ticks = 0
        for report, expected in zip(reports, self.reference[index]):
            self.attempted += report.evaluations
            ticks += report.batch_report.total_ticks
            failed = sum(stats.failed for stats in report.rounds)
            if failed:
                self.fail(failed, f"search seed {report.seed}: {failed} "
                                  "scenarios failed")
            if report.stop_reason != "transitions-covered" \
                    or report.transition_coverage() != 1.0:
                self.fail(report.evaluations - failed,
                          f"search seed {report.seed} stopped with "
                          f"{report.stop_reason!r}")
            elif report.to_json() != expected:
                self.fail(report.evaluations - failed,
                          f"search seed {report.seed}: report differs "
                          "between campaigns")
        return ticks

    def oracle(self) -> None:
        """The minimized corpora replay to full coverage, and sampled
        corpus scenarios match the reference interpreter."""
        for index in self.sample_indices(len(self.plan)):
            for (key, _weak, _seed), search in zip(self.plan[index],
                                                   self.first_reports[index]):
                model = self.models[key]
                results, report = run_with_report(model, search.corpus,
                                                  executor="serial")
                self.attempted += len(results)
                if report.overall_transition_coverage() != 1.0:
                    self.fail(len(results), f"minimized corpus of search "
                                            f"seed {search.seed} replays "
                                            "below full coverage")
                self.check_against_interpreter(
                    model, search.corpus[0], trace_to_json(results[0].trace))
        self.first_reports = None

    def trace_figures(self, output: Any) -> Dict[str, float]:
        """Rounds per campaign and the share of evaluations that earned a
        corpus slot, over every search pair of the seed."""
        rounds = [stats for reports in self.first_reports
                  for report in reports for stats in report.rounds]
        evaluated = sum(stats.evaluated for stats in rounds)
        return {"search.rounds": statistics.median(
                    sum(len(report.rounds) for report in reports)
                    for reports in self.first_reports),
                "search.earned_ratio": sum(stats.earned for stats in rounds)
                / evaluated}


WORKLOADS = {workload.name: workload for workload in
             (ModesReport, FdaNativePool, FdaBatchSweep,
              SearchCoverageWorkload)}
