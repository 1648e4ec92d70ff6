"""Tests of the campaign benchmark itself.

Run with ``python -m pytest campaign_bench/tests -q`` from the repository
root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

from campaign_bench import bench
from campaign_bench.batteries import fda_battery, modes_battery, search_plan
from campaign_bench.ledger import (LAYER_TARGETS, SCALAR_FALLBACK_TARGET,
                                   Ledger, resolve, tracing)
from campaign_bench.workloads import (FdaBatchSweep, FdaNativePool,
                                      ModesReport, SearchCoverageWorkload)
from repro.casestudy import build_engine_modes_mtd
from repro.scenarios import run_with_report
from repro.search import SearchConfig, search_coverage
from repro.simulation import CompiledSimulator

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def materialized(battery):
    """The battery as plain data: names, horizons and per-tick values."""
    rows = []
    for scenario in battery:
        values = {}
        for port in sorted(scenario.stimuli):
            spec = scenario.stimuli[port]
            materialize = getattr(spec, "materialize", None)
            values[port] = (materialize(scenario.ticks)
                            if materialize is not None else spec)
        rows.append((scenario.name, scenario.ticks, values))
    return rows


BATTERIES = {
    "modes": lambda seed: materialized(modes_battery(seed, 6, 30)),
    "fda": lambda seed: materialized(fda_battery(seed, 6, 30)),
    "search": lambda seed: [(key, materialized(weak), search_seed)
                            for pair in search_plan(seed, 3)
                            for key, weak, search_seed in pair],
}


def original_objects():
    """The objects bound at every location the ledger wraps."""
    locations = {(module, owner, attribute)
                 for _layer, module, owner, attribute in LAYER_TARGETS}
    locations.add(SCALAR_FALLBACK_TARGET)
    return {location: vars(resolve(*location[:2]))[location[2]]
            for location in locations}


@pytest.mark.parametrize("kind", sorted(BATTERIES))
def test_a_seed_reproduces_its_battery(kind):
    assert BATTERIES[kind](7) == BATTERIES[kind](7)


@pytest.mark.parametrize("kind", sorted(BATTERIES))
def test_another_seed_gives_another_battery(kind):
    assert BATTERIES[kind](7) != BATTERIES[kind](8)


def test_traced_run_restores_every_wrapped_function():
    before = original_objects()
    model = build_engine_modes_mtd()
    battery = modes_battery(3, 4, 30)
    ledger = Ledger()
    with tracing(ledger):
        assert original_objects() != before  # the wrappers are in place
        simulator = CompiledSimulator(model)
        run_with_report(model, battery, executor="serial")
        search_coverage(model, battery[:1],
                        SearchConfig(seed=1, max_rounds=2))
    after = original_objects()
    assert after.keys() == before.keys()
    for location, original in before.items():
        assert after[location] is original, location
    assert not hasattr(simulator.schedule.step, "__wrapped__")
    figures = ledger.take()
    assert figures["calls"]["kernel.step"] > 0
    assert figures["self_s"]["report.observe"] > 0


def test_wrappers_are_restored_when_the_campaign_raises():
    before = original_objects()
    with pytest.raises(RuntimeError):
        with tracing(Ledger()):
            raise RuntimeError("campaign failed")
    after = original_objects()
    assert all(after[location] is original
               for location, original in before.items())


def _bench_names(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {entry["name"]: entry["unit"]
                for entry in json.load(f)[section]}


def test_benchmark_json_names_the_metrics_the_run_prints():
    assert _bench_names("end_to_end") == bench.END_TO_END
    assert _bench_names("per_layer") == bench.PER_LAYER


@pytest.fixture
def smoke_sizes(monkeypatch, tmp_path):
    """Shrink every workload to a few scenarios and keep the native cache
    and temp files of the run inside the test's directory."""
    monkeypatch.setattr(ModesReport, "scenarios", 8)
    monkeypatch.setattr(ModesReport, "ticks", 40)
    monkeypatch.setattr(FdaNativePool, "scenarios", 4)
    monkeypatch.setattr(FdaNativePool, "ticks", 30)
    monkeypatch.setattr(FdaBatchSweep, "scenarios", 8)
    monkeypatch.setattr(FdaBatchSweep, "ticks", 20)
    monkeypatch.setattr(SearchCoverageWorkload, "pairs", 2)
    monkeypatch.setattr(bench, "SETUP_REPEATS", (2, 0.0, 2))
    monkeypatch.setattr(bench, "MIN_CAMPAIGNS", 2)
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "native"))
    return tmp_path


@pytest.mark.parallel
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["modes_report", "fda_native_pool",
                                      "fda_batch_sweep", "search_coverage"])
def test_smoke_run_prints_every_metric(workload, trace, smoke_sizes,
                                       capsys):
    args = argparse.Namespace(workload=workload, seed=5, seconds=0.0,
                              trace=trace)
    result = bench.run(args, str(smoke_sizes))
    detail = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert detail["seed"] == 5 and detail["host"]["cpu_count"]
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))
    json.dumps(result)  # the last line of a real run
    if not trace:
        assert result["metrics"]["coverage.transitions"]["value"] > 0
        assert result["metrics"]["scenario_ticks_per_s"]["value"] > 0


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "campaign_bench"),
                    tmp_path / "campaign_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "campaign_bench/run.py", "--workload",
         "modes_report", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
