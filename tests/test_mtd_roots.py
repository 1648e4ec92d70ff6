"""MTD roots on the flat IR: the Fig.-6 engine modes and the door lock.

A mode-transition diagram at the root of a model compiles to the flat
schedule IR exactly like one inside a hierarchy: a ``mode`` op and a
``switch`` over its mode regions.  These tests pin what that makes
reachable for the case-study roots: the flat, batch and native backends
match the interpreter byte for byte (``mode_history`` included, read from
the machine's mode buffer), op profiles count region entries per mode, a
failing scenario leaves a post-mortem bundle, and the native backend
lowers every op of the Fig.-6 machine.
"""

import os
import random

import pytest

from repro import obs
from repro.casestudy import build_door_lock_control, build_engine_modes_mtd
from repro.io import trace_to_json
from repro.obs import read_bundle
from repro.scenarios import (ModeSequence, RandomWalk, Scenario,
                             active_mode_paths, run_sharded)
from repro.simulation import (CompiledSimulator, FlatSchedule, Simulator,
                              compile_component, native_available)
from repro.simulation.engine import run_stepped


def _levels(rng, levels, ticks):
    """A mode sequence holding random *levels* for 2-12 ticks each."""
    segments, covered = [], 0
    while covered < ticks:
        duration = rng.randint(2, 12)
        segments.append((rng.choice(levels), duration))
        covered += duration
    return ModeSequence(segments)


def engine_modes_battery(seed, count=10, ticks=60):
    """Boundary values of the Fig.-6 guards on ``n``/``ped``, a random walk
    on ``t_eng``."""
    rng = random.Random(seed)
    return [Scenario(f"engine-{index}", {
        "n": _levels(rng, (0.0, 1.0, 50.0, 51.0, 700.0, 701.0, 1500.0,
                           1501.0, 3001.0, 4500.0), ticks),
        "ped": _levels(rng, (0.0, 4.0, 5.0, 6.0, 80.0, 81.0, 100.0), ticks),
        "t_eng": RandomWalk(rng.randrange(2 ** 31), start=40.0, step=2.0,
                            low=-20.0, high=110.0)}, ticks)
        for index in range(count)]


def door_lock_battery(seed, count=10, ticks=40):
    """Speeds around the auto-lock and unlock thresholds, board voltages
    around 9 V, rare crashes."""
    rng = random.Random(seed)
    return [Scenario(f"door-{index}", {
        "T4S": _levels(rng, ("locked", "unlocked"), ticks),
        "CRSH": _levels(rng, ("no_crash",) * 5 + ("crash",), ticks),
        "FZG_V": _levels(rng, (8.0, 9.0, 9.5, 12.0), ticks),
        "V_SPEED": _levels(rng, (0.0, 0.5, 1.0, 5.0, 10.0, 10.5, 50.0),
                           ticks)}, ticks)
        for index in range(count)]


CASES = {"engine_modes": (build_engine_modes_mtd, engine_modes_battery),
         "door_lock": (build_door_lock_control, door_lock_battery)}


def _skip_unavailable(backend):
    if backend == "batch":
        pytest.importorskip("numpy")
    if backend == "native" and not native_available():
        pytest.skip("no C compiler on this host")


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_study_mtd_roots_compile_to_flat_schedules(case):
    model = CASES[case][0]()
    schedule = compile_component(model)
    assert isinstance(schedule, FlatSchedule)
    assert schedule.fallback_paths == []
    summary = schedule.ops_summary()
    assert f"mode  {model.name} [{len(model.modes())} modes" in summary[0]
    assert "switch" in summary[1]


@pytest.mark.parametrize("backend", ["flat", "batch", "native"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_case_study_mtd_roots_match_the_interpreter(case, backend):
    """Every scenario's trace -- outputs, inputs and ``mode_history`` --
    serializes to the interpreter's bytes, through single runs and the
    sharded runner, whose ``collect_modes`` histories match too."""
    _skip_unavailable(backend)
    build, battery_of = CASES[case]
    model = build()
    battery = battery_of(seed=31)
    interpreter = Simulator(model)
    simulator = CompiledSimulator(model, backend=backend)
    results = run_sharded(model, battery, executor="serial", backend=backend,
                          collect_modes=True)
    visited = set()
    for scenario, result in zip(battery, results):
        expected = interpreter.run(scenario.stimuli, scenario.ticks)
        assert len(expected.mode_history) == scenario.ticks
        visited.update(expected.mode_history)
        expected_json = trace_to_json(expected)
        assert trace_to_json(simulator.run(scenario.stimuli,
                                           scenario.ticks)) == expected_json
        assert result.error is None, (scenario.name, result.error)
        assert trace_to_json(result.trace) == expected_json
        assert result.mode_paths == {model.name: expected.mode_history}
    assert len(visited) >= 3  # the battery drives the machine around


def test_mode_paths_read_the_root_machine_like_the_state_walk():
    model = build_engine_modes_mtd()
    schedule = compile_component(model)
    expected = []

    def observing(inputs, state, tick):
        outputs, state = model.react(inputs, state, tick)
        expected.append(active_mode_paths(model, state))
        return outputs, state

    scenario = engine_modes_battery(seed=5, count=1)[0]
    trace = run_stepped(model, observing, scenario.stimuli, scenario.ticks,
                        False)
    state, observed = schedule.initial_state(), []
    for tick in range(scenario.ticks):
        inputs = {name: trace.input(name)[tick] for name in trace.inputs}
        _outputs, state = schedule.step(inputs, state, tick)
        observed.append(schedule.mode_paths(state))
        assert schedule.root_mode(state) == trace.mode_history[tick]
    assert observed == expected


@pytest.mark.parametrize("backend", ["flat", "batch"])
def test_op_profile_counts_region_entries_per_mode_of_the_fig6_root(backend):
    _skip_unavailable(backend)
    model = build_engine_modes_mtd()
    scenario = engine_modes_battery(seed=7, count=1)[0]
    with obs.session(profile_ops=True) as telemetry:
        trace = CompiledSimulator(model, backend=backend).run(
            scenario.stimuli, scenario.ticks)
    (profile,) = telemetry.profiles.values()
    (entries,) = profile.region_entries.values()
    assert list(entries) == model.mode_names()
    assert sum(entries.values()) == scenario.ticks
    for mode in set(trace.mode_history):
        assert entries[mode] == trace.mode_history.count(mode)


def test_failing_fig6_scenario_writes_a_postmortem_bundle(tmp_path):
    """A guard raising mid-run (a string engine speed in Cranking) is
    recorded at the machine's ``mode`` op, ring and all."""
    model = build_engine_modes_mtd()
    boom = Scenario("boom", {"n": [0.0, 800.0, 900.0, "stalled", 0.0],
                             "ped": [0.0] * 5, "t_eng": [20.0] * 5}, 5)
    healthy = Scenario("healthy", {"n": [0.0, 800.0, 900.0, 900.0, 0.0],
                                   "ped": [0.0] * 5, "t_eng": [20.0] * 5}, 5)
    with obs.session(flight_recording=True, ring_ticks=4,
                     postmortem_dir=str(tmp_path)) as telemetry:
        results = run_sharded(model, [healthy, boom], executor="serial")
        bundles = list(telemetry.bundles)
    assert [result.ok for result in results] == [True, False]
    assert len(bundles) == 1 and os.path.exists(bundles[0])
    bundle = read_bundle(bundles[0])
    assert bundle["scenario"] == "boom"
    failing = bundle["failing"]
    assert failing["tick"] == 3
    assert failing["op_kind"] == "mode"
    assert failing["op_label"].startswith(model.name)
    assert failing["inputs"]["n"] == "stalled"
    assert [snapshot["tick"] for snapshot in bundle["ring"]] == [0, 1, 2]


def test_fig6_root_lowers_natively_without_fallbacks():
    if not native_available():
        pytest.skip("no C compiler on this host")
    model = build_engine_modes_mtd()
    schedule = CompiledSimulator(model, backend="native").schedule
    assert schedule.kind == "native"
    assert len(schedule.lowered.lowered_ops) == 7  # the mode op, 6 exprs
    assert schedule.lowered.fallback_ops == []
    scenario = engine_modes_battery(seed=11, count=1)[0]
    simulator = CompiledSimulator(model, backend="native")
    simulator.run(scenario.stimuli, scenario.ticks)
    assert simulator.schedule.trampoline_calls == 0
