"""Whole-horizon runs of the flat backend (``FlatSchedule.run_horizon``).

``CompiledSimulator.run`` and ``execute_scenario(collect_modes=True)`` run
a flat schedule's own step as one whole-horizon run: the stimuli are drawn
once, the kernels loop over the ticks and the trace is built from columns.
That run must be indistinguishable from driving the flat step tick by tick
-- forced here by installing a wrapper as ``schedule.step`` -- and from the
batch and native backends and the reference interpreter: identical
``trace_to_json`` bytes (``mode_history`` included), identical exception
type, message and tick, identical ``collect_modes`` histories.
"""

import contextlib
import random

import pytest

from repro import obs
from repro.casestudy import (build_door_lock_control, build_engine_modes_mtd,
                             build_reengineered_fda, crash_scenario)
from repro.core.clocks import every
from repro.core.components import ExpressionComponent
from repro.core.errors import ExpressionEvalError
from repro.core.values import ABSENT, Stream
from repro.io.json_io import trace_to_json
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.notations.mtd import ModeTransitionDiagram
from repro.notations.std import StateTransitionDiagram
from repro.scenarios import (RandomWalk, Scenario, active_mode_paths,
                             execute_scenario)
from repro.simulation import (ClockGatedComponent, CompiledSimulator,
                              Simulator, native_available)
from repro.simulation.engine import draw_stimuli, prepare_feeds, run_stepped
from repro.simulation.schedule_ir import FlatSchedule

_HAS_NATIVE = native_available()


@contextlib.contextmanager
def _stepping(schedule):
    """Install a wrapper as ``schedule.step`` for the block: a substituted
    step, so runs go tick by tick; yields the ticks it was called at."""
    own = schedule.step
    calls = []

    def wrapped(inputs, state, tick):
        calls.append(tick)
        return own(inputs, state, tick)

    schedule.step = wrapped
    try:
        yield calls
    finally:
        schedule.step = own


def _per_tick(simulator):
    """*simulator*'s run with its step wrapped: the per-tick path."""
    def run(stimuli, ticks):
        with _stepping(simulator.schedule):
            return simulator.run(stimuli, ticks)
    return run


def _pinned(runner, stimuli, ticks):
    """``(trace_to_json text, None)`` on success, ``(None, (exception type,
    message, failing tick))`` on failure; the failing tick is the shortest
    horizon that raises."""
    try:
        return trace_to_json(runner(stimuli, ticks)), None
    except Exception as exc:  # noqa: BLE001 - the comparison IS the test
        failing_tick = 0
        while failing_tick < ticks:
            try:
                runner(stimuli, failing_tick + 1)
            except Exception:  # noqa: BLE001
                break
            failing_tick += 1
        return None, (type(exc), str(exc), failing_tick)


def _raising_at(tick, values):
    """A callable stimulus: *values* by tick, raising at *tick*."""
    def stimulus(now):
        if now == tick:
            raise ValueError(f"stimulus failed at tick {now}")
        return values[now] if now < len(values) else ABSENT
    return stimulus


# -- models -------------------------------------------------------------


def _gated_divider():
    """``q = a / b`` behind an ``every(2)`` gate plus a unit-delayed
    running sum: a gate, a buffer and a run leaf; ``b == 0`` on a gated
    tick raises a division by zero."""
    core = DataFlowDiagram("Core")
    core.add_input("a")
    core.add_input("b")
    core.add_output("q")
    divide = ExpressionComponent("Div", {"out": "a / b"})
    divide.declare_interface_from_expressions()
    core.add_subcomponent(divide)
    core.connect("a", "Div.a")
    core.connect("b", "Div.b")
    core.connect("Div.out", "q")
    top = DataFlowDiagram("GatedDivider")
    top.add_input("a")
    top.add_input("b")
    top.add_output("q")
    top.add_output("sum")
    top.add_subcomponent(ClockGatedComponent(core, every(2), name="G"))
    add = ExpressionComponent("Add", {"out": "a + z"})
    add.declare_interface_from_expressions()
    top.add(add, UnitDelay("Z", initial=0))
    top.connect("a", "G.a")
    top.connect("b", "G.b")
    top.connect("G.q", "q")
    top.connect("a", "Add.a")
    top.connect("Add.out", "Z.in1")
    top.connect("Z.out", "Add.z")
    top.connect("Add.out", "sum")
    return top


def _late_produced_child():
    """A non-feedthrough composite fed by a later-scheduled producer: one
    correction-tracked ``[nested]`` run op."""
    child = DataFlowDiagram("Child")
    child.add_input("u")
    child.add_output("y")
    child.add_subcomponent(UnitDelay("Z", initial=0))
    child.connect("u", "Z.in1")
    child.connect("Z.out", "y")
    parent = DataFlowDiagram("Parent")
    parent.add_input("u")
    parent.add_output("y")
    add = ExpressionComponent("A", {"out": "u0 + fb"})
    add.declare_interface_from_expressions()
    parent.add(add, child)
    parent.connect("u", "A.u0")
    parent.connect("Child.y", "A.fb")
    parent.connect("A.out", "Child.u")
    parent.connect("A.out", "y")
    return parent


def _expression_machine(name, low, high):
    """A two-mode MTD over ``a``: ``Lo`` doubles, ``Hi`` negates."""
    mtd = ModeTransitionDiagram(name)
    mtd.add_input("a")
    mtd.add_output("out")
    mtd.add_output("mode")
    for mode, source in (("Lo", "a * 2"), ("Hi", "0 - a")):
        block = ExpressionComponent(f"{name}{mode}", {"out": source})
        block.add_input("a")
        block.add_output("out")
        mtd.add_mode(mode, block)
    mtd.add_transition("Lo", "Hi", f"a > {high}")
    mtd.add_transition("Hi", "Lo", f"a < {low}")
    return mtd


def _machine_in_mode_region():
    """An MTD root whose ``Sub`` mode holds a composite with a nested
    machine: the inner machine reports only while ``Sub`` is active."""
    sub = DataFlowDiagram("SubB")
    sub.add_input("a")
    sub.add_output("out")
    sub.add_subcomponent(_expression_machine("N", 0, 2))
    sub.connect("a", "N.a")
    sub.connect("N.out", "out")
    plain = ExpressionComponent("PlainB", {"out": "a + 1"})
    plain.add_input("a")
    plain.add_output("out")
    root = ModeTransitionDiagram("Outer")
    root.add_input("a")
    root.add_output("out")
    root.add_output("mode")
    root.add_mode("Plain", plain)
    root.add_mode("Sub", sub)
    root.add_mode("Idle", None)
    root.add_transition("Plain", "Sub", "a > 4")
    root.add_transition("Sub", "Idle", "a < -2")
    root.add_transition("Idle", "Plain", "a > 0")
    return root


def _run_leaf_with_machines():
    """A composite whose entry ``A`` -- an MTD with a nested machine in
    one mode, behind a unit delay -- is scheduled before its producer,
    next to an STD: ``A`` is a correction-tracked ``[nested]`` run over
    its own flat program and the STD a leaf step; both report through the
    state walk."""
    entry = DataFlowDiagram("A")
    entry.add_input("a")
    entry.add_output("out")
    entry.add_subcomponent(_machine_in_mode_region())
    entry.connect("a", "Outer.a")
    entry.add_subcomponent(UnitDelay("Z", initial=0))
    entry.connect("Outer.out", "Z.in1")
    entry.connect("Z.out", "out")
    std = StateTransitionDiagram("Toggle")
    std.add_input("x")
    std.add_output("state")
    std.add_state("Off", initial=True)
    std.add_state("On")
    std.add_transition("Off", "On", "x > 3")
    std.add_transition("On", "Off", "x < 0")
    producer = ExpressionComponent("P", {"out": "x + fb"})
    producer.declare_interface_from_expressions()
    top = DataFlowDiagram("Barrier")
    top.add_input("x")
    top.add_output("out")
    top.add_output("state")
    top.add(entry, producer, std)
    top.connect("x", "P.x")
    top.connect("P.out", "A.a")
    top.connect("A.out", "P.fb")
    top.connect("x", "Toggle.x")
    top.connect("Toggle.state", "state")
    top.connect("P.out", "out")
    return top


def _walk(seed, ticks, low=-6, high=8):
    rng = random.Random(seed)
    return Stream([rng.randint(low, high) for _ in range(ticks)])


def _fda_stimuli(seed):
    return {port: RandomWalk(seed + index, start=start, step=step)
            for index, (port, start, step) in enumerate(
                [("n", 800.0, 400.0), ("ped", 20.0, 12.0),
                 ("t_eng", 40.0, 3.0), ("pos", 30.0, 6.0),
                 ("pos_des", 30.0, 6.0), ("throttle_angle", 30.0, 6.0)])}


_FIG6 = {"n": [0.0, 60.0, 800.0, 800.0, 1600.0, 3500.0, 800.0, 0.0, 40.0],
         "ped": [0.0, 0.0, 3.0, 50.0, 90.0, 90.0, 0.0, 0.0, 6.0],
         "t_eng": RandomWalk(5, start=40.0, step=2.0)}


def _door_lock_stimuli(ticks):
    model = build_door_lock_control()
    return {name: values for name, values in crash_scenario(ticks).items()
            if name in model.input_names()}


_CASES = [
    ("gated", _gated_divider,
     {"a": Stream([4, 6, ABSENT, 9, 2 ** 70, 5, 3]),
      "b": Stream([2, 4, 5, 3, 7, ABSENT, 1])}, 7),
    # b == 0 on gated tick 4: ticks 0..3 run first
    ("step_error_mid_horizon", _gated_divider,
     {"a": Stream([4, 6, 1, 9, 2, 5]), "b": Stream([2, 0, 5, 3, 0, 1])}, 6),
    # the draw raises at tick 3: ticks 0..2 run first
    ("draw_error", _gated_divider,
     {"a": _raising_at(3, [1, 2, 3, 4, 5]), "b": Stream([1] * 5)}, 5),
    # a step error at tick 2 beats the later draw error at tick 3
    ("step_error_before_draw_error", _gated_divider,
     {"a": _raising_at(3, [1, 2, 3, 4, 5]), "b": Stream([1, 1, 0, 1, 1])},
     5),
    ("draw_error_at_tick_0", _gated_divider,
     {"a": _raising_at(0, []), "b": Stream([1])}, 3),
    ("zero_ticks", _gated_divider, {"a": Stream([1]), "b": Stream([1])}, 0),
    ("nested_leaf", _late_produced_child, {"u": _walk(1, 12)}, 12),
    ("mtd_root", build_engine_modes_mtd, _FIG6, 9),
    ("mtd_root_enum_inputs", build_door_lock_control,
     _door_lock_stimuli(8), 8),
    ("mode_region_machine", _machine_in_mode_region, {"a": _walk(2, 30)},
     30),
]


@pytest.mark.parametrize("name,build,stimuli,ticks", _CASES,
                         ids=[case[0] for case in _CASES])
def test_flat_horizon_matches_per_tick_backends_and_interpreter(
        name, build, stimuli, ticks):
    model = build()
    flat = CompiledSimulator(model, backend="flat")
    assert flat.runs_horizon(flat.schedule.step)
    expected = _pinned(Simulator(model).run, stimuli, ticks)
    runners = {"flat horizon": flat.run, "flat per-tick": _per_tick(flat),
               "batch": CompiledSimulator(model, backend="batch").run}
    if _HAS_NATIVE:
        runners["native"] = CompiledSimulator(model, backend="native").run
    for label, runner in runners.items():
        assert _pinned(runner, stimuli, ticks) == expected, (name, label)


def test_the_cases_exercise_what_they_name():
    _name, _build, stimuli, ticks = _CASES[1]
    _trace, (kind, _message, tick) = _pinned(
        CompiledSimulator(_gated_divider()).run, stimuli, ticks)
    assert (kind, tick) == (ExpressionEvalError, 4)
    summary = "\n".join(CompiledSimulator(_late_produced_child())
                        .schedule.ops_summary())
    assert "[nested] (correction-tracked)" in summary
    machines = CompiledSimulator(_machine_in_mode_region()).schedule.machines
    assert [bool(machine.within) for machine in machines] == [False, True]


def test_flat_runs_take_the_horizon(monkeypatch):
    """Neither ``CompiledSimulator.run`` nor ``execute_scenario`` with
    ``collect_modes`` drives the flat step through the per-tick loop."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-tick driver called")

    monkeypatch.setattr("repro.simulation.compiled.run_stepped", refuse)
    monkeypatch.setattr("repro.scenarios.runner.run_stepped", refuse)
    model = build_engine_modes_mtd()
    simulator = CompiledSimulator(model)
    simulator.run(_FIG6, 9)
    result = execute_scenario(simulator, Scenario("s", _FIG6, 9),
                              collect_modes=True)
    assert result.error is None
    assert result.mode_paths["EngineOperationModes"] == \
        result.trace.mode_history


_HISTORY_CASES = [
    ("fig6", build_engine_modes_mtd, _FIG6, 9),
    ("door_lock", build_door_lock_control, _door_lock_stimuli(8), 8),
    ("fda", build_reengineered_fda, _fda_stimuli(3), 40),
    ("mode_region_machine", _machine_in_mode_region, {"a": _walk(2, 40)},
     40),
    ("run_leaf_with_machines", _run_leaf_with_machines,
     {"x": _walk(4, 40, -3, 6)}, 40),
]


def _interpreter_histories(model, stimuli, ticks):
    histories = {}

    def observing(inputs, state, tick):
        outputs, state = model.react(inputs, state, tick)
        for path, mode in active_mode_paths(model, state).items():
            histories.setdefault(path, []).append(mode)
        return outputs, state

    return run_stepped(model, observing, stimuli, ticks, False), histories


@pytest.mark.parametrize("name,build,stimuli,ticks", _HISTORY_CASES,
                         ids=[case[0] for case in _HISTORY_CASES])
def test_collect_modes_histories_equal_observing_steps(name, build, stimuli,
                                                       ticks):
    """The horizon's histories equal ``observing_step``'s -- same paths,
    same per-tick modes, same key order -- and the interpreter's."""
    model = build()
    simulator = CompiledSimulator(model)
    assert type(simulator.schedule) is FlatSchedule
    scenario = Scenario(name, stimuli, ticks)
    horizon = execute_scenario(simulator, scenario, collect_modes=True)
    with _stepping(simulator.schedule) as calls:
        stepped = execute_scenario(simulator, scenario, collect_modes=True)
    assert calls == list(range(ticks))
    assert horizon.error is None and stepped.error is None, \
        (horizon.error, stepped.error)
    assert trace_to_json(horizon.trace) == trace_to_json(stepped.trace)
    assert list(horizon.mode_paths.items()) == \
        list(stepped.mode_paths.items())
    reference, histories = _interpreter_histories(model, stimuli, ticks)
    assert trace_to_json(horizon.trace) == trace_to_json(reference)
    assert horizon.mode_paths == histories
    assert len(horizon.mode_paths) >= 1


def test_history_cases_exercise_regions_and_run_leaves():
    nested = CompiledSimulator(_run_leaf_with_machines()).schedule
    assert nested.fallback_paths == ["Barrier/A"]
    result = execute_scenario(
        CompiledSimulator(_run_leaf_with_machines()),
        Scenario("s", {"x": _walk(4, 40, -3, 6)}, 40), collect_modes=True)
    paths = set(result.mode_paths)
    assert {"Barrier/A/Outer", "Barrier/A/Outer/Sub/N",
            "Barrier/Toggle"} <= paths
    # the inner machine reports on the ticks its region is active only
    assert len(result.mode_paths["Barrier/A/Outer/Sub/N"]) \
        == result.mode_paths["Barrier/A/Outer"].count("Sub") < 40
    fda = execute_scenario(CompiledSimulator(build_reengineered_fda()),
                           Scenario("fda", _fda_stimuli(3), 40),
                           collect_modes=True)
    assert len(fda.mode_paths) == 4


def test_collect_modes_errors_match_the_per_tick_path():
    model = _gated_divider()
    simulator = CompiledSimulator(model)
    for name, _build, stimuli, ticks in _CASES[1:5]:
        scenario = Scenario(name, stimuli, ticks)
        horizon = execute_scenario(simulator, scenario, collect_modes=True)
        with _stepping(simulator.schedule):
            stepped = execute_scenario(simulator, scenario,
                                       collect_modes=True)
        assert horizon.error is not None
        assert horizon.error == stepped.error, name


@pytest.mark.parametrize("collect_modes", [False, True])
def test_a_wrapped_step_is_called_once_per_tick(collect_modes):
    """A wrapper installed as ``schedule.step`` (the campaign ledger's
    contract) is called exactly once per tick, in tick order; so is the
    step of a ``check_types`` simulator."""
    model = build_engine_modes_mtd()
    expected = execute_scenario(CompiledSimulator(model),
                                Scenario("s", _FIG6, 9), collect_modes)
    for check_types in (False, True):
        simulator = CompiledSimulator(model, check_types=check_types)
        with _stepping(simulator.schedule) as calls:
            result = execute_scenario(simulator, Scenario("s", _FIG6, 9),
                                      collect_modes)
        assert calls == list(range(9)), check_types
        assert trace_to_json(result.trace) == trace_to_json(expected.trace)
        assert result.mode_paths == expected.mode_paths


@pytest.mark.parametrize("collect_modes", [False, True])
def test_check_types_runs_still_check_every_tick(collect_modes):
    """``check_types`` runs never take the horizon: the per-tick driver
    type-checks inputs and outputs, exactly like the interpreter."""
    model = build_engine_modes_mtd()
    stimuli = {"n": [0.0, "fast"], "ped": [0.0, 1.0], "t_eng": [1.0, 2.0]}
    simulator = CompiledSimulator(model, check_types=True)
    assert not simulator.runs_horizon(simulator.schedule.step)
    expected = _pinned(Simulator(model, check_types=True).run, stimuli, 2)
    assert expected[1][0].__name__ == "TypeCheckError"
    assert _pinned(simulator.run, stimuli, 2) == expected
    result = execute_scenario(simulator, Scenario("s", stimuli, 2),
                              collect_modes)
    assert result.error == "TypeCheckError: " + expected[1][1]


def test_the_default_step_closure_stays_the_same_object():
    simulator = CompiledSimulator(build_engine_modes_mtd())
    schedule = simulator.schedule
    step = schedule.step
    assert schedule.own_step is step
    simulator.run(_FIG6, 9)
    for collect_modes in (False, True):
        execute_scenario(simulator, Scenario("s", _FIG6, 9), collect_modes)
    with obs.session(profile_ops=True):
        simulator.run(_FIG6, 9)
    with _stepping(schedule):
        simulator.run(_FIG6, 9)
    assert schedule.step is step and schedule.own_step is step


def test_draw_stimuli_is_tick_major_and_holds_the_failure():
    model = _gated_divider()
    feeds = prepare_feeds(model, {"a": [1, 2, 3], "b": _raising_at(2, [7, 8])},
                          4)
    columns, horizon, failure = draw_stimuli(feeds, 4)
    # a failure at tick k cuts every column at k
    assert columns == [[1, 2], [7, 8]] and horizon == 2
    assert isinstance(failure, ValueError)
    columns, horizon, failure = draw_stimuli(prepare_feeds(model, {"b": [5]},
                                                           2), 2)
    assert columns == [[ABSENT, ABSENT], [5, ABSENT]] and horizon == 2
    assert failure is None

    # materialized feeds and constants are sliced whole; only callables
    # are drawn per tick, tick-major among themselves
    calls = []

    def logged(port, fail_at=None):
        def stimulus(tick):
            calls.append((port, tick))
            if tick == fail_at:
                raise RuntimeError(f"{port} failed at {tick}")
            return tick
        return stimulus

    class Walk:
        def materialize(self, ticks):
            calls.append(("walk", ticks))
            return [0.5] * (ticks + 2)

    wide = DataFlowDiagram("Wide")
    for port in "abcd":
        wide.add_input(port)
    feeds = prepare_feeds(wide, {"a": logged("a"), "b": Walk(), "c": 7,
                                 "d": logged("d")}, 3)
    assert calls == [("walk", 3)]
    columns, horizon, failure = draw_stimuli(feeds, 3)
    assert columns == [[0, 1, 2], [0.5] * 3, [7] * 3, [0, 1, 2]]
    assert horizon == 3 and failure is None
    assert calls[1:] == [("a", 0), ("d", 0), ("a", 1), ("d", 1), ("a", 2),
                         ("d", 2)]
    del calls[:]
    feeds = prepare_feeds(wide, {"a": logged("a"), "b": Stream([1, 2]),
                                 "d": logged("d", fail_at=1)}, 4)
    columns, horizon, failure = draw_stimuli(feeds, 4)
    assert columns == [[0], [1], [ABSENT], [0]] and horizon == 1
    assert str(failure) == "d failed at 1"
    assert calls == [("a", 0), ("d", 0), ("a", 1), ("d", 1)]

    # a check runs in run_stepped's order: a rejection at (t, p) beats a
    # draw failure later in that order, and ends the horizon the same way
    def reject(value):
        def check(index, tick, drawn):
            if drawn == value:
                raise TypeError(f"port {index} rejects {drawn!r} at {tick}")
        return check

    feeds = prepare_feeds(wide, {"a": [1, 2, 3], "d": _raising_at(1, [5])},
                          3)
    columns, horizon, failure = draw_stimuli(feeds, 3, reject(2))
    assert horizon == 1 and columns == [[1], [ABSENT], [ABSENT], [5]]
    assert str(failure) == "port 0 rejects 2 at 1"
    columns, horizon, failure = draw_stimuli(feeds, 3, reject(3))
    assert horizon == 1 and isinstance(failure, ValueError)
    columns, horizon, failure = draw_stimuli(feeds, 3, reject(None))
    assert horizon == 1 and isinstance(failure, ValueError)
