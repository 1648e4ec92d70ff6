"""Differential fuzz: interpreter vs flat vs batch vs native.

Random flattenable models (expression blocks with randomized base-language
source, delayed feedback, clock-gated subtrees, MTD leaves -- plus a
machine-heavy model kind with randomized guards, behaviour-less modes and
gated MTDs, and random roots: MTDs, gated MTDs and STDs, composites with a
correction-barrier entry) crossed with
random batteries (unequal tick counts, missing stimuli, ABSENT-laced
streams, huge integers, zero divisors) must agree across all the
execution backends: identical traces -- value AND Python type, so an
int-exact division that decays to ``numpy`` true division or an int64
wraparound is a failure even when ``==`` would hide it -- and identical
error strings on failing scenarios.  The native C backend joins only when
the host has a compiler (``native_available``).  Flat and native run both
as whole-horizon runs (what ``CompiledSimulator.run`` and
``execute_scenario`` take) and tick by tick (flat: a wrapper installed as
``schedule.step``).

Every generation step draws from one seeded ``random.Random``, so a
reported seed reproduces the exact divergence.  The regressions this fuzz
historically flushed out are pinned individually in ``test_batch_ir.py``.
"""

import contextlib
import math
import random

import pytest

np = pytest.importorskip("numpy")

from repro import obs
from repro.core.components import ExpressionComponent
from repro.core.clocks import every
from repro.core.values import ABSENT, Stream
from repro.io import trace_to_json
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.notations.mtd import ModeTransitionDiagram
from repro.notations.std import StateTransitionDiagram
from repro.scenarios import Scenario, active_mode_paths, execute_scenario
from repro.simulation import (ClockGatedComponent, CompiledSimulator,
                              Simulator, compile_batch, native_available)
from repro.simulation.engine import run_stepped
from repro.simulation.schedule_ir import OP_SWITCH

_HAS_NATIVE = native_available()

# -- random model generation ---------------------------------------------------

_LEAF_SOURCES = [
    "a + b",
    "a - b * 2",
    "(a + 1) * (b + 1)",
    "a / b",                                   # zero divisors, int-exactness
    "a % (b + 7)",
    "if a > b then a - b else b - a",
    "a and (100 / (b + 1))",                   # lazy right operand
    "(a < b) or (a == b)",
    "not (a > 0)",
    "present(a) and present(b)",
    "if present(a) then a else 0 - 1",
    "min(a, b) + max(a, b)",
    "abs(a - b)",
    "a * a * a",                               # overflow probe with big ints
    "(a + b) * 1000000000000",                 # grows past int64 quickly
]


def _expression_block(rng, name):
    source = rng.choice(_LEAF_SOURCES)
    block = ExpressionComponent(name, {"out": source})
    block.add_input("a")
    block.add_input("b")
    block.add_output("out")
    return block


def _mtd_block(rng, name):
    mtd = ModeTransitionDiagram(name)
    mtd.add_input("a")
    mtd.add_input("b")
    mtd.add_output("out")
    threshold = rng.randint(0, 5)
    low = ExpressionComponent(f"{name}Low", {"out": "a + b"})
    low.add_input("a")
    low.add_input("b")
    low.add_output("out")
    high = ExpressionComponent(f"{name}High", {"out": "a * 2"})
    high.add_input("a")
    high.add_output("out")
    mtd.add_mode("Low", low, initial=True)
    mtd.add_mode("High", high)
    mtd.add_transition("Low", "High", f"a > {threshold}")
    mtd.add_transition("High", "Low", f"a <= {threshold}")
    return mtd


def _build_model(rng, index):
    """A two-input, one-output flattenable composite with 2-4 random leaves
    chained in sequence, optionally a delayed feedback and a gated stage."""
    dfd = DataFlowDiagram(f"Fuzz{index}")
    dfd.add_input("x")
    dfd.add_input("y")
    dfd.add_output("out")

    stages = []
    n_stages = rng.randint(2, 4)
    for stage_index in range(n_stages):
        name = f"S{stage_index}"
        kind = rng.random()
        if kind < 0.2:
            stage = _mtd_block(rng, name)
        elif kind < 0.35:
            inner = DataFlowDiagram(f"{name}Core")
            inner.add_input("a")
            inner.add_input("b")
            inner.add_output("out")
            leaf = _expression_block(rng, f"{name}Leaf")
            inner.add_subcomponent(leaf)
            inner.connect("a", f"{name}Leaf.a")
            inner.connect("b", f"{name}Leaf.b")
            inner.connect(f"{name}Leaf.out", "out")
            stage = ClockGatedComponent(inner, every(rng.randint(2, 3)),
                                        name=name)
        else:
            stage = _expression_block(rng, name)
        dfd.add_subcomponent(stage)
        stages.append((name, stage))

    delay = UnitDelay("Z", initial=rng.randint(0, 3))
    dfd.add_subcomponent(delay)

    # chain: x feeds every a; b is the previous stage (or y for the first);
    # the delay replays the final value into the last stage's b-side mix
    previous = None
    for name, stage in stages:
        dfd.connect("x", f"{name}.a")
        if "b" in stage.input_names():
            dfd.connect("y" if previous is None else f"{previous}.out",
                        f"{name}.b")
        previous = name
    dfd.connect(f"{previous}.out", "Z.in1")
    dfd.connect(f"{previous}.out", "out")
    return dfd


# -- random battery generation -------------------------------------------------


def _stimulus(rng, ticks):
    kind = rng.random()
    if kind < 0.15:
        return None  # port left unstimulated
    values = []
    for _ in range(rng.randint(max(1, ticks - 2), ticks + 1)):
        draw = rng.random()
        if draw < 0.15:
            values.append(ABSENT)
        elif draw < 0.25:
            values.append(0)
        elif draw < 0.35:
            values.append(rng.randint(2 ** 62, 2 ** 70))  # int64 killers
        elif draw < 0.5:
            values.append(round(rng.uniform(-5.0, 5.0), 2))
        else:
            values.append(rng.randint(-6, 6))
    return Stream(values)


#: Values at the edges of the batch backend's tagged lanes: around the
#: 2**53 limit of exact ints, signed zero, NaN, infinities, bools, an
#: opaque string and ABSENT.
_EDGE_VALUES = [2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, -(2 ** 53) - 1, -0.0,
                math.nan, math.inf, -math.inf, True, False, "x", ABSENT]


def _edge_battery(rng, model, size):
    """Lanes mixing :data:`_EDGE_VALUES` into small ints and floats: in
    one tick some lanes compute as tagged lanes, some fall back per lane
    (opaque or inexact values) and some raise (the tick replays)."""
    items = []
    for index in range(size):
        ticks = rng.randint(2, 7)
        stimuli = {port: Stream([
            rng.choice(_EDGE_VALUES) if rng.random() < 0.4
            else rng.choice([rng.randint(-3, 3), rng.uniform(-3.0, 3.0)])
            for _ in range(ticks)]) for port in model.input_names()}
        items.append((f"edge{index}", stimuli, ticks))
    return items


def _battery(rng, model, size):
    items = []
    for index in range(size):
        ticks = rng.randint(1, 7)
        stimuli = {}
        for port in model.input_names():
            spec = _stimulus(rng, ticks)
            if spec is not None:
                stimuli[port] = spec
        items.append((f"case{index}", stimuli, ticks))
    return items


# -- the differential loop -----------------------------------------------------


def _scalar_outcome(runner, stimuli, ticks):
    """(trace, None) on success, (None, error string) on failure."""
    try:
        return runner(stimuli, ticks), None
    except Exception as exc:  # noqa: BLE001 - the comparison IS the test
        return None, f"{type(exc).__name__}: {exc}"


def _in_session(runner, **options):
    """*runner* inside ``obs.session(**options)``: the simulator swaps in
    its op-profiled or flight-recording step variant."""
    def run(stimuli, ticks):
        with obs.session(**options):
            return runner(stimuli, ticks)
    return run


def _pinned_outcome(runner, stimuli, ticks):
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


def _per_tick(simulator):
    """*simulator*'s own step driven tick by tick through the shared
    driver loop -- for the native backend, the 1-tick case of its C entry
    point instead of the one-call horizon."""
    schedule = simulator.schedule

    def run(stimuli, ticks):
        return run_stepped(simulator.component, schedule.step, stimuli,
                           ticks, False,
                           initial_state=schedule.initial_state(),
                           mode_of=schedule.root_mode)
    return run


@contextlib.contextmanager
def _substituted_step(schedule):
    """A wrapper installed as ``schedule.step`` for the block: a
    substituted step runs tick by tick, so for the flat backend this is
    the per-tick path its whole-horizon run must equal."""
    own = schedule.step
    schedule.step = lambda inputs, state, tick: own(inputs, state, tick)
    try:
        yield
    finally:
        schedule.step = own


def _stepped(simulator):
    """*simulator*'s run under :func:`_substituted_step`."""
    def run(stimuli, ticks):
        with _substituted_step(simulator.schedule):
            return simulator.run(stimuli, ticks)
    return run


def _typed_streams(trace):
    return {port: [(type(v), v) for v in stream.values()]
            for port, stream in trace.outputs.items()}


@pytest.mark.parametrize("seed", range(8))
def test_four_backends_agree_on_random_models_and_batteries(seed):
    rng = random.Random(9000 + seed)
    model = _build_model(rng, seed)
    battery = _battery(rng, model, size=rng.randint(3, 8))

    interpreter = Simulator(model)
    flat = CompiledSimulator(model, backend="flat")
    outcomes = compile_batch(model).run_battery(battery)
    # the flat whole-horizon run and the per-tick flat step
    runners = [("flat", flat.run), ("flat per-tick", _stepped(flat))]
    # the swapped-in step variants: byte-identical traces, identical
    # exception type, message and tick as the default flat step
    batch = CompiledSimulator(model, backend="batch")
    variants = [
        ("flat per-tick", _stepped(flat)),
        ("flat+profile_ops", _in_session(flat.run, profile_ops=True)),
        ("flat+flight_recording",
         _in_session(flat.run, flight_recording=True)),
        ("batch+profile_ops", _in_session(batch.run, profile_ops=True)),
    ]
    if _HAS_NATIVE:
        # the one-call horizon and the per-tick step of the same schedule
        native = CompiledSimulator(model, backend="native")
        native_paths = [("native", native.run),
                        ("native per-tick", _per_tick(native))]
        runners += native_paths
        variants += native_paths
    with obs.session(profile_ops=True):
        profiled_outcomes = compile_batch(model).run_battery(battery)

    for (name, stimuli, ticks), outcome, profiled in zip(
            battery, outcomes, profiled_outcomes):
        expected_trace, expected_error = _scalar_outcome(
            interpreter.run, stimuli, ticks)
        for label, runner in runners:
            trace, error = _scalar_outcome(runner, stimuli, ticks)
            assert error == expected_error, (seed, name, label)
            if expected_trace is not None:
                assert _typed_streams(trace) == \
                    _typed_streams(expected_trace), (seed, name, label)
        pinned = _pinned_outcome(flat.run, stimuli, ticks)
        for label, runner in variants:
            assert _pinned_outcome(runner, stimuli, ticks) == pinned, \
                (seed, name, label)
        assert profiled.error == outcome.error, (seed, name, "batch+profile")
        assert type(profiled.exception) is type(outcome.exception)
        if outcome.ok:
            assert trace_to_json(profiled.trace) == \
                trace_to_json(outcome.trace), (seed, name, "batch+profile")

        if expected_error is not None:
            assert not outcome.ok, (seed, name, "batch succeeded",
                                    expected_error)
            assert outcome.error == expected_error, (seed, name, "batch")
        else:
            assert outcome.ok, (seed, name, outcome.error)
            assert _typed_streams(outcome.trace) == \
                _typed_streams(expected_trace), (seed, name, "batch")
            assert expected_trace.mode_history == \
                outcome.trace.mode_history, (seed, name)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8, 40))
def test_four_backend_fuzz_extended(seed):
    test_four_backends_agree_on_random_models_and_batteries(seed)


# -- machine-heavy models ------------------------------------------------------

#: Transition guards: comparisons, plain (possibly ABSENT or float-valued)
#: operands, presence tests and guards that raise on a zero divisor.
_GUARD_SOURCES = [
    "a > b",
    "a <= 1",
    "b",                                       # truthiness of a raw input
    "a * 0.5",                                 # float-valued guard
    "a / 2 > 1.5",
    "present(a) and a > b",
    "not present(b)",
    "1 / b > 0",                               # raises when b == 0
    "a % (b + 2) == 0",                        # raises when b == -2
    "(a + b) * 1000000000000 > 0",             # leaves int64
]


def _machine_block(rng, name):
    """An MTD leaf with 2-3 modes, one of them without behaviour, guards
    drawn from :data:`_GUARD_SOURCES` and -- in some mode -- a behaviour
    reading a port ``c`` that the MTD does not declare (it reads ABSENT)."""
    mtd = ModeTransitionDiagram(name)
    mtd.add_input("a")
    mtd.add_input("b")
    mtd.add_output("out")
    mtd.add_output("mode")
    names = [f"M{index}" for index in range(rng.randint(2, 3))]
    idle = rng.randrange(len(names))
    reader = rng.choice([index for index in range(len(names))
                         if index != idle])
    for index, mode_name in enumerate(names):
        if index == idle:
            mtd.add_mode(mode_name, initial=index == 0)
            continue
        source = ("if present(c) then c else a - b" if index == reader
                  else rng.choice(_LEAF_SOURCES))
        behavior = ExpressionComponent(f"{name}{mode_name}", {"out": source})
        behavior.add_input("a")
        behavior.add_input("b")
        behavior.add_output("out")
        mtd.add_mode(mode_name, behavior, initial=index == 0)
        if index == reader:
            behavior.add_input("c")
    for mode_name in names:
        for _ in range(rng.randint(1, 2)):
            target = rng.choice([other for other in names
                                 if other != mode_name])
            mtd.add_transition(mode_name, target, rng.choice(_GUARD_SOURCES),
                               priority=rng.randint(0, 2))
    return mtd


def _build_machine_model(rng, index):
    """Two inputs, outputs ``out`` and ``mode``: a top-level machine, a
    machine inside a clock-gated region, then an expression or machine
    stage and a delayed feedback; one machine's ``mode`` port is routed to
    the root output."""
    dfd = DataFlowDiagram(f"Machines{index}")
    dfd.add_input("x")
    dfd.add_input("y")
    dfd.add_output("out")
    dfd.add_output("mode")

    top = _machine_block(rng, "S0")
    inner = DataFlowDiagram("S1Core")
    inner.add_input("a")
    inner.add_input("b")
    inner.add_output("out")
    inner.add_output("mode")
    core = _machine_block(rng, "S1M")
    inner.add_subcomponent(core)
    inner.connect("a", "S1M.a")
    inner.connect("b", "S1M.b")
    inner.connect("S1M.out", "out")
    inner.connect("S1M.mode", "mode")
    gated = ClockGatedComponent(inner, every(rng.randint(2, 3)), name="S1")
    last = (_machine_block(rng, "S2") if rng.random() < 0.5
            else _expression_block(rng, "S2"))
    delay = UnitDelay("Z", initial=rng.randint(0, 3))
    for stage in (top, gated, last, delay):
        dfd.add_subcomponent(stage)

    dfd.connect("x", "S0.a")
    dfd.connect("y", "S0.b")
    dfd.connect("x", "S1.a")
    dfd.connect("S0.out", "S1.b")
    dfd.connect("Z.out", "S2.a")
    dfd.connect("S1.out", "S2.b")
    dfd.connect("S2.out", "Z.in1")
    dfd.connect("S2.out", "out")
    dfd.connect(f"{rng.choice(['S0', 'S1'])}.mode", "mode")
    return dfd


def _interpreter_histories(model, stimuli, ticks):
    """Reference trace and per-path mode histories from the interpreter."""
    histories = {}

    def observing(inputs, state, tick):
        outputs, state = model.react(inputs, state, tick)
        for path, mode in active_mode_paths(model, state).items():
            histories.setdefault(path, []).append(mode)
        return outputs, state

    return run_stepped(model, observing, stimuli, ticks, False), histories


@pytest.mark.parametrize("seed", range(12))
def test_five_backends_agree_on_machine_models(seed):
    rng = random.Random(7700 + seed)
    model = _build_machine_model(rng, seed)
    battery = _battery(rng, model, size=rng.randint(3, 8))

    backends = ["flat"] + (["native"] if _HAS_NATIVE else [])
    simulators = {backend: CompiledSimulator(model, backend=backend)
                  for backend in backends}
    outcomes = compile_batch(model).run_battery(battery, collect_modes=True)
    for (name, stimuli, ticks), outcome in zip(battery, outcomes):
        try:
            expected, histories = _interpreter_histories(model, stimuli,
                                                         ticks)
            expected_json, expected_error = trace_to_json(expected), None
        except Exception as exc:  # noqa: BLE001 - the comparison IS the test
            expected_json = histories = None
            expected_error = f"{type(exc).__name__}: {exc}"
        results = [(backend, execute_scenario(
            simulator, Scenario(name, stimuli, ticks), collect_modes=True))
            for backend, simulator in simulators.items()]
        results.append(("batch", outcome))
        for backend, result in results:
            assert result.error == expected_error, (seed, name, backend)
            if expected_error is None:
                assert trace_to_json(result.trace) == expected_json, \
                    (seed, name, backend)
                assert result.mode_paths == histories, (seed, name, backend)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(12, 60))
def test_five_backend_machine_fuzz_extended(seed):
    test_five_backends_agree_on_machine_models(seed)


def _composite_behaviour_machine():
    """An MTD whose modes are a composite with a delayed feedback and a
    unit delay (state that must carry over while another mode runs), a
    composite holding a nested MTD (reported only while its mode is
    active), and an empty diagram (a region without ops)."""
    acc = DataFlowDiagram("AccB")
    acc.add_input("a")
    acc.add_output("out")
    add = ExpressionComponent("Add", {"out": "a + z"})
    add.add_input("a")
    add.add_input("z")
    add.add_output("out")
    acc.add_subcomponent(add)
    acc.add_subcomponent(UnitDelay("Z", initial=1))
    acc.connect("a", "Add.a")
    acc.connect("Add.out", "Z.in1", delayed=True, initial_value=0)
    acc.connect("Z.out", "Add.z")
    acc.connect("Add.out", "out")

    inner = ModeTransitionDiagram("N")
    inner.add_input("a")
    inner.add_output("out")
    inner.add_output("mode")
    for name, source in (("Lo", "a * 2"), ("Hi", "0 - a")):
        block = ExpressionComponent(f"N{name}", {"out": source})
        block.add_input("a")
        block.add_output("out")
        inner.add_mode(name, block)
    inner.add_transition("Lo", "Hi", "a > 2")
    inner.add_transition("Hi", "Lo", "a < 0")
    sub = DataFlowDiagram("SubB")
    sub.add_input("a")
    sub.add_output("out")
    sub.add_subcomponent(inner)
    sub.connect("a", "N.a")
    sub.connect("N.out", "out")

    mtd = ModeTransitionDiagram("M")
    mtd.add_input("a")
    mtd.add_input("b")
    mtd.add_output("out")
    mtd.add_output("mode")
    mtd.add_mode("Acc", acc)
    mtd.add_mode("Sub", sub)
    mtd.add_mode("Idle", DataFlowDiagram("IdleB"))
    mtd.add_transition("Acc", "Sub", "a > 4")
    mtd.add_transition("Sub", "Idle", "b < 0")
    mtd.add_transition("Sub", "Acc", "a < -2", priority=1)
    mtd.add_transition("Idle", "Acc", "b > 2")
    top = DataFlowDiagram("Top")
    top.add_input("x")
    top.add_input("y")
    top.add_output("out")
    top.add_output("mode")
    top.add_subcomponent(mtd)
    top.connect("x", "M.a")
    top.connect("y", "M.b")
    top.connect("M.out", "out")
    top.connect("M.mode", "mode")
    return top


def test_machines_with_composite_behaviours_agree_on_all_backends():
    model = _composite_behaviour_machine()
    rng = random.Random(77)
    battery = [(f"walk{index}",
                {"x": Stream([rng.randint(-5, 8) for _ in range(40)]),
                 "y": Stream([rng.randint(-3, 5) for _ in range(40)])}, 40)
               for index in range(4)]
    backends = ["flat"] + (["native"] if _HAS_NATIVE else [])
    simulators = {backend: CompiledSimulator(model, backend=backend)
                  for backend in backends}
    assert [op[0] for op in simulators["flat"].schedule.program].count(
        OP_SWITCH) == 2
    outcomes = compile_batch(model).run_battery(battery, collect_modes=True)
    for (name, stimuli, ticks), outcome in zip(battery, outcomes):
        expected, histories = _interpreter_histories(model, stimuli, ticks)
        assert set(histories["Top/M"]) == {"Acc", "Sub", "Idle"}
        assert "Top/M/Sub/N" in histories
        results = [(backend, execute_scenario(
            simulator, Scenario(name, stimuli, ticks), collect_modes=True))
            for backend, simulator in simulators.items()]
        for backend, result in results + [("batch", outcome)]:
            assert result.error is None, (name, backend, result.error)
            assert trace_to_json(result.trace) == trace_to_json(expected), \
                (name, backend)
            assert result.mode_paths == histories, (name, backend)


def test_lowered_machines_resume_from_nested_states():
    """A nested ``{"mode": ...}`` state tree taken mid-run converts into
    the flat mode buffers: flat and native continue exactly like the
    interpreter, and report the same active modes."""
    model = _composite_behaviour_machine()
    rng = random.Random(78)
    inputs = [{"x": rng.randint(-5, 8), "y": rng.randint(-3, 5)}
              for _ in range(30)]
    state = model.initial_state()
    for tick, values in enumerate(inputs[:15]):
        _outputs, state = model.react(values, state, tick)
    assert state["subs"]["M"]["mode"] != "Acc"  # resumes off the initial mode
    backends = ["flat"] + (["native"] if _HAS_NATIVE else [])
    for backend in backends:
        schedule = CompiledSimulator(model, backend=backend).schedule
        assert schedule.mode_paths(state) == active_mode_paths(model, state)
        expected, current = state, state
        for tick, values in enumerate(inputs[15:], start=15):
            wanted, expected = model.react(values, expected, tick)
            got, current = schedule.step(values, current, tick)
            assert got == wanted, (backend, tick)
            assert schedule.mode_paths(current) == \
                active_mode_paths(model, expected), (backend, tick)


# -- random roots --------------------------------------------------------------

#: The root kinds of :func:`_build_root_model`, cycled by seed.
_ROOT_KINDS = ("mtd", "gated_mtd", "gated_std", "barrier_composite",
               "barrier_mtd")


def _std_block(rng, name, outputs=("out",)):
    """A two-state STD over ``a``/``b`` with a counter variable, random
    guards, an output action and a state emission on each declared
    output (none when *outputs* is empty)."""
    std = StateTransitionDiagram(name)
    std.add_input("a")
    std.add_input("b")
    for port in outputs:
        std.add_output(port)
    std.add_variable("n", rng.randint(0, 2))
    emit = {"out": "n * 10"} if "out" in outputs else {}
    std.add_state("Idle", initial=True, emissions=emit)
    std.add_state("Busy", emissions=emit)
    bump = {"n": "n + 1"}
    if "out" in outputs:
        bump["out"] = rng.choice(["a - n", "b"])
    std.add_transition("Idle", "Busy", rng.choice(_GUARD_SOURCES),
                       actions=bump)
    std.add_transition("Busy", "Idle", rng.choice(_GUARD_SOURCES),
                       priority=1)
    std.add_transition("Busy", "Busy", "n < 3", actions={"n": "n + 1"})
    return std


def _accumulator(name):
    """A composite ``out = a + previous out`` closed through a UnitDelay."""
    acc = DataFlowDiagram(name)
    acc.add_input("a")
    acc.add_output("out")
    add = ExpressionComponent("Add", {"out": "a + z"})
    add.add_input("a")
    add.add_input("z")
    add.add_output("out")
    acc.add_subcomponent(add)
    acc.add_subcomponent(UnitDelay("Z", initial=1))
    acc.connect("a", "Add.a")
    acc.connect("Add.out", "Z.in1")
    acc.connect("Z.out", "Add.z")
    acc.connect("Add.out", "out")
    return acc


def _wrapped_block(rng, name):
    """A composite holding one random expression block."""
    wrapper = DataFlowDiagram(name)
    wrapper.add_input("a")
    wrapper.add_input("b")
    wrapper.add_output("out")
    wrapper.add_subcomponent(_expression_block(rng, "E"))
    wrapper.connect("a", "E.a")
    wrapper.connect("b", "E.b")
    wrapper.connect("E.out", "out")
    return wrapper


def _root_machine(rng, name, outputs=("out", "mode")):
    """An MTD with 2-4 modes, each an expression block, a composite (the
    accumulator holds a UnitDelay), an STD or no behaviour; the first
    three modes cover the expression, accumulator and STD kinds in a
    random order.  Without outputs, the modes are output-less STDs or
    empty."""
    mtd = ModeTransitionDiagram(name)
    mtd.add_input("a")
    mtd.add_input("b")
    for port in outputs:
        mtd.add_output(port)
    names = [f"M{index}" for index in range(rng.randint(2, 4))]
    kinds = ["expr", "acc", "std"]
    rng.shuffle(kinds)
    for index, mode_name in enumerate(names):
        kind = kinds[index] if index < len(kinds) \
            else rng.choice(["expr", "wrapped", "std", None])
        if "out" not in outputs:
            kind = "quiet" if kind in ("std", "acc") else None
        behavior = {
            "expr": lambda: _expression_block(rng, f"{mode_name}E"),
            "acc": lambda: _accumulator(f"{mode_name}Acc"),
            "wrapped": lambda: _wrapped_block(rng, f"{mode_name}W"),
            "std": lambda: _std_block(rng, f"{mode_name}S"),
            "quiet": lambda: _std_block(rng, f"{mode_name}S", outputs=()),
            None: lambda: None}[kind]()
        mtd.add_mode(mode_name, behavior)
    for mode_name in names:
        for _ in range(rng.randint(1, 2)):
            target = rng.choice([other for other in names
                                 if other != mode_name])
            mtd.add_transition(mode_name, target, rng.choice(_GUARD_SOURCES),
                               priority=rng.randint(0, 2))
    return mtd


def _barrier_root(rng, index, machine):
    """A composite whose entry ``A`` -- a non-feedthrough composite (a
    delay line) or an output-less MTD, maybe clock-gated -- is scheduled
    before its producer ``P``: the correction barrier must re-run it."""
    top = DataFlowDiagram(f"Barrier{index}")
    top.add_input("x")
    top.add_input("y")
    top.add_output("out")
    if machine:
        entry = _root_machine(rng, "A", outputs=())
    else:
        entry = DataFlowDiagram("A")
        entry.add_input("a")
        entry.add_input("b")
        entry.add_output("out")
        entry.add_subcomponent(UnitDelay("Z", initial=rng.randint(0, 3)))
        entry.connect("a", "Z.in1")
        entry.connect("Z.out", "out")
    if rng.random() < 0.5:
        entry = ClockGatedComponent(entry, every(rng.randint(2, 3)), name="A")
    producer = ExpressionComponent(
        "P", {"out": rng.choice(["x + fb", "x * 2 - fb", "x"])})
    producer.add_input("x")
    producer.add_input("fb")
    producer.add_output("out")
    top.add_subcomponent(entry)
    top.add_subcomponent(producer)
    top.connect("x", "P.x")
    top.connect("P.out", "A.a")        # A runs before P: a late producer
    top.connect("y", "A.b")
    if machine:
        top.connect("y", "P.fb")
    else:
        top.connect("A.out", "P.fb")
    top.connect("P.out", "out")
    return top


def _build_root_model(rng, index):
    """One root of kind ``_ROOT_KINDS[index % 5]``: an MTD, a gated MTD, a
    gated STD, or a composite with a correction-barrier entry."""
    kind = _ROOT_KINDS[index % len(_ROOT_KINDS)]
    if kind == "mtd":
        return _root_machine(rng, f"Root{index}")
    if kind == "gated_mtd":
        return ClockGatedComponent(_root_machine(rng, "M"),
                                   every(rng.randint(2, 3)),
                                   name=f"Root{index}")
    if kind == "gated_std":
        return ClockGatedComponent(_std_block(rng, "S", ("out", "state")),
                                   every(rng.randint(2, 3)),
                                   name=f"Root{index}")
    return _barrier_root(rng, index, machine=kind == "barrier_mtd")


@pytest.mark.parametrize("seed", range(10))
def test_backends_agree_on_random_roots(seed):
    """MTD roots (expression, composite, STD and empty modes), gated MTD
    and STD roots and composites with a correction-barrier entry, on
    batteries with edge-value lanes: flat, batch and native match the
    interpreter -- trace bytes with ``mode_history``, exception type,
    message and tick, and the ``collect_modes`` histories."""
    rng = random.Random(6600 + seed)
    model = _build_root_model(rng, seed)
    battery = _battery(rng, model, size=rng.randint(3, 8)) \
        + _edge_battery(rng, model, size=4)
    interpreter = Simulator(model)
    backends = ["flat", "batch"] + (["native"] if _HAS_NATIVE else [])
    simulators = {backend: CompiledSimulator(model, backend=backend)
                  for backend in backends}
    outcomes = compile_batch(model).run_battery(battery, collect_modes=True)
    for (name, stimuli, ticks), outcome in zip(battery, outcomes):
        expected = _pinned_outcome(interpreter.run, stimuli, ticks)
        histories = None
        if expected[1] is None:
            _trace, histories = _interpreter_histories(model, stimuli, ticks)
        results = [("batch sweep", outcome)]
        if _HAS_NATIVE:
            assert _pinned_outcome(_per_tick(simulators["native"]), stimuli,
                                   ticks) == expected, \
                (seed, name, "native per-tick")
        flat = simulators["flat"]
        assert _pinned_outcome(_stepped(flat), stimuli, ticks) == expected, \
            (seed, name, "flat per-tick")
        with _substituted_step(flat.schedule):
            results.append(("flat per-tick", execute_scenario(
                flat, Scenario(name, stimuli, ticks), collect_modes=True)))
        for backend, simulator in simulators.items():
            assert _pinned_outcome(simulator.run, stimuli, ticks) \
                == expected, (seed, name, backend)
            results.append((backend, execute_scenario(
                simulator, Scenario(name, stimuli, ticks),
                collect_modes=True)))
        for backend, result in results:
            if histories is None:
                assert result.error == "{0.__name__}: {1}".format(
                    *expected[1][:2]), (seed, name, backend)
            else:
                assert trace_to_json(result.trace) == expected[0], \
                    (seed, name, backend)
                assert result.mode_paths == histories, (seed, name, backend)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(10, 50))
def test_random_root_fuzz_extended(seed):
    test_backends_agree_on_random_roots(seed)


# -- lint-clean property -------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_models_are_lint_clean_and_never_hit_unknown_names(seed):
    """The static verifier accepts every generator output, and its central
    promise holds on the same battery the differential loop uses: a
    lint-clean model never fails with the evaluator's ``unknown name``
    error (the runtime counterpart of ``expr-unknown-name`` /
    ``ir-read-before-write``)."""
    from repro.analysis.lint import lint_model

    rng = random.Random(9000 + seed)
    model = _build_model(rng, seed)
    battery = _battery(rng, model, size=rng.randint(3, 8))

    report = lint_model(model)
    assert not report.errors(), report.describe()

    flat = CompiledSimulator(model, backend="flat")
    for name, stimuli, ticks in battery:
        _trace, error = _scalar_outcome(flat.run, stimuli, ticks)
        if error is not None:
            assert "unknown name" not in error, (seed, name, error)
