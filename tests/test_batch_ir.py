"""The vectorized batch backend: trace identity, error parity, isolation.

The batch IR (:mod:`repro.simulation.batch_ir`) promises that a whole
scenario battery swept as ONE vectorized op program is observationally
identical to running each scenario through the scalar engines: identical
traces (value *and* type), identical error messages at identical ticks,
per-scenario isolation instead of batch poisoning, and no leakage across
lanes of mixed batteries.  This module pins those contracts plus the
regressions the differential fuzz flushed out (int-exact division,
unbounded ints, short-circuit laziness, ABSENT propagation).
"""

import pytest

np = pytest.importorskip("numpy")

from repro.core.components import ExpressionComponent
from repro.core.clocks import every
from repro.core.errors import ExpressionEvalError, SimulationError
from repro.core.values import ABSENT, Stream
from repro.notations.blocks import Gain, UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.notations.mtd import ModeTransitionDiagram
from repro.simulation import (BatchSchedule, ClockGatedComponent,
                              CompiledSimulator, ScenarioSuite, Simulator,
                              compile_batch, compile_flat, first_difference)
from repro.core.types import INT


# -- models --------------------------------------------------------------------


def expression_pipeline():
    """Two chained expression blocks plus a delayed feedback loop."""
    dfd = DataFlowDiagram("Pipe")
    dfd.add_input("u")
    dfd.add_output("y")
    dfd.add_output("acc")
    pre = ExpressionComponent("Pre", {"out": "u * 2 + 1"})
    pre.declare_interface_from_expressions()
    post = ExpressionComponent(
        "Post", {"out": "if in1 > 10 then in1 - 10 else in1"})
    post.declare_interface_from_expressions()
    add = ExpressionComponent("Add", {"out": "a + b"})
    add.declare_interface_from_expressions()
    delay = UnitDelay("Z", initial=0)
    dfd.add(pre, post, add, delay)
    dfd.connect("u", "Pre.u")
    dfd.connect("Pre.out", "Post.in1")
    dfd.connect("Post.out", "y")
    dfd.connect("Post.out", "Add.a")
    dfd.connect("Z.out", "Add.b")
    dfd.connect("Add.out", "Z.in1")
    dfd.connect("Add.out", "acc")
    return dfd


def modes_mtd(name="Modes"):
    mtd = ModeTransitionDiagram(name)
    mtd.add_input("x")
    mtd.add_output("out")
    mtd.add_output("mode")
    low = ExpressionComponent("LowB", {"out": "x * 1"})
    low.declare_interface_from_expressions()
    high = ExpressionComponent("HighB", {"out": "x * 10"})
    high.declare_interface_from_expressions()
    mtd.add_mode("Low", low, initial=True)
    mtd.add_mode("High", high)
    mtd.add_transition("Low", "High", "x > 2")
    mtd.add_transition("High", "Low", "x < 1")
    return mtd


def mtd_in_composite():
    """An MTD leaf inside a flattenable root: the per-lane ``run`` op."""
    dfd = DataFlowDiagram("Sys")
    dfd.add_input("x")
    dfd.add_output("out")
    dfd.add_output("mode")
    scale = Gain("Scale", 1.0)
    dfd.add(scale, modes_mtd())
    dfd.connect("x", "Scale.in1")
    dfd.connect("Scale.out", "Modes.x")
    dfd.connect("Modes.out", "out")
    dfd.connect("Modes.mode", "mode")
    return dfd


def gated_system(n=3):
    """A clock-gated subtree: the flat-IR gate predicate over lanes."""
    plant = DataFlowDiagram("Plant")
    plant.add_input("x")
    plant.add_output("y")
    twice = ExpressionComponent("Twice", {"out": "x + x"})
    twice.declare_interface_from_expressions()
    plant.add_subcomponent(twice)
    plant.connect("x", "Twice.x")
    plant.connect("Twice.out", "y")
    gated = ClockGatedComponent(plant, every(n), name="Plant")
    sys = DataFlowDiagram("Gated")
    sys.add_input("x")
    sys.add_output("y")
    sys.add_subcomponent(gated)
    sys.connect("x", "Plant.x")
    sys.connect("Plant.y", "y")
    return sys


def divider():
    dfd = DataFlowDiagram("Div")
    dfd.add_input("a")
    dfd.add_input("b")
    dfd.add_output("q")
    quot = ExpressionComponent("Quot", {"out": "a / b"})
    quot.declare_interface_from_expressions()
    dfd.add_subcomponent(quot)
    dfd.connect("a", "Quot.a")
    dfd.connect("b", "Quot.b")
    dfd.connect("Quot.out", "q")
    return dfd


def assert_trace_identical(reference, batch):
    """Strict equality: same streams, same *types* per value."""
    assert first_difference(reference, batch) is None
    for port, stream in reference.outputs.items():
        got = batch.outputs[port].values()
        expected = stream.values()
        assert got == expected
        assert [type(v) for v in got] == [type(v) for v in expected], port


def batteries(model, items, **kwargs):
    """Run *items* through the scalar flat engine and one batch sweep."""
    scalar = CompiledSimulator(model, backend="flat", **kwargs)
    batch = compile_batch(model)
    outcomes = batch.run_battery(items, **kwargs)
    return scalar, outcomes


# -- trace identity ------------------------------------------------------------


@pytest.mark.parametrize("build", [expression_pipeline, mtd_in_composite,
                                   lambda: gated_system(3)])
def test_battery_traces_identical_to_interpreter(build):
    model = build()
    port = model.input_names()[0]
    items = [(f"s{i}", {port: [i, i + 2, 7 * i, 0, -i]}, 5) for i in range(9)]
    reference = Simulator(model)
    outcomes = compile_batch(model).run_battery(items)
    assert [o.name for o in outcomes] == [f"s{i}" for i in range(9)]
    for (name, stimuli, ticks), outcome in zip(items, outcomes):
        assert outcome.ok, (name, outcome.error)
        assert_trace_identical(reference.run(stimuli, ticks), outcome.trace)


def test_compiled_simulator_batch_backend_single_run():
    model = expression_pipeline()
    sim = CompiledSimulator(model, backend="batch")
    assert isinstance(sim.batch_schedule, BatchSchedule)
    stimuli = {"u": [1, 2, 3, 4]}
    assert_trace_identical(Simulator(model).run(stimuli, 4),
                           sim.run(stimuli, 4))


def test_batch_backend_rejects_unflattenable_roots(crank_sequencer_std):
    # a leaf root (here an STD) has no flat program to widen
    with pytest.raises(SimulationError, match="not flattenable"):
        CompiledSimulator(crank_sequencer_std, backend="batch")
    with pytest.raises(SimulationError, match="not flattenable"):
        compile_batch(crank_sequencer_std)


def test_scenario_suite_batch_matches_auto():
    model = expression_pipeline()
    batch_suite = ScenarioSuite(model, backend="batch")
    auto_suite = ScenarioSuite(model)
    for index in range(6):
        stimuli = {"u": [index, index * 3, -index]}
        batch_suite.add(f"s{index}", stimuli, 3 + index % 2)
        auto_suite.add(f"s{index}", stimuli, 3 + index % 2)
    batch_traces = batch_suite.run_all()
    auto_traces = auto_suite.run_all()
    assert list(batch_traces) == list(auto_traces)
    for name in batch_traces:
        assert_trace_identical(auto_traces[name], batch_traces[name])


# -- mixed batteries -----------------------------------------------------------


def test_mixed_horizons_and_partial_stimuli_no_lane_leakage():
    model = expression_pipeline()
    items = [
        ("long", {"u": list(range(12))}, 12),
        ("short", {"u": [100, 200]}, 2),
        ("nostim", None, 5),                      # all-ABSENT inputs
        ("partial", {"u": [1]}, 6),               # stimulus ends early
        ("absent_holes", {"u": Stream([1, ABSENT, 3, ABSENT])}, 4),
    ]
    reference = Simulator(model)
    outcomes = compile_batch(model).run_battery(items)
    for (name, stimuli, ticks), outcome in zip(items, outcomes):
        assert outcome.ok, (name, outcome.error)
        expected = reference.run(stimuli, ticks)
        assert outcome.trace.ticks == ticks
        assert_trace_identical(expected, outcome.trace)
        for port, stream in expected.inputs.items():
            assert outcome.trace.inputs[port].values() == stream.values()


def test_zero_tick_scenarios_in_a_battery():
    model = expression_pipeline()
    items = [("empty", {"u": [1, 2]}, 0), ("real", {"u": [5, 6]}, 2)]
    outcomes = compile_batch(model).run_battery(items)
    assert outcomes[0].ok
    assert outcomes[0].trace.ticks == 0
    assert outcomes[0].trace.outputs == {}
    assert_trace_identical(Simulator(model).run({"u": [5, 6]}, 2),
                           outcomes[1].trace)


def test_empty_battery_returns_empty_list():
    assert compile_batch(expression_pipeline()).run_battery([]) == []


# -- error parity and isolation ------------------------------------------------


def test_division_error_identical_message_tick_and_isolation():
    model = divider()
    items = [
        ("fine", {"a": [10, 9], "b": [2, 3]}, 2),
        ("boom", {"a": [8, 7, 6], "b": [4, 0, 1]}, 3),  # dies at tick 1
        ("also_fine", {"a": [12], "b": [5]}, 1),
    ]
    scalar = CompiledSimulator(model, backend="flat")
    with pytest.raises(ExpressionEvalError) as scalar_error:
        scalar.run(items[1][1], items[1][2])
    outcomes = compile_batch(model).run_battery(items)

    boom = outcomes[1]
    assert not boom.ok
    assert isinstance(boom.exception, ExpressionEvalError)
    assert str(boom.exception) == str(scalar_error.value)
    assert boom.error == (f"{type(scalar_error.value).__name__}: "
                          f"{scalar_error.value}")

    # neighbours keep their full traces: no batch poisoning
    assert outcomes[0].ok and outcomes[2].ok
    assert outcomes[0].trace.outputs["q"].values() == [5, 3]
    assert outcomes[2].trace.outputs["q"].values() == [2.4]


def test_run_one_reraises_the_original_exception():
    model = divider()
    sim = CompiledSimulator(model, backend="batch")
    scalar = CompiledSimulator(model, backend="flat")
    stimuli = {"a": [1], "b": [0]}
    with pytest.raises(ExpressionEvalError) as expected:
        scalar.run(stimuli, 1)
    with pytest.raises(ExpressionEvalError) as got:
        sim.run(stimuli, 1)
    assert str(got.value) == str(expected.value)


def test_unknown_name_error_parity():
    dfd = DataFlowDiagram("Free")
    dfd.add_input("u")
    dfd.add_output("y")
    block = ExpressionComponent("B", {"out": "u + ghost"})
    block.add_input("u")
    block.add_output("y")
    block.output_expressions["y"] = block.output_expressions.pop("out")
    dfd.add_subcomponent(block)
    dfd.connect("u", "B.u")
    dfd.connect("B.y", "y")
    scalar = CompiledSimulator(dfd, backend="flat")
    with pytest.raises(ExpressionEvalError) as expected:
        scalar.run({"u": [1]}, 1)
    outcome = compile_batch(dfd).run_battery([("s", {"u": [1]}, 1)])[0]
    assert str(outcome.exception) == str(expected.value)


def test_stimulus_validation_messages_identical():
    model = expression_pipeline()
    batch = compile_batch(model)
    scalar = CompiledSimulator(model, backend="flat")
    for stimuli, ticks in [({"u": [1]}, True), ({"u": [1]}, -1),
                           ({"bogus": [1]}, 3)]:
        with pytest.raises(SimulationError) as expected:
            scalar.run(stimuli, ticks)
        outcome = batch.run_battery([("s", stimuli, ticks)])[0]
        assert not outcome.ok
        assert str(outcome.exception) == str(expected.value)
        # the rest of the battery is untouched
        good = batch.run_battery([("s", stimuli, ticks),
                                  ("ok", {"u": [2]}, 1)])[1]
        assert good.ok


def test_failing_stimulus_callable_matches_scalar_tick():
    """A generator that explodes mid-run fails at the same tick, and a
    *model* error on an earlier tick still wins (scalar draw order)."""
    def explode_at(when):
        def generator(tick):
            if tick >= when:
                raise RuntimeError(f"sensor dropout at {tick}")
            return tick + 1
        return generator

    model = expression_pipeline()
    scalar = CompiledSimulator(model, backend="flat")
    with pytest.raises(RuntimeError) as expected:
        scalar.run({"u": explode_at(3)}, 6)
    outcome = compile_batch(model).run_battery(
        [("s", {"u": explode_at(3)}, 6)])[0]
    assert str(outcome.exception) == str(expected.value)
    assert type(outcome.exception) is type(expected.value)

    # model error at tick 1 beats a stimulus error at tick 4
    div = divider()

    def b_values(tick):
        if tick >= 4:
            raise RuntimeError("late dropout")
        return [3, 0, 3, 3][tick]

    stimuli = {"a": [1, 1, 1, 1, 1], "b": b_values}
    scalar_div = CompiledSimulator(div, backend="flat")
    with pytest.raises(ExpressionEvalError) as div_error:
        scalar_div.run(stimuli, 5)
    outcome = compile_batch(div).run_battery([("s", stimuli, 5)])[0]
    assert str(outcome.exception) == str(div_error.value)
    assert isinstance(outcome.exception, ExpressionEvalError)


def test_check_types_parity_both_directions():
    dfd = DataFlowDiagram("Typed")
    dfd.add_input("u", INT)
    dfd.add_output("y", INT)
    block = ExpressionComponent("B", {"out": "u / 2"})
    block.add_input("u")
    block.add_output("out")
    dfd.add_subcomponent(block)
    dfd.connect("u", "B.u")
    dfd.connect("B.out", "y")

    scalar = CompiledSimulator(dfd, check_types=True, backend="flat")
    batch = compile_batch(dfd)

    # input violation at tick 1
    with pytest.raises(Exception) as expected:
        scalar.run({"u": [2, "oops", 4]}, 3)
    outcome = batch.run_battery([("s", {"u": [2, "oops", 4]}, 3)],
                                check_types=True)[0]
    assert str(outcome.exception) == str(expected.value)
    assert "@t1" in str(outcome.exception)

    # output violation: u=3 -> y=1.5 violates INT at tick 1
    with pytest.raises(Exception) as expected:
        scalar.run({"u": [2, 3]}, 2)
    outcome = batch.run_battery([("s", {"u": [2, 3]}, 2)],
                                check_types=True)[0]
    assert str(outcome.exception) == str(expected.value)

    # clean battery type-checks clean
    outcome = batch.run_battery([("s", {"u": [2, 4]}, 2)],
                                check_types=True)[0]
    assert outcome.ok
    assert outcome.trace.outputs["y"].values() == [1, 2]


# -- pinned regressions (differential-fuzz finds) ------------------------------


def test_int_exact_division_stays_int_across_lanes():
    """NumPy true division would give floats; the base language is
    int-exact.  Every lane must preserve the scalar result *type*."""
    outcomes = compile_batch(divider()).run_battery([
        ("exact", {"a": [10, 9, -8], "b": [2, 3, 4]}, 3),
        ("inexact", {"a": [10, 7], "b": [4, 2]}, 2),
    ])
    exact = outcomes[0].trace.outputs["q"].values()
    assert exact == [5, 3, -2]
    assert all(type(v) is int for v in exact)
    inexact = outcomes[1].trace.outputs["q"].values()
    assert inexact == [2.5, 3.5]
    assert all(type(v) is float for v in inexact)


def test_unbounded_ints_do_not_overflow():
    """int64 lanes would wrap at 2**63; object lanes must not."""
    dfd = DataFlowDiagram("Big")
    dfd.add_input("u")
    dfd.add_output("y")
    cube = ExpressionComponent("Cube", {"out": "u * u * u"})
    cube.declare_interface_from_expressions()
    dfd.add_subcomponent(cube)
    dfd.connect("u", "Cube.u")
    dfd.connect("Cube.out", "y")
    huge = 2 ** 80
    outcomes = compile_batch(dfd).run_battery(
        [("big", {"u": [huge, -huge]}, 2), ("small", {"u": [3]}, 1)])
    assert outcomes[0].trace.outputs["y"].values() == [huge ** 3, -(huge ** 3)]
    assert outcomes[1].trace.outputs["y"].values() == [27]


def test_short_circuit_does_not_evaluate_poisoned_right_operand():
    """``a and (1 / b)`` with a false: the scalar engine never divides, so
    a lane with b == 0 must not fall over to eager mask evaluation."""
    dfd = DataFlowDiagram("Lazy")
    dfd.add_input("a")
    dfd.add_input("b")
    dfd.add_output("y")
    guard = ExpressionComponent("Guard", {"out": "a and (1 / b)"})
    guard.declare_interface_from_expressions()
    dfd.add_subcomponent(guard)
    dfd.connect("a", "Guard.a")
    dfd.connect("b", "Guard.b")
    dfd.connect("Guard.out", "y")
    items = [("safe", {"a": [False, False], "b": [0, 0]}, 2),
             ("divides", {"a": [True], "b": [4]}, 1)]
    reference = Simulator(dfd)
    outcomes = compile_batch(dfd).run_battery(items)
    for (name, stimuli, ticks), outcome in zip(items, outcomes):
        assert outcome.ok, (name, outcome.error)
        assert_trace_identical(reference.run(stimuli, ticks), outcome.trace)
    # and a genuinely-dividing zero lane still fails with the scalar message
    bad = compile_batch(dfd).run_battery(
        [("boom", {"a": [True], "b": [0]}, 1)])[0]
    assert not bad.ok
    assert isinstance(bad.exception, ExpressionEvalError)


def test_absent_propagation_matches_interpreter():
    dfd = DataFlowDiagram("Holes")
    dfd.add_input("u")
    dfd.add_output("y")
    dfd.add_output("seen")
    block = ExpressionComponent(
        "B", {"out": "u + 1", "flag": "present(u)"})
    block.add_input("u")
    block.add_output("out")
    block.add_output("flag")
    dfd.add_subcomponent(block)
    dfd.connect("u", "B.u")
    dfd.connect("B.out", "y")
    dfd.connect("B.flag", "seen")
    stimuli = {"u": Stream([1, ABSENT, 3, ABSENT, 5])}
    expected = Simulator(dfd).run(stimuli, 5)
    outcome = compile_batch(dfd).run_battery([("s", stimuli, 5)])[0]
    assert_trace_identical(expected, outcome.trace)
    assert outcome.trace.outputs["y"].values()[1] is ABSENT
    assert outcome.trace.outputs["seen"].values() == [True, False, True,
                                                      False, True]


# -- mode observability --------------------------------------------------------


def test_collect_modes_matches_scalar_histories():
    model = mtd_in_composite()
    items = [("calm", {"x": [1, 1, 1, 1]}, 4),
             ("spike", {"x": [1, 5, 5, 0]}, 4)]
    outcomes = compile_batch(model).run_battery(items, collect_modes=True)
    for (name, stimuli, ticks), outcome in zip(items, outcomes):
        assert outcome.ok
        assert outcome.mode_paths is not None
        expected = Simulator(model).run(stimuli, ticks)
        # the MTD publishes its mode on a port: histories must agree with it
        path, = outcome.mode_paths
        assert outcome.mode_paths[path] == \
            expected.outputs["mode"].values()


def test_stateful_leaf_states_stay_per_lane():
    """The UnitDelay accumulator feedback: lane states must never mix."""
    model = expression_pipeline()
    items = [(f"s{i}", {"u": [i] * 6}, 6) for i in range(5)]
    reference = Simulator(model)
    outcomes = compile_batch(model).run_battery(items)
    for (name, stimuli, ticks), outcome in zip(items, outcomes):
        assert_trace_identical(reference.run(stimuli, ticks), outcome.trace)
