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
from repro.simulation.schedule_ir import (OP_BUF_READ, OP_BUF_WRITE,
                                          OP_COPY, OP_MODE)


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


# -- tagged lanes ----------------------------------------------------------------


def product():
    dfd = DataFlowDiagram("Product")
    dfd.add_input("a")
    dfd.add_input("b")
    dfd.add_output("p")
    times = ExpressionComponent("Times", {"out": "a * b"})
    times.declare_interface_from_expressions()
    dfd.add_subcomponent(times)
    dfd.connect("a", "Times.a")
    dfd.connect("b", "Times.b")
    dfd.connect("Times.out", "p")
    return dfd


def test_tagged_lanes_fallbacks_and_a_replay_share_one_tick():
    """At tick 0 one lane computes as a tagged lane, two fall back per
    lane (a product past 2**53, an opaque ``'x' * 2``) and one raises,
    so the tick replays: every lane still matches the flat engine, and
    the per-lane fallbacks are counted next to the replayed ticks."""
    from repro import obs
    model = product()
    items = [("tagged", {"a": [1.5, 2.0], "b": [2, 3]}, 2),
             ("big", {"a": [2 ** 40, 1], "b": [2 ** 20, 1]}, 2),
             ("opaque", {"a": ["x", 2], "b": [2, 2]}, 2),
             ("raises", {"a": ["x", 1], "b": [1.5, 1]}, 2)]
    schedule = compile_batch(model)
    assert schedule.vectorized_ops
    scalar = CompiledSimulator(model, backend="flat")
    with obs.session(profile_ops=True) as telemetry:
        outcomes = schedule.run_battery(items)
    for (name, stimuli, ticks), outcome in zip(items, outcomes):
        try:
            expected = scalar.run(stimuli, ticks)
        except ExpressionEvalError as exc:
            assert str(outcome.exception) == str(exc), name
            continue
        assert_trace_identical(expected, outcome.trace)
    assert outcomes[1].trace.outputs["p"].values()[0] == 2 ** 60
    assert outcomes[2].trace.outputs["p"].values()[0] == "xx"
    counters = telemetry.registry.counter_values("batch.")
    assert counters["batch.lane_fallbacks"] == 3
    assert counters["batch.scalar_fallback_ticks"] == 4
    (profile,) = telemetry.named_profiles().values()
    assert profile.lane_fallbacks == 3
    assert profile.scalar_fallback_ticks == 4


def test_fda_runs_every_lowered_op_as_tagged_lanes():
    """Batch vectorizes exactly the ops native lowers to C; on a random
    walk battery the Sec.-5 FDA runs with no lane falling back and no
    tick replayed, and matches the flat engine."""
    from repro import obs
    from repro.casestudy import build_reengineered_fda
    from repro.scenarios import RandomWalk
    from repro.simulation.native import EMITTER_VERSION, lower_program
    model = build_reengineered_fda()
    schedule = compile_batch(model)
    lowered = lower_program(schedule.flat, EMITTER_VERSION)
    assert schedule.vectorized_ops == lowered.lowered_ops
    assert not lowered.fallback_ops
    ranges = {"n": (0.0, 6500.0), "ped": (0.0, 100.0),
              "t_eng": (-20.0, 120.0), "pos": (0.0, 90.0),
              "pos_des": (0.0, 90.0), "throttle_angle": (0.0, 90.0)}
    items = [(f"walk{index}",
              {port: RandomWalk(index * 10 + offset, start=(low + high) / 2,
                                step=(high - low) / 8, low=low, high=high)
               for offset, (port, (low, high)) in enumerate(ranges.items())},
              30) for index in range(24)]
    with obs.session() as telemetry:
        outcomes = schedule.run_battery(items, collect_modes=True)
    counters = telemetry.registry.counter_values("batch.")
    assert counters["batch.lane_fallbacks"] == 0
    assert "batch.scalar_fallback_ticks" not in counters
    scalar = CompiledSimulator(model, backend="flat")
    for (name, stimuli, ticks), outcome in zip(items, outcomes):
        assert_trace_identical(scalar.run(stimuli, ticks), outcome.trace)


def test_int_zero_results_add_like_python_zero():
    """An int result of ``0`` reached through ``-0.0`` in double
    arithmetic (``0 * -1``, ``-0``, ``0 / -3``, ``3 % -3``) must add to
    ``-0.0`` like Python's int ``0``: ``0.0``, not ``-0.0``."""
    dfd = DataFlowDiagram("Zeros")
    for port in ("a", "b", "c"):
        dfd.add_input(port)
    sources = {"mul": "a * b + c", "neg": "-a + c", "div": "a / b + c",
               "mod": "(a + 3) % b + c"}
    for name, source in sources.items():
        block = ExpressionComponent(name.capitalize(), {"out": source})
        block.declare_interface_from_expressions()
        dfd.add_subcomponent(block)
        dfd.add_output(name)
        for port in block.input_names():
            dfd.connect(port, f"{block.name}.{port}")
        dfd.connect(f"{block.name}.out", name)
    items = [("zeros", {"a": [0, 0], "b": [-1, -3], "c": [-0.0, -0.0]}, 2)]
    scalar, outcomes = batteries(dfd, items)
    expected = scalar.run(*items[0][1:])
    assert len(compile_batch(dfd).vectorized_ops) == len(sources)
    for name in sources:
        # repr tells 0.0 from -0.0, which == does not
        assert [repr(value) for value in
                outcomes[0].trace.outputs[name].values()] \
            == [repr(value) for value in expected.outputs[name].values()] \
            == ["0.0", "0.0"], name


# -- mode names, per-lane spans, lane-major runs --------------------------------


def twin_engine_modes():
    """Two instances of the Fig.-6 MTD side by side, both ``mode`` ports
    wired to outputs: the machines share their mode-name objects."""
    from repro.casestudy.engine_control import build_engine_modes_mtd
    dfd = DataFlowDiagram("TwinModes")
    for port in ("n", "ped", "t_eng"):
        dfd.add_input(port)
    for name in ("Left", "Right"):
        dfd.add_subcomponent(build_engine_modes_mtd(name))
        for port in ("n", "ped", "t_eng"):
            dfd.connect(port, f"{name}.{port}")
        dfd.add_output(f"{name}_mode")
        dfd.connect(f"{name}.mode", f"{name}_mode")
    return dfd


def test_machines_sharing_mode_names_write_their_own_modes():
    """Both machines' ``mode`` ops run as tagged lanes and write mode
    names as opaque lanes; the second machine's names must decode to its
    own modes although the first one's are the same objects."""
    from repro.io import trace_to_json
    model = twin_engine_modes()
    schedule = compile_batch(model)
    modes = [index for index, op in enumerate(schedule.flat.program)
             if op[0] == OP_MODE]
    assert len(modes) == 2 and set(modes) <= set(schedule.vectorized_ops)
    ramp = [0.0, 300.0, 800.0, 800.0, 1600.0, 2400.0, 3200.0, 800.0]
    items = [(f"s{shift}", {"n": ramp[shift:] + ramp[:shift],
                            "ped": [0.0, 0.0, 0.0, 20.0, 40.0, 90.0, 0.0,
                                    0.0],
                            "t_eng": [80.0] * 8, }, 8) for shift in range(4)]
    scalar = CompiledSimulator(model, backend="flat")
    for (name, stimuli, ticks), outcome in zip(
            items, schedule.run_battery(items)):
        expected = scalar.run(stimuli, ticks)
        assert trace_to_json(outcome.trace) == trace_to_json(expected), name
    assert "PartLoad" in expected.outputs["Right_mode"].values()


def test_object_table_seed_keeps_positions_and_decodes_sequences():
    from repro.simulation.lanes import (TAG_OBJ, ObjectTable, decode_rows,
                                        encode_values)
    shared = "Idle"
    objects = ObjectTable([shared, "Off", shared])
    assert list(objects) == [shared, "Off", shared]
    assert objects.enter(shared) == 0 and objects.enter("new") == 3
    # an opaque sequence decodes whole, never broadcast into the array
    tags, payloads = encode_values([(1, 2), 5, (1, 2)], objects)
    assert tags[0] == TAG_OBJ
    assert decode_rows(tags, payloads, objects).tolist() == \
        [(1, 2), 5, (1, 2)]


def door_lock_battery(lanes=12, ticks=10):
    import random
    rng = random.Random(5)
    return [(f"lane{index}", {
        "T4S": [rng.choice(["locked", "unlocked"]) for _ in range(ticks)],
        "CRSH": [rng.choice(["no_crash"] * 3 + ["crash"])
                 for _ in range(ticks)],
        "FZG_V": [12.0] * ticks,
        "V_SPEED": [rng.choice([0.0, 5.0, 20.0, 50.0])
                    for _ in range(ticks)]}, ticks - index % 3)
        for index in range(lanes)]


def test_programs_without_vectorized_ops_run_lane_major():
    """The door-lock control lowers no op (enum-typed guards and
    outputs): a battery runs each lane through the flat schedule's
    whole-horizon loop.  Type-checked and op-profiled batteries sweep
    instead, the whole program one per-lane span; all three match the
    flat engine, mode histories included."""
    from repro import obs
    from repro.casestudy import build_door_lock_control
    from repro.io import trace_to_json
    model = build_door_lock_control()
    schedule = compile_batch(model)
    assert schedule.vectorized_ops == []
    assert schedule.scalar_spans == [(0, len(schedule.flat.program))]
    items = door_lock_battery()
    scalar = CompiledSimulator(model, backend="flat")
    expected = [trace_to_json(scalar.run(stimuli, ticks))
                for _name, stimuli, ticks in items]
    histories = []
    for _name, stimuli, ticks in items:
        histories.append({})
        schedule.flat.run_horizon(stimuli, ticks, histories[-1])
    with obs.session() as telemetry:
        outcomes = schedule.run_battery(items, collect_modes=True)
    assert telemetry.registry.counter("batch.lane_major").value == len(items)
    assert [trace_to_json(outcome.trace) for outcome in outcomes] == expected
    assert [outcome.mode_paths for outcome in outcomes] == histories
    with obs.session(profile_ops=True) as telemetry:
        profiled = schedule.run_battery(items)
    counters = telemetry.registry.counter_values("batch.")
    assert "batch.lane_major" not in counters
    assert counters["batch.lane_fallbacks"] > 0
    assert [trace_to_json(outcome.trace) for outcome in profiled] == expected
    checked = schedule.run_battery(items, check_types=True)
    assert [trace_to_json(outcome.trace) for outcome in checked] == expected
    # the fused span on its own: a switch and its regions run per lane
    with obs.session() as telemetry:
        swept = schedule._run_battery(items, False, True,  # noqa: SLF001
                                      telemetry)
    assert [trace_to_json(outcome.trace) for outcome in swept] == expected
    assert [outcome.mode_paths for outcome in swept] == histories
    # one ``mode`` and one region's ``expr`` op per lane and tick
    assert telemetry.registry.counter("batch.lane_fallbacks").value == \
        2 * sum(ticks for _name, _stimuli, ticks in items)


def test_leaf_stretches_run_per_lane_in_one_span():
    """The closed loop's atomic blocks sit between vectorized expression
    ops: each stretch of them is one per-lane span, and the battery
    matches the flat engine with and without the op profile (which keeps
    one kernel per op)."""
    from repro import obs
    from repro.casestudy import build_closed_loop
    from repro.io import trace_to_json
    from repro.scenarios import RandomWalk
    model = build_closed_loop()
    schedule = compile_batch(model)
    assert schedule.vectorized_ops and schedule.scalar_spans
    program = schedule.flat.program
    for start, stop in schedule.scalar_spans:
        assert not set(range(start, stop)) & set(schedule.vectorized_ops)
        assert stop - start > 1
        assert program[start][0] not in (OP_COPY, OP_BUF_READ,
                                         OP_BUF_WRITE)
    items = [(f"walk{index}",
              {port: RandomWalk(index * 7 + offset, start=10.0, step=3.0,
                                low=0.0, high=60.0)
               for offset, port in enumerate(model.input_names())},
              20 - index % 4) for index in range(10)]
    scalar = CompiledSimulator(model, backend="flat")
    expected = [trace_to_json(scalar.run(stimuli, ticks))
                for _name, stimuli, ticks in items]
    assert [trace_to_json(outcome.trace)
            for outcome in schedule.run_battery(items)] == expected
    with obs.session(profile_ops=True):
        profiled = schedule.run_battery(items)
    assert [trace_to_json(outcome.trace) for outcome in profiled] == expected
