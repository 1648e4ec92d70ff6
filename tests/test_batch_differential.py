"""Five-backend differential fuzz: interpreter vs nested vs flat vs batch
vs native.

Random flattenable models (expression blocks with randomized base-language
source, delayed feedback, clock-gated subtrees, MTD leaves) crossed with
random batteries (unequal tick counts, missing stimuli, ABSENT-laced
streams, huge integers, zero divisors) must agree across all the
execution backends: identical traces -- value AND Python type, so an
int-exact division that decays to ``numpy`` true division or an int64
wraparound is a failure even when ``==`` would hide it -- and identical
error strings on failing scenarios.  The native C backend joins only when
the host has a compiler (``native_available``).

Every generation step draws from one seeded ``random.Random``, so a
reported seed reproduces the exact divergence.  The regressions this fuzz
historically flushed out are pinned individually in ``test_batch_ir.py``.
"""

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
from repro.simulation import (ClockGatedComponent, CompiledSimulator,
                              Simulator, compile_batch, native_available)

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


def _typed_streams(trace):
    return {port: [(type(v), v) for v in stream.values()]
            for port, stream in trace.outputs.items()}


@pytest.mark.parametrize("seed", range(8))
def test_four_backends_agree_on_random_models_and_batteries(seed):
    rng = random.Random(9000 + seed)
    model = _build_model(rng, seed)
    battery = _battery(rng, model, size=rng.randint(3, 8))

    interpreter = Simulator(model)
    nested = CompiledSimulator(model, backend="nested")
    flat = CompiledSimulator(model, backend="flat")
    outcomes = compile_batch(model).run_battery(battery)
    runners = [("nested", nested.run), ("flat", flat.run)]
    if _HAS_NATIVE:
        native = CompiledSimulator(model, backend="native")
        runners.append(("native", native.run))
    # the swapped-in step variants: byte-identical traces, identical
    # exception type, message and tick as the default flat step
    batch = CompiledSimulator(model, backend="batch")
    variants = [
        ("flat+profile_ops", _in_session(flat.run, profile_ops=True)),
        ("flat+flight_recording",
         _in_session(flat.run, flight_recording=True)),
        ("batch+profile_ops", _in_session(batch.run, profile_ops=True)),
    ]
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
