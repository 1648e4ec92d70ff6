"""Differential and hygiene tests for the native C backend.

The native backend's promise is byte-identical observable behaviour to the
flat interpreter -- same ``trace_to_json`` output across the case-study
portfolio, same exception type/message/tick on error paths -- obtained
from a compiled C step function.  Everything that needs a C compiler is
skipped cleanly (``native_available``) on compiler-less hosts; the static
pieces (cache keys, eviction, the ir_verify refusal gate, backend
validation) run everywhere.
"""

import enum
import os
import subprocess
import sys

import pytest

import repro
from repro.casestudy import (acceleration_scenario, build_closed_loop,
                             build_door_lock_control, build_engine_ccd,
                             build_engine_modes_mtd, build_reengineered_fda,
                             crash_scenario, driving_scenario)
from repro.core.clocks import every
from repro.core.components import ExpressionComponent
from repro.core.errors import ExpressionEvalError, SimulationError
from repro.core.values import ABSENT, Stream
from repro.io.json_io import trace_to_json
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.notations.std import StateTransitionDiagram
from repro.scenarios import RandomWalk
from repro.simulation import (ClockGatedComponent, CompiledSimulator,
                              NativeLoweringError, Simulator,
                              build_gated_ccd, compile_flat, compile_native,
                              native_available)
from repro.simulation.engine import run_stepped
from repro.simulation.native import (EMITTER_VERSION, cache_key, evict_stale,
                                     lower_program, reset_toolchain_cache)
from repro.simulation.schedule_ir import OP_GATE

requires_cc = pytest.mark.skipif(not native_available(),
                                 reason="no C compiler on this host")


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Every test compiles into its own throwaway shared-object cache."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "native-cache"))


# -- helpers -------------------------------------------------------------------


def _wrapped(component):
    """A flattenable pass-through composite around an unflattenable root,
    so MTD/SSD case studies exercise the run-op trampoline path."""
    dfd = DataFlowDiagram(f"{component.name}Wrap")
    for name in component.input_names():
        dfd.add_input(name)
    for name in component.output_names():
        dfd.add_output(name)
    dfd.add_subcomponent(component)
    for name in component.input_names():
        dfd.connect(name, f"{component.name}.{name}")
    for name in component.output_names():
        dfd.connect(f"{component.name}.{name}", name)
    return dfd


def _filtered(scenario, component):
    return {name: values for name, values in scenario.items()
            if name in component.input_names()}


def _expression_heavy_model():
    dfd = DataFlowDiagram("NativeProbe")
    dfd.add_input("x")
    dfd.add_input("y")
    dfd.add_output("out")
    e1 = ExpressionComponent("E1", {"out": "a + b * 2"})
    e2 = ExpressionComponent("E2",
                             {"out": "if a > b then a / (b + 1) else "
                                     "min(a, b)"})
    e3 = ExpressionComponent("E3", {"out": "abs(a - b) % (b + 7)"})
    for block in (e1, e2, e3):
        block.add_input("a")
        block.add_input("b")
        block.add_output("out")
    inner = DataFlowDiagram("GCore")
    inner.add_input("a")
    inner.add_input("b")
    inner.add_output("out")
    inner.add_subcomponent(e3)
    inner.connect("a", "E3.a")
    inner.connect("b", "E3.b")
    inner.connect("E3.out", "out")
    gated = ClockGatedComponent(inner, every(2), name="G")
    delay = UnitDelay("Z", initial=1)
    for sub in (e1, e2, gated, delay):
        dfd.add_subcomponent(sub)
    dfd.connect("x", "E1.a")
    dfd.connect("y", "E1.b")
    dfd.connect("x", "E2.a")
    dfd.connect("E1.out", "E2.b")
    dfd.connect("x", "G.a")
    dfd.connect("E2.out", "G.b")
    dfd.connect("E2.out", "Z.in1")
    dfd.connect("E2.out", "out")
    return dfd


def _outcome(runner, stimuli, ticks):
    try:
        return runner(stimuli, ticks), None
    except Exception as exc:  # noqa: BLE001 - the comparison IS the test
        return None, f"{type(exc).__name__}: {exc}"


# -- portfolio byte-identity ---------------------------------------------------


_PORTFOLIO = [
    ("engine_ccd", lambda: build_gated_ccd(build_engine_ccd()),
     lambda c: _filtered(driving_scenario(120), c), 120),
    ("door_lock", lambda: _wrapped(build_door_lock_control()),
     lambda c: _filtered(crash_scenario(8), c), 8),
    ("reengineered_fda", lambda: _wrapped(build_reengineered_fda()),
     lambda c: _filtered(driving_scenario(120), c), 120),
    ("momentum", lambda: build_closed_loop(),
     lambda c: _filtered(acceleration_scenario(60), c), 60),
]


@requires_cc
@pytest.mark.parametrize("name,build,stimuli_of,ticks",
                         _PORTFOLIO, ids=[c[0] for c in _PORTFOLIO])
def test_native_traces_byte_identical_to_flat_on_portfolio(
        name, build, stimuli_of, ticks):
    component = build()
    stimuli = stimuli_of(component)
    flat = CompiledSimulator(component, backend="flat")
    native = CompiledSimulator(component, backend="native")
    assert native.schedule.kind == "native"
    flat_trace = flat.run(stimuli, ticks)
    native_trace = native.run(stimuli, ticks)
    assert trace_to_json(native_trace) == trace_to_json(flat_trace)
    assert native_trace.mode_history == flat_trace.mode_history


@requires_cc
def test_native_error_paths_match_flat_exactly():
    model = _expression_heavy_model()
    flat = CompiledSimulator(model, backend="flat")
    native = CompiledSimulator(model, backend="native")
    batteries = [
        # ABSENT laces, huge ints, float mixes
        ({"x": Stream([1, 2, 3, 1000, ABSENT, -5, 2 ** 70, 0.5]),
          "y": Stream([4, 0, ABSENT, 2, 7, -1, 3, 2.5])}, 8),
        # division by zero in E2 (b + 1 == 0)
        ({"x": Stream([5, 5]), "y": Stream([1, -3])}, 2),
        # int64 boundary arithmetic
        ({"x": Stream([2 ** 62, -2 ** 62, 2 ** 63 - 1]),
          "y": Stream([2 ** 62, 5, 1])}, 3),
        # modulo error path: b + 7 == 0 inside the gated region
        ({"x": Stream([1, 1]), "y": Stream([-9, -9])}, 2),
    ]
    for stimuli, ticks in batteries:
        flat_trace, flat_error = _outcome(flat.run, stimuli, ticks)
        native_trace, native_error = _outcome(native.run, stimuli, ticks)
        assert native_error == flat_error
        if flat_trace is not None:
            assert trace_to_json(native_trace) == trace_to_json(flat_trace)


@requires_cc
def test_native_value_types_are_exact():
    """int stays int, bool stays bool, floats are bit-exact -- the tagged
    plane must not decay Python's numeric tower."""
    model = _expression_heavy_model()
    flat = CompiledSimulator(model, backend="flat")
    native = CompiledSimulator(model, backend="native")
    stimuli = {"x": Stream([4, 6, True, 0.1, 9]),
               "y": Stream([2, 4, False, 0.2, 3])}
    flat_trace = flat.run(stimuli, 5)
    native_trace = native.run(stimuli, 5)
    for port, stream in flat_trace.outputs.items():
        expected = [(type(v), v) for v in stream.values()]
        got = [(type(v), v) for v in native_trace.outputs[port].values()]
        assert got == expected, port


# -- verification gate ---------------------------------------------------------


def test_native_lowering_refuses_unverified_schedule():
    """A schedule whose ir_verify report carries errors must be refused
    with a typed error before any C is emitted."""
    model = _expression_heavy_model()
    flat = compile_flat(model)
    # doctor the program: point the gate's jump target backwards, which
    # the static verifier reports as ir-gate-structure (an error)
    doctored = []
    for op in flat.program:
        if op[0] == OP_GATE:
            op = (OP_GATE, op[1], 0)
        doctored.append(op)
    flat.program = tuple(doctored)
    with pytest.raises(NativeLoweringError) as exc_info:
        compile_native(flat)
    assert "ir_verify report" in str(exc_info.value)
    assert "not clean" in str(exc_info.value)


# -- backend table and graceful degradation ------------------------------------


def test_backend_validation_lists_sorted_backends_including_native():
    model = _expression_heavy_model()
    with pytest.raises(SimulationError) as exc_info:
        CompiledSimulator(model, backend="turbo")
    assert ("choose from ('auto', 'batch', 'flat', 'native')"
            in str(exc_info.value))


def test_native_backend_degrades_to_flat_without_compiler(monkeypatch):
    model = _expression_heavy_model()
    monkeypatch.setenv("CC", "/nonexistent/compiler")
    monkeypatch.setenv("PATH", "/nonexistent")
    reset_toolchain_cache()
    try:
        assert not native_available()
        with pytest.warns(RuntimeWarning, match="requires a C compiler"):
            simulator = CompiledSimulator(model, backend="native")
        assert simulator.schedule.kind == "flat"
        with pytest.raises(NativeLoweringError, match="no C compiler"):
            compile_native(model)
    finally:
        reset_toolchain_cache()
    # the monkeypatched environment is restored by the fixture; make sure
    # later tests re-probe instead of seeing the poisoned cache
    monkeypatch.undo()
    reset_toolchain_cache()


# -- cache hygiene -------------------------------------------------------------


def test_cache_key_is_deterministic_and_version_prefixed():
    model = _expression_heavy_model()
    source_a = lower_program(compile_flat(model), EMITTER_VERSION).source
    source_b = lower_program(compile_flat(model), EMITTER_VERSION).source
    assert source_a == source_b
    assert cache_key(source_a, "cc") == cache_key(source_b, "cc")
    assert cache_key(source_a, "cc").startswith(f"nv{EMITTER_VERSION}-")
    assert cache_key(source_a + "\n/* x */", "cc") != cache_key(source_a,
                                                                "cc")


def test_evict_stale_drops_old_versions_and_trims(tmp_path):
    directory = tmp_path / "cache"
    directory.mkdir()
    stale = directory / "nv0-deadbeef.so"
    stale.write_bytes(b"old")
    (directory / "nv0-deadbeef.c").write_text("/* old */")
    fresh = []
    for index in range(4):
        path = directory / f"nv{EMITTER_VERSION}-{index:040d}.so"
        path.write_bytes(b"obj")
        os.utime(path, (1000 + index, 1000 + index))
        fresh.append(path)
    removed = evict_stale(keep=2, directory=str(directory))
    assert str(stale) in removed
    assert not stale.exists()
    assert not (directory / "nv0-deadbeef.c").exists()
    survivors = sorted(p.name for p in directory.iterdir())
    # the two newest current-version entries survive
    assert survivors == [f"nv{EMITTER_VERSION}-{2:040d}.so",
                         f"nv{EMITTER_VERSION}-{3:040d}.so"]


@requires_cc
def test_compiled_object_cache_hits_on_recompile():
    from repro.simulation.native import ensure_shared_object
    model = _expression_heavy_model()
    source = lower_program(compile_flat(model), EMITTER_VERSION).source
    path_first, hit_first = ensure_shared_object(source)
    path_again, hit_again = ensure_shared_object(source)
    assert path_first == path_again
    assert not hit_first
    assert hit_again
    assert os.path.exists(path_first)


@requires_cc
def test_concurrent_truncation_of_the_shared_source_cannot_poison_the_cache(
        tmp_path, monkeypatch):
    """A second cold build on the same key truncates ``<key>.c`` while the
    first compiler runs.  The object that lands in the cache must still
    export ``repro_run``, and the schedule built from it must run."""
    import subprocess

    from repro.simulation.native import toolchain

    model = _expression_heavy_model()
    flat = compile_flat(model)
    source = lower_program(flat, EMITTER_VERSION).source
    directory = tmp_path / "race-cache"
    shared_source = directory / (cache_key(source) + ".c")
    real_run = subprocess.run

    def racing_run(command, *args, **kwargs):
        if "-shared" in command:
            # the competing worker's ``open(<key>.c, "w")``
            shared_source.write_text("")
        return real_run(command, *args, **kwargs)

    monkeypatch.setattr(toolchain.subprocess, "run", racing_run)
    native = compile_native(flat, cache_directory=str(directory))
    monkeypatch.undo()
    stimuli = {"x": Stream([1, 2, 3]), "y": Stream([3, 2, 1])}
    expected = CompiledSimulator(model, backend="flat").run(stimuli, 3)
    state = native.initial_state()
    for tick in range(3):
        outputs, state = native.step(
            {"x": stimuli["x"][tick], "y": stimuli["y"][tick]}, state, tick)
        assert outputs["out"] == expected.outputs["out"][tick]
    assert shared_source.read_text() == source


@requires_cc
def test_cached_object_without_step_symbol_is_rebuilt(tmp_path):
    from repro.simulation.native import ensure_shared_object
    source = lower_program(compile_flat(_expression_heavy_model()),
                           EMITTER_VERSION).source
    directory = tmp_path / "poisoned-cache"
    directory.mkdir()
    poisoned = directory / (cache_key(source) + ".so")
    poisoned.write_bytes(b"\x7fELF not a step object")
    path, hit = ensure_shared_object(source, str(directory))
    assert path == str(poisoned)
    assert not hit
    assert b"repro_run" in poisoned.read_bytes()
    assert ensure_shared_object(source, str(directory)) == (path, True)


@requires_cc
def test_native_info_reports_compiler_and_cache():
    from repro.simulation.native import native_info
    info = native_info()
    assert info["available"]
    assert info["compiler"]
    assert info["emitter_version"] == EMITTER_VERSION
    assert info["cache_dir"] == os.environ["REPRO_NATIVE_CACHE"]


@requires_cc
def test_native_cli_info_runs():
    from repro.simulation.native.__main__ import main
    assert main(["--info"]) == 0
    assert main(["--evict"]) == 0


@requires_cc
def test_native_cli_evict_drops_objects_of_older_emitters():
    """Objects built by the previous emitter (``nv2-``, exporting the old
    per-tick entry point) go; the current version's object stays."""
    from repro.simulation.native.__main__ import main
    native = compile_native(_expression_heavy_model())
    directory = os.path.dirname(native.so_path)
    old = os.path.join(directory, "nv2-" + "0" * 40)
    for suffix in (".so", ".c"):
        with open(old + suffix, "w", encoding="utf-8") as handle:
            handle.write("/* repro_step */")
    assert main(["--evict"]) == 0
    assert not os.path.exists(old + ".so")
    assert not os.path.exists(old + ".c")
    assert os.path.exists(native.so_path)


# -- fallback coverage ---------------------------------------------------------


@requires_cc
def test_trampoline_covers_nested_fallback_and_exact_escapes():
    """Atomic leaves always trampoline; huge-int arithmetic bails at run
    time; the lowered fast path never fires the trampoline on plain
    small-int traffic through expression blocks only."""
    model = _expression_heavy_model()
    native = CompiledSimulator(model, backend="native")
    schedule = native.schedule
    assert schedule.lowered.lowered_ops  # expression blocks lowered
    assert schedule.lowered.fallback_ops  # the UnitDelay run op

    before = schedule.trampoline_calls
    native.run({"x": Stream([1, 2, 3, 4]), "y": Stream([4, 3, 2, 1])}, 4)
    small_int_calls = schedule.trampoline_calls - before
    # one UnitDelay replay per tick, nothing else
    assert small_int_calls == 4

    before = schedule.trampoline_calls
    native.run({"x": Stream([2 ** 70]), "y": Stream([2 ** 70])}, 1)
    assert schedule.trampoline_calls - before > 1  # run-time bails fired


@requires_cc
def test_fda_machines_run_natively_without_trampolines():
    """The Sec.-5 FDA's four MTDs lower to native mode/switch code: a
    400-tick walk on small-int traffic never re-enters Python, and the
    trace and mode histories match the flat backend."""
    import random

    from repro.scenarios import Scenario, execute_scenario

    fda = build_reengineered_fda()
    rng = random.Random(14)
    walk = {name: [] for name in fda.input_names()}
    for name, values in walk.items():
        value = rng.randint(0, 3000)
        for _ in range(400):
            value = min(3000, max(0, value + rng.randint(-150, 150)))
            values.append(value if name == "n" else value % 101)
    native = CompiledSimulator(fda, backend="native")
    schedule = native.schedule
    assert schedule.lowered.fallback_ops == []
    assert not schedule.fallback_paths
    scenario = Scenario("walk", walk, 400)
    native_result = execute_scenario(native, scenario, collect_modes=True)
    assert schedule.trampoline_calls == 0
    flat_result = execute_scenario(CompiledSimulator(fda, backend="flat"),
                                   scenario, collect_modes=True)
    assert trace_to_json(native_result.trace) == \
        trace_to_json(flat_result.trace)
    assert native_result.mode_paths == flat_result.mode_paths
    assert len(set(native_result.mode_paths[
        "GasolineEngineControl_FDA/FuelInjection"])) == 2


# -- the whole-horizon run -----------------------------------------------------


def _per_tick(simulator):
    """*simulator*'s native step driven tick by tick (the 1-tick case of
    the C entry point) through the shared driver loop."""
    schedule = simulator.schedule

    def run(stimuli, ticks):
        return run_stepped(simulator.component, schedule.step, stimuli,
                           ticks, False,
                           initial_state=schedule.initial_state(),
                           mode_of=schedule.root_mode)
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


def _std_counter():
    """A DFD around an STD whose guard divides by its input: the STD runs
    on the trampoline and fails with a division by zero where ``x == 0``
    in its ``Low`` state."""
    std = StateTransitionDiagram("Counter")
    std.add_input("x")
    std.add_output("out")
    std.add_variable("n", 0)
    std.add_state("Low", initial=True, emissions={"out": "n"})
    std.add_state("High", emissions={"out": "n * 10"})
    std.add_transition("Low", "High", "10 / x > 2", actions={"n": "n + 1"})
    std.add_transition("High", "Low", "x > 4")
    return _wrapped(std)


class _Gear(enum.IntEnum):
    PARK = 0
    DRIVE = 1


def _object_passthrough():
    """Strings and enum members through a copy and a unit delay: values
    that ride the object table across ticks."""
    dfd = DataFlowDiagram("ObjectPass")
    dfd.add_input("s")
    dfd.add_output("now")
    dfd.add_output("before")
    dfd.add_subcomponent(UnitDelay("Z", initial="none"))
    dfd.connect("s", "now")
    dfd.connect("s", "Z.in1")
    dfd.connect("Z.out", "before")
    return dfd


def _raising_at(tick, values):
    """A callable stimulus: *values* by tick, raising at *tick*."""
    def stimulus(now):
        if now == tick:
            raise ValueError(f"stimulus failed at tick {now}")
        return values[now] if now < len(values) else ABSENT
    return stimulus


_HORIZON_CASES = [
    # gated program with the UnitDelay on the trampoline
    ("gated", _expression_heavy_model,
     {"x": Stream([1, 2, 3, 1000, ABSENT, -5, 2 ** 70, 0.5]),
      "y": Stream([4, 0, ABSENT, 2, 7, -1, 3, 2.5])}, 8),
    # division by zero in E2 at tick 2, after two trampolined delay ticks
    ("gated_error_mid_horizon", _expression_heavy_model,
     {"x": Stream([5, 5, 5, 5]), "y": Stream([1, 2, -3, 1])}, 4),
    ("std_leaf", _std_counter, {"x": Stream([1, 9, 2, 5, 3, 1, 8])}, 7),
    ("std_error_mid_horizon", _std_counter,
     {"x": Stream([1, 9, 2, 5, 0, 1])}, 6),
    # the draw raises at tick 3: ticks 0..2 run first
    ("draw_error", _std_counter,
     {"x": _raising_at(3, [1, 9, 2, 5, 3])}, 5),
    # a step error at tick 1 beats the later draw error at tick 3
    ("step_error_before_draw_error", _std_counter,
     {"x": _raising_at(3, [9, 0, 2, 5, 3])}, 5),
    ("draw_error_at_tick_0", _std_counter, {"x": _raising_at(0, [])}, 3),
    ("objects", _object_passthrough,
     {"s": Stream(["on", _Gear.DRIVE, ABSENT, "off", _Gear.PARK, 7, True])},
     7),
    ("zero_ticks", _expression_heavy_model, {"x": Stream([1])}, 0),
    ("mtd_root", build_engine_modes_mtd,
     {"n": [0.0, 60.0, 800.0, 800.0, 1600.0, 3500.0, 800.0, 0.0, 40.0],
      "ped": [0.0, 0.0, 3.0, 50.0, 90.0, 90.0, 0.0, 0.0, 6.0],
      "t_eng": RandomWalk(5, start=40.0, step=2.0)}, 9),
    ("mtd_root_enum_inputs", build_door_lock_control,
     _filtered(crash_scenario(8), build_door_lock_control()), 8),
]


@requires_cc
@pytest.mark.parametrize("name,build,stimuli,ticks", _HORIZON_CASES,
                         ids=[case[0] for case in _HORIZON_CASES])
def test_native_horizon_matches_per_tick_flat_and_interpreter(
        name, build, stimuli, ticks):
    """One C call per scenario: trace bytes (``mode_history`` included)
    and exception type, message and tick equal the per-tick native step,
    the flat backend and the interpreter."""
    model = build()
    native = CompiledSimulator(model, backend="native")
    assert native.schedule.kind == "native"
    expected = _pinned(Simulator(model).run, stimuli, ticks)
    runners = {"horizon": native.run, "per-tick": _per_tick(native),
               "flat": CompiledSimulator(model, backend="flat").run}
    for label, runner in runners.items():
        assert _pinned(runner, stimuli, ticks) == expected, (name, label)


@requires_cc
def test_native_horizon_runs_are_independent_of_earlier_runs():
    """Object-table entries, delayed buffers and leaf states never leak
    from one run (or step) into the next."""
    model = _object_passthrough()
    native = CompiledSimulator(model, backend="native")
    first = {"s": Stream(["a", _Gear.DRIVE, "b"])}
    second = {"s": Stream([_Gear.PARK, "c"])}
    expected = trace_to_json(Simulator(model).run(second, 2))
    native.run(first, 3)
    _per_tick(native)(first, 2)
    trace = native.run(second, 2)
    assert trace_to_json(trace) == expected
    # the very objects come back, enum members included
    assert trace.output("now").values()[0] is _Gear.PARK
    assert trace.output("before").values()[1] is _Gear.PARK
    counter = _std_counter()
    simulator = CompiledSimulator(counter, backend="native")
    stimuli = {"x": Stream([1, 9, 2, 5])}
    expected = trace_to_json(Simulator(counter).run(stimuli, 4))
    with pytest.raises(ExpressionEvalError, match="division by zero"):
        simulator.run({"x": Stream([9, 0])}, 2)
    assert trace_to_json(simulator.run(stimuli, 4)) == expected


@requires_cc
def test_substituted_native_step_runs_once_per_tick():
    """A wrapper installed as ``schedule.step`` (the campaign ledger's
    contract) is called exactly once per tick, in tick order, and the
    trace equals the one-call horizon's; so is the step under
    ``check_types``."""
    model = _expression_heavy_model()
    native = CompiledSimulator(model, backend="native")
    stimuli = {"x": Stream([1, 2, 3, 4, 5]), "y": Stream([5, 4, 3, 2, 1])}
    horizon = trace_to_json(native.run(stimuli, 5))
    schedule = native.schedule
    own, calls = schedule.step, []

    def wrapped(inputs, state, tick):
        calls.append(tick)
        return own(inputs, state, tick)

    schedule.step = wrapped
    assert trace_to_json(native.run(stimuli, 5)) == horizon
    assert calls == [0, 1, 2, 3, 4]
    del schedule.step
    schedule.step = own
    checked = CompiledSimulator(model, backend="native", check_types=True)
    calls.clear()
    own = checked.schedule.step
    checked.schedule.step = wrapped
    assert trace_to_json(checked.run(stimuli, 5)) == horizon
    assert calls == [0, 1, 2, 3, 4]


def test_fda_lowering_is_independent_of_the_hash_seed():
    """The FDA's generated C is a function of the model only: behaviour
    ports are declared in sorted order, not in set-iteration order."""
    script = ("from repro.casestudy import build_reengineered_fda\n"
              "from repro.simulation import compile_flat\n"
              "from repro.simulation.native import EMITTER_VERSION, "
              "lower_program\n"
              "print(lower_program(compile_flat(build_reengineered_fda()), "
              "EMITTER_VERSION).source)\n")
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    sources = []
    for seed in ("1", "2"):
        environment = dict(os.environ, PYTHONHASHSEED=seed,
                           PYTHONPATH=source_root)
        sources.append(subprocess.run(
            [sys.executable, "-c", script], env=environment, check=True,
            capture_output=True, text=True, timeout=120).stdout)
    assert sources[0] == sources[1]
    assert "repro_run" in sources[0]
