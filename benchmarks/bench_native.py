"""[P8] Native C step function vs flat interpreter (gated-controller gate).

Not a paper figure: quantifies the speedup of lowering the flat schedule
IR to one compiled C step function (:mod:`repro.simulation.native`) over
interpreting the same op program in Python, on the workload the native
backend exists for -- an expression-heavy gated controller.  A wide chain
of integer expression blocks feeds a clock-gated inner chain and a
delayed feedback tap, so the measured path carries lowered expression
ops, lowered gate branches AND the per-tick trampoline re-entry for the
unit-delay leaf (the fallback machinery is on the clock, not benched
around).

Both native paths are measured: the whole-horizon run (one C call per
scenario, what ``CompiledSimulator.run`` takes) and the per-tick step
(the one-tick case of the same C function, what a wrapped or observed
step drives).  The gate is **semantic first**: both native traces must
serialize byte-identically (:func:`repro.io.trace_to_json`) to the flat
trace, and the horizon trace to the reference interpreter's, before the
>= 2x best-of speedup of the horizon over flat is asserted, and that the
horizon is no slower than the per-tick step.  Median tick rates land in
``BENCH_native.json`` for the CI artifact trail (mirroring
``BENCH_flatten.json``); compiler-less hosts skip cleanly
(``native_available``).
"""

import pytest

from repro.core.clocks import every
from repro.core.components import ExpressionComponent
from repro.io import trace_to_json
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.simulation import (ClockGatedComponent, CompiledSimulator,
                              Simulator, native_available)
from repro.simulation.engine import run_stepped

from _bench_utils import report, time_best, time_median, write_bench_json

pytestmark = pytest.mark.skipif(
    not native_available(),
    reason="native backend needs a C compiler (cc/gcc/clang or $CC)")

#: Workload shape: expression-chain width per section and horizon.
WIDTH = 16
TICKS = 2000
_SOURCES = ("a + b * 2", "(a - b) % 97", "a * 3 - b",
            "if a > b then a - b else b - a",
            "min(a, b) + max(a, b)", "abs(a - b) + 1")


def _chain(dfd: DataFlowDiagram, prefix: str, source: str,
           width: int) -> str:
    """Chain *width* two-input expression blocks; returns the last port."""
    previous = source
    for index in range(width):
        block = ExpressionComponent(f"{prefix}{index}",
                                    {"out": _SOURCES[index % len(_SOURCES)]})
        block.add_input("a")
        block.add_input("b")
        block.add_output("out")
        dfd.add_subcomponent(block)
        dfd.connect(previous, f"{prefix}{index}.a")
        dfd.connect("u", f"{prefix}{index}.b")
        previous = f"{prefix}{index}.out"
    return previous


def gated_expression_controller(width: int = WIDTH) -> DataFlowDiagram:
    """An expression-heavy controller with a gated core and a delay tap.

    A width-long preconditioning chain feeds a clock-gated inner chain
    (``every(2)``, so the lowered gate branch is taken on half the ticks),
    whose result is mixed with a unit-delay feedback tap and reduced
    modulo a prime so the integer plane never leaves int64 (no emitter
    bails -- the only per-tick Python re-entry is the delay leaf itself).
    """
    dfd = DataFlowDiagram("NativeController")
    dfd.add_input("u")
    dfd.add_output("y")

    pre_out = _chain(dfd, "P", "u", width)

    core = DataFlowDiagram("Core")
    core.add_input("u")
    core.add_input("v")
    core.add_output("y")
    previous = "v"
    for index in range(width):
        block = ExpressionComponent(f"C{index}",
                                    {"out": _SOURCES[index % len(_SOURCES)]})
        block.add_input("a")
        block.add_input("b")
        block.add_output("out")
        core.add_subcomponent(block)
        core.connect(previous, f"C{index}.a")
        core.connect("u", f"C{index}.b")
        previous = f"C{index}.out"
    core.connect(previous, "y")
    gated = ClockGatedComponent(core, every(2), name="GatedCore")
    dfd.add_subcomponent(gated)
    dfd.connect("u", "GatedCore.u")
    dfd.connect(pre_out, "GatedCore.v")

    post = ExpressionComponent("Post", {"out": "(in1 + in2 * 3) % 100003"})
    post.declare_interface_from_expressions()
    tap = UnitDelay("Z", initial=0)
    dfd.add(post, tap)
    dfd.connect("GatedCore.y", "Post.in1")
    dfd.connect("Z.out", "Post.in2")
    dfd.connect("Post.out", "Z.in1")  # feedback through the delay
    dfd.connect("Post.out", "y")
    return dfd


def test_p8_native_vs_flat_gate():
    """Acceptance gate: native >= 2x flat best-of, traces byte-identical."""
    model = gated_expression_controller(WIDTH)
    stimuli = {"u": [(tick * 7) % 23 + 1 for tick in range(TICKS)]}

    interpreter = Simulator(model)
    flat = CompiledSimulator(model, backend="flat")
    native = CompiledSimulator(model, backend="native")
    assert flat.schedule.kind == "flat"
    assert native.schedule.kind == "native"
    # the workload really is expression-dominated with a live gate and a
    # per-tick trampoline leaf (the unit delay)
    lowered = native.schedule.lowered
    assert len(lowered.lowered_ops) >= 2 * WIDTH
    assert lowered.gate_indexes

    schedule = native.schedule

    def native_per_tick():
        return run_stepped(model, schedule.step, stimuli, TICKS, False,
                           initial_state=schedule.initial_state(),
                           mode_of=schedule.root_mode)

    runs = {"flat": lambda: flat.run(stimuli, TICKS),
            "native": lambda: native.run(stimuli, TICKS),
            "native_per_tick": native_per_tick}

    # semantic gate first: byte-identical serialized traces, all engines
    flat_json = trace_to_json(runs["flat"]())
    assert trace_to_json(runs["native"]()) == flat_json
    assert trace_to_json(runs["native_per_tick"]()) == flat_json
    # ... and against the reference interpreter on a shorter horizon
    reference_trace = interpreter.run(stimuli, 300)
    assert trace_to_json(reference_trace) \
        == trace_to_json(native.run(stimuli, 300))

    timings = {engine: time_median(run, repeats=3)
               for engine, run in runs.items()}
    tick_rates = {engine: TICKS / seconds
                  for engine, seconds in timings.items()}
    # best-of for the gates themselves (repo convention for speedup gates:
    # keeps one descheduled run on a shared CI box from flipping them)
    best = {engine: time_best(run) for engine, run in runs.items()}
    speedup = best["flat"] / best["native"]
    horizon_speedup = best["native_per_tick"] / best["native"]

    path = write_bench_json("native", {
        "workload": {
            "model": model.name,
            "width": WIDTH,
            "ticks": TICKS,
            "flat_ops": len(flat.schedule.program),
            "flat_slots": flat.schedule.n_slots,
            "lowered_ops": len(lowered.lowered_ops),
            "fallback_ops": len(lowered.fallback_ops),
        },
        "median_seconds": timings,
        "best_seconds": best,
        "ticks_per_second": tick_rates,
        "speedup": {
            "native_vs_flat_best": speedup,
            "native_vs_flat_median": timings["flat"] / timings["native"],
            "horizon_vs_per_tick_best": horizon_speedup,
            "horizon_vs_per_tick_median":
                timings["native_per_tick"] / timings["native"],
        },
        "gate": {"native_vs_flat_min": 2.0,
                 "horizon_vs_per_tick_min": 1.0, "basis": "best-of"},
    })

    report("P8", "\n".join(
        [f"gated expression controller, width {WIDTH}, {TICKS} ticks "
         f"(median tick rates):"]
        + [f"  {engine:>15}: {timings[engine]:.3f}s "
           f"({tick_rates[engine]:,.0f} ticks/s)" for engine in runs]
        + [f"  native vs flat {speedup:.2f}x, horizon vs per-tick "
           f"{horizon_speedup:.2f}x (best-of), "
           f"{len(lowered.lowered_ops)} lowered / "
           f"{len(lowered.fallback_ops)} fallback ops -> {path}"]))

    assert speedup >= 2.0, (
        f"native horizon run only {speedup:.2f}x faster than the flat "
        f"interpreter (gate: 2x)")
    assert horizon_speedup >= 1.0, (
        f"native horizon run slower than the per-tick native step "
        f"({horizon_speedup:.2f}x)")
