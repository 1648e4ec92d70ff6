"""[P6] Flat schedule IR vs the reference interpreter (deep-hierarchy gate).

Not a paper figure: quantifies the speedup of cross-hierarchy flattening
(:mod:`repro.simulation.schedule_ir`) over the reference interpreter on
the workload the flattener exists for -- a deeply nested composite
hierarchy (>= 4 levels) with clock-gated subtrees, expression blocks on the
feedthrough path and a delayed feedback tap per level (so gating
predicates, slot copies *and* correction barriers are all on the measured
path).  The acceptance gate requires the flat IR to be at least 25x faster
than the interpreter (best-of on both sides) while producing tick-for-tick
identical traces.

The gate was 1.5x over the nested compiled engine until that engine was
deleted (the flat IR is now the only compiler of composites, gates and
MTDs).  25x is that gate times the nested engine's own speedup over the
interpreter on this workload (~17.6x: 1.23 s vs 0.070 s median, depth 6,
2000 ticks), so the re-baselined gate is no looser than the old one.

Both flat paths are measured: the whole-horizon run
(``FlatSchedule.run_horizon``, what ``CompiledSimulator.run`` takes) and
the per-tick step, forced by installing a wrapper as ``schedule.step``.
Their traces are byte-compared first; then the horizon must be no slower
than the per-tick step (best-of), as ``bench_native`` gates its own pair.
The kernels dominate this workload, so the two paths differ by a small
margin (~10 %); they are timed in interleaved rounds, so that load on a
shared host slows both instead of one.

The measured tick rates per engine are additionally written to
``BENCH_flatten.json`` (via :func:`_bench_utils.write_bench_json`); CI
uploads the file as an artifact so the performance trajectory of the
simulation engines is tracked across PRs.
"""

from repro.core.clocks import every
from repro.core.components import ExpressionComponent
from repro.io.json_io import trace_to_json
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.simulation import (ClockGatedComponent, CompiledSimulator,
                              Simulator, first_difference)

from _bench_utils import (report, time_best, time_best_interleaved,
                          time_median, write_bench_json)

#: Workload shape: nesting depth and simulation horizon of the gate.
DEPTH = 6
TICKS = 2000
#: Minimum flat-vs-interpreter speedup (best-of on both sides).
GATE = 25.0


def deep_gated_controller(depth: int = DEPTH) -> DataFlowDiagram:
    """A depth-level controller cascade, each level gating the next.

    Level ``d`` preconditions its input (expression block), hands it to a
    rate-gated copy of level ``d-1`` (``every(2)``, the LA-level cluster
    view), postprocesses the result against a delayed feedback tap (unit
    delay fed by the level's own output -- a live correction-barrier
    entry), and exports the sum.  The innermost level is a plain expression
    chain.  Every level therefore exercises slot copies, a gating
    predicate, an expression op and a correction barrier.
    """
    def level(d: int) -> DataFlowDiagram:
        dfd = DataFlowDiagram(f"L{d}")
        dfd.add_input("u")
        dfd.add_output("y")
        pre = ExpressionComponent("Pre", {"out": "in1 + 1"})
        pre.declare_interface_from_expressions()
        post = ExpressionComponent("Post", {"out": "in1 * 2 + in2"})
        post.declare_interface_from_expressions()
        tap = UnitDelay("Z", initial=0)
        dfd.add(pre, post, tap)
        dfd.connect("u", "Pre.in1")
        if d > 0:
            gated = ClockGatedComponent(level(d - 1), every(2),
                                        name=f"Gated{d - 1}")
            dfd.add_subcomponent(gated)
            dfd.connect("Pre.out", f"Gated{d - 1}.u")
            dfd.connect(f"Gated{d - 1}.y", "Post.in1")
        else:
            dfd.connect("Pre.out", "Post.in1")
        dfd.connect("Post.out", "Z.in1")  # feedback through the delay
        dfd.connect("Z.out", "Post.in2")
        dfd.connect("Post.out", "y")
        return dfd
    return level(depth)


def test_p6_flat_ir_vs_interpreter_gate():
    """Acceptance gate: flat IR >= 25x the interpreter, traces identical."""
    model = deep_gated_controller(DEPTH)
    stimuli = {"u": [1.0] * TICKS}

    interpreter = Simulator(model)
    flat = CompiledSimulator(model, backend="flat")
    assert flat.schedule.kind == "flat"
    # the workload really is a >= 4-level composite nest with gated subtrees
    kinds = [kind for _, kind in flat.schedule.linear_steps()]
    assert kinds.count("composite") >= 4
    assert kinds.count("gated") >= 4

    schedule = flat.schedule
    own_step = schedule.step

    def flat_per_tick():
        # a substituted step: CompiledSimulator.run drives it tick by tick
        schedule.step = lambda inputs, state, tick: own_step(inputs, state,
                                                             tick)
        try:
            return flat.run(stimuli, TICKS)
        finally:
            schedule.step = own_step

    # trace equivalence on the gated deep-nesting workload, then the two
    # flat paths byte for byte (this also warms the flat engine: first
    # runs pay allocator/branch-cache noise that would otherwise leak into
    # the timings)
    reference_trace = interpreter.run(stimuli, 300)
    assert first_difference(reference_trace, flat.run(stimuli, 300)) is None
    assert trace_to_json(flat.run(stimuli, TICKS)) \
        == trace_to_json(flat_per_tick())
    # The gate compares best-of runs on both sides (the repo-wide
    # convention for speedup gates): best-of isolates the engines'
    # intrinsic cost from scheduler noise on shared CI runners, where a
    # single descheduled run can swing the ratio below the threshold.  The
    # JSON artifact keeps the flat median too -- the right statistic to
    # *compare across PRs*.
    best = {"interpreter": time_best(lambda: interpreter.run(stimuli, TICKS)),
            "flat": time_best(lambda: flat.run(stimuli, TICKS))}
    median_flat = time_median(lambda: flat.run(stimuli, TICKS))
    median_per_tick = time_median(flat_per_tick)
    speedup = best["interpreter"] / best["flat"]
    # the kernels dominate this workload, so the two flat paths differ by
    # a small margin: time them in interleaved rounds
    paired = time_best_interleaved({
        "flat": lambda: flat.run(stimuli, TICKS),
        "flat_per_tick": flat_per_tick})
    best["flat_per_tick"] = paired["flat_per_tick"]
    horizon_speedup = paired["flat_per_tick"] / paired["flat"]

    path = write_bench_json("flatten", {
        "workload": {
            "model": model.name,
            "depth": DEPTH,
            "ticks": TICKS,
            "flat_ops": len(flat.schedule.program),
            "flat_slots": flat.schedule.n_slots,
            "flat_leaves": len(flat.schedule.leaves),
        },
        "best_seconds": best,
        "interleaved_best_seconds": paired,
        "median_seconds": {"flat": median_flat,
                           "flat_per_tick": median_per_tick},
        "ticks_per_second": {engine: TICKS / seconds
                             for engine, seconds in best.items()},
        "speedup": {"flat_vs_interpreter_best": speedup,
                    "horizon_vs_per_tick_best": horizon_speedup,
                    "horizon_vs_per_tick_median":
                        median_per_tick / median_flat},
        "gate": {"flat_vs_interpreter_min": GATE,
                 "horizon_vs_per_tick_min": 1.0, "basis": "best-of",
                 "horizon_basis": "best-of interleaved rounds"},
    })

    report("P6", "\n".join(
        [f"deep gated controller, depth {DEPTH}, {TICKS} ticks "
         f"(best-of tick rates):"]
        + [f"  {engine:>11}: {seconds:.3f}s "
           f"({TICKS / seconds:,.0f} ticks/s)"
           for engine, seconds in best.items()]
        + [f"  flat vs interpreter {speedup:.1f}x, horizon vs per-tick "
           f"{horizon_speedup:.2f}x (best-of) -> {path}"]))

    assert speedup >= GATE, (
        f"flat IR only {speedup:.1f}x faster than the reference "
        f"interpreter (gate: {GATE:.0f}x)")
    assert horizon_speedup >= 1.0, (
        f"flat horizon run slower than the per-tick flat step "
        f"({horizon_speedup:.2f}x)")
