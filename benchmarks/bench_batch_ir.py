"""[P7] Vectorized batch backend vs per-scenario flat engine (battery gate).

Not a paper figure: quantifies the speedup of sweeping a whole scenario
battery as ONE vectorized op program (:mod:`repro.simulation.batch_ir`)
over running the same battery one scenario at a time through the flat
schedule.  The workload is what the batch backend exists for -- an
expression-heavy model (a chain of expression blocks, all lowered to
tagged NumPy lanes) crossed with a large battery (>= 256 scenarios): per
scenario the flat engine pays the full per-tick driver overhead (stimulus
draw, environment dicts, op dispatch, trace bookkeeping), while the batch
sweep pays it once per tick for all lanes.

The gate is **semantic first**: every batch trace must serialize
byte-identically (:func:`repro.io.trace_to_json`) to the per-scenario flat
trace, and a sample of scenarios is additionally checked byte-for-byte
against the reference interpreter.  Only then is the >= 3x speedup
asserted, on the best of interleaved rounds (a burst of load slows both
sides), with every round's timing recorded as the spread.  A second,
ungated measurement runs the Sec.-5 FDA battery on the batch, flat and
native backends after byte-comparing their traces; a third runs the
door-lock control -- a model batch vectorizes nothing of -- on batch and
flat.  Tick rates land in ``BENCH_batch_ir.json``,
``BENCH_batch_ir_fda.json`` and ``BENCH_batch_ir_door_lock.json`` for the
CI artifact trail (mirroring ``BENCH_flatten.json``).
"""

import random

from repro import obs
from repro.casestudy import build_door_lock_control, build_reengineered_fda
from repro.core.components import ExpressionComponent
from repro.io import trace_to_json
from repro.notations.dfd import DataFlowDiagram
from repro.scenarios import RandomWalk
from repro.simulation import (CompiledSimulator, Simulator, compile_batch,
                              native_available)

from _bench_utils import report, spread, time_interleaved, write_bench_json

#: Workload shape: battery size, horizon and expression-chain width.
SCENARIOS = 512
TICKS = 100
WIDTH = 4
_SOURCES = ("a + b * 2", "(a - b) % 97", "a * 3 - b", "a + b * 2")
#: Interleaved timing rounds of the gate.
ROUNDS = 5

#: The FDA battery: random walks on its six inputs, ``(low, high, step)``.
FDA_SCENARIOS = 128
FDA_TICKS = 50
FDA_INPUTS = {"n": (0.0, 6500.0, 250.0), "ped": (0.0, 100.0, 8.0),
              "t_eng": (-20.0, 120.0, 3.0), "pos": (0.0, 90.0, 4.0),
              "pos_des": (0.0, 90.0, 4.0),
              "throttle_angle": (0.0, 90.0, 4.0)}


#: The door-lock battery: random lock, crash and speed inputs.
DOOR_LOCK_SCENARIOS = 256
DOOR_LOCK_TICKS = 60


def expression_chain(width: int = WIDTH) -> DataFlowDiagram:
    """A width-long chain of two-input expression blocks.

    Every block reads the boundary input (``b``) and its predecessor
    (``a``), so the whole per-tick program is expression ops over the slot
    environment -- the all-``expr`` shape the vectorized backend targets.
    """
    dfd = DataFlowDiagram("ExprChain")
    dfd.add_input("u")
    dfd.add_output("y")
    previous = None
    for index in range(width):
        block = ExpressionComponent(f"E{index}",
                                    {"out": _SOURCES[index % len(_SOURCES)]})
        block.add_input("a")
        block.add_input("b")
        block.add_output("out")
        dfd.add_subcomponent(block)
        dfd.connect("u", f"E{index}.b")
        dfd.connect("u" if previous is None else f"{previous}.out",
                    f"E{index}.a")
        previous = f"E{index}"
    dfd.connect(f"{previous}.out", "y")
    return dfd


def battery(scenarios: int = SCENARIOS, ticks: int = TICKS):
    return [(f"sweep{index}",
             {"u": [(index * 7 + tick) % 23 for tick in range(ticks)]},
             ticks) for index in range(scenarios)]


def fda_battery(scenarios: int = FDA_SCENARIOS, ticks: int = FDA_TICKS,
                seed: int = 7):
    rng = random.Random(seed)
    return [(f"fda{index}",
             {port: RandomWalk(rng.randrange(2 ** 31),
                               start=rng.uniform(low, high), step=step,
                               low=low, high=high)
              for port, (low, high, step) in FDA_INPUTS.items()}, ticks)
            for index in range(scenarios)]


def door_lock_battery(scenarios: int = DOOR_LOCK_SCENARIOS,
                      ticks: int = DOOR_LOCK_TICKS, seed: int = 3):
    rng = random.Random(seed)
    return [(f"door{index}", {
        "T4S": [rng.choice(["locked", "unlocked"]) for _ in range(ticks)],
        "CRSH": [rng.choice(["no_crash"] * 9 + ["crash"])
                 for _ in range(ticks)],
        "FZG_V": [12.0] * ticks,
        "V_SPEED": [rng.choice([0.0, 5.0, 20.0, 50.0])
                    for _ in range(ticks)]}, ticks)
        for index in range(scenarios)]


def test_p7_batch_ir_vs_per_scenario_flat_gate():
    """Acceptance gate: batch sweep >= 3x per-scenario flat, traces
    byte-identical (flat everywhere, interpreter on a sample)."""
    model = expression_chain()
    items = battery()
    flat = CompiledSimulator(model, backend="flat")
    batch = compile_batch(model)

    def run_flat():
        return [flat.run(stimuli, ticks) for _, stimuli, ticks in items]

    def run_batch():
        return batch.run_battery(items)

    # semantic gate first: byte-identical serialized traces, all scenarios
    flat_traces = run_flat()
    outcomes = run_batch()
    assert all(outcome.ok for outcome in outcomes)
    for (name, stimuli, ticks), expected, outcome in zip(items, flat_traces,
                                                         outcomes):
        assert trace_to_json(expected) == trace_to_json(outcome.trace), name
    # ... and against the reference interpreter on a spread sample
    interpreter = Simulator(model)
    for index in range(0, len(items), len(items) // 16):
        _name, stimuli, ticks = items[index]
        assert trace_to_json(interpreter.run(stimuli, ticks)) \
            == trace_to_json(outcomes[index].trace)

    samples = time_interleaved({"flat_per_scenario": run_flat,
                                "batch": run_batch}, rounds=ROUNDS)
    best = {engine: min(seconds) for engine, seconds in samples.items()}
    speedup = best["flat_per_scenario"] / best["batch"]
    total_ticks = sum(ticks for _, _, ticks in items)

    path = write_bench_json("batch_ir", {
        "workload": {
            "model": model.name,
            "scenarios": SCENARIOS,
            "ticks_per_scenario": TICKS,
            "expression_blocks": WIDTH,
            "flat_ops": len(flat.schedule.program),
            "flat_slots": flat.schedule.n_slots,
            "vectorized_ops": len(batch.vectorized_ops),
        },
        "seconds": {engine: spread(seconds)
                    for engine, seconds in samples.items()},
        "best_seconds": best,
        "scenario_ticks_per_second": {
            engine: total_ticks / seconds for engine, seconds
            in best.items()},
        "speedup": {
            "batch_vs_flat_best": speedup,
            "batch_vs_flat_per_round": spread([
                flat_s / batch_s for flat_s, batch_s
                in zip(samples["flat_per_scenario"], samples["batch"])]),
        },
        "gate": {"batch_vs_flat_min": 3.0,
                 "basis": f"best of {ROUNDS} interleaved rounds"},
    })

    report("P7", "\n".join([
        f"{SCENARIOS}-scenario battery x {TICKS} ticks, "
        f"{WIDTH} expression blocks, {ROUNDS} interleaved rounds:",
        f"  flat per-scenario: {best['flat_per_scenario']:.3f}s "
        f"({total_ticks / best['flat_per_scenario']:,.0f} "
        f"scenario-ticks/s)",
        f"  batch sweep:       {best['batch']:.3f}s "
        f"({total_ticks / best['batch']:,.0f} scenario-ticks/s)",
        f"  batch vs flat {speedup:.2f}x (best-of) -> {path}"]))

    assert speedup >= 3.0, (
        f"batch sweep only {speedup:.2f}x faster than per-scenario flat "
        f"(gate: 3x)")


def test_p7_fda_battery_on_batch_flat_and_native():
    """Recorded, not gated: the Sec.-5 FDA battery as one batch sweep,
    per scenario on the flat backend and -- with a C compiler -- on the
    native backend, after checking their traces byte for byte.  Every FDA
    ``expr``/``mode`` op runs as tagged lanes, with no lane falling
    back."""
    model = build_reengineered_fda()
    items = fda_battery()
    batch = compile_batch(model)
    backends = {"flat": CompiledSimulator(model, backend="flat")}
    if native_available():
        backends["native"] = CompiledSimulator(model, backend="native")

    runners = {"batch": lambda: batch.run_battery(items)}
    for backend, simulator in backends.items():
        runners[backend] = (lambda simulator=simulator: [
            simulator.run(stimuli, ticks) for _, stimuli, ticks in items])

    with obs.session() as telemetry:
        outcomes = runners["batch"]()
    counters = telemetry.registry.counter_values("batch.")
    assert counters["batch.lane_fallbacks"] == 0
    assert "batch.scalar_fallback_ticks" not in counters
    expected = [trace_to_json(outcome.trace) for outcome in outcomes]
    for backend in backends:
        assert [trace_to_json(trace) for trace in runners[backend]()] \
            == expected, backend

    samples = time_interleaved(runners, rounds=3)
    total_ticks = FDA_SCENARIOS * FDA_TICKS
    rates = {backend: total_ticks / min(seconds)
             for backend, seconds in samples.items()}
    path = write_bench_json("batch_ir_fda", {
        "workload": {"model": model.name, "scenarios": FDA_SCENARIOS,
                     "ticks_per_scenario": FDA_TICKS,
                     "vectorized_ops": batch.vectorized_ops,
                     "flat_ops": len(batch.flat.program)},
        "seconds": {backend: spread(seconds)
                    for backend, seconds in samples.items()},
        "scenario_ticks_per_second": rates,
        "lane_fallbacks": counters["batch.lane_fallbacks"],
    })
    report("P7", "\n".join(
        [f"FDA battery, {FDA_SCENARIOS} scenarios x {FDA_TICKS} ticks "
         f"(best of 3 interleaved rounds, no gate):"]
        + [f"  {backend:>6}: {rate:,.0f} scenario-ticks/s"
           for backend, rate in rates.items()] + [f"  -> {path}"]))


def test_p7_door_lock_battery_with_nothing_vectorized():
    """Recorded, not gated: the door-lock control lowers no op (enum-typed
    guards and outputs), so batch runs each lane through the flat
    schedule's whole-horizon loop; traces are byte-compared with flat
    per scenario first."""
    model = build_door_lock_control()
    items = door_lock_battery()
    batch = compile_batch(model)
    flat = CompiledSimulator(model, backend="flat")
    runners = {
        "batch": lambda: batch.run_battery(items),
        "flat": lambda: [flat.run(stimuli, ticks)
                         for _, stimuli, ticks in items]}
    assert not batch.vectorized_ops
    assert [trace_to_json(outcome.trace) for outcome in runners["batch"]()] \
        == [trace_to_json(trace) for trace in runners["flat"]()]

    samples = time_interleaved(runners, rounds=3)
    total_ticks = DOOR_LOCK_SCENARIOS * DOOR_LOCK_TICKS
    rates = {backend: total_ticks / min(seconds)
             for backend, seconds in samples.items()}
    path = write_bench_json("batch_ir_door_lock", {
        "workload": {"model": model.name, "scenarios": DOOR_LOCK_SCENARIOS,
                     "ticks_per_scenario": DOOR_LOCK_TICKS,
                     "vectorized_ops": batch.vectorized_ops,
                     "flat_ops": len(batch.flat.program)},
        "seconds": {backend: spread(seconds)
                    for backend, seconds in samples.items()},
        "scenario_ticks_per_second": rates,
    })
    report("P7", "\n".join(
        [f"door-lock battery, {DOOR_LOCK_SCENARIOS} scenarios x "
         f"{DOOR_LOCK_TICKS} ticks, nothing vectorized (best of 3 "
         f"interleaved rounds, no gate):"]
        + [f"  {backend:>6}: {rate:,.0f} scenario-ticks/s"
           for backend, rate in rates.items()] + [f"  -> {path}"]))
