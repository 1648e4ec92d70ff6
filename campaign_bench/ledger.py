"""Per-layer ledger of a traced campaign.

The ledger measures each layer from outside: for the duration of a
:func:`tracing` block it replaces the layer's functions (as bound in the
modules and classes that call them) with timing wrappers, and it puts every
original object back when the block ends.  No file of the library changes.

A wrapper keeps a stack of open calls, so each layer is charged its *self*
time: the call's duration minus the time spent in wrapped calls it made.
The self times of all layers plus the unaccounted rest add up to the
campaign's wall clock.
"""

from __future__ import annotations

import contextlib
import importlib
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(layer, module path, class name or None, attribute)`` of every
#: wrapped function.  A function imported by name into several modules is
#: wrapped in each of them, because each binding is called separately.
LAYER_TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("compiled.compile", "repro.simulation.compiled", "CompiledSimulator",
     "__init__"),
    ("native.build", "repro.simulation.native.schedule", None,
     "ensure_shared_object"),
    ("engine.feeds", "repro.simulation.engine", None, "prepare_feeds"),
    ("engine.feeds", "repro.simulation.batch_ir", None, "prepare_feeds"),
    ("engine.drive", "repro.simulation.compiled", None, "run_stepped"),
    ("engine.drive", "repro.scenarios.runner", None, "run_stepped"),
    ("trace.record", "repro.simulation.trace", "SimulationTrace",
     "record_tick"),
    ("report.observe", "repro.scenarios.report", "BatchReport",
     "observe_result"),
    ("report.mode_paths", "repro.scenarios.runner", None,
     "active_mode_paths"),
    ("report.mode_paths", "repro.simulation.schedule_ir", "FlatSchedule",
     "mode_paths"),
    ("batch.sweep", "repro.simulation.batch_ir", "BatchSchedule",
     "run_battery"),
    ("runner.dispatch", "repro.scenarios.runner", None, "run_sharded"),
    ("runner.dispatch", "repro.scenarios", None, "run_sharded"),
    ("runner.dispatch", "repro.search.loop", None, "run_sharded"),
    ("runner.dispatch", "repro.search.minimize", None, "run_sharded"),
    ("search.breed", "repro.search.loop", None, "_next_generation"),
    ("search.breed", "repro.search.loop", "_TransitionTargeter",
     "candidates"),
    ("search.fitness", "repro.search.fitness", "CoverageFrontier", "absorb"),
    ("search.minimize", "repro.search.loop", None, "minimize_battery"),
)

#: The batch backend's per-lane fallback; counted (lanes), not timed.
SCALAR_FALLBACK_TARGET = ("repro.simulation.batch_ir", "BatchSchedule",
                          "_scalar_tick")


def resolve(module: str, owner: Optional[str]) -> Any:
    """The module or class that holds a wrapped attribute."""
    target = importlib.import_module(module)
    return getattr(target, owner) if owner is not None else target


class Ledger:
    """Self time, call counts and side counters per layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.native_schedules: List[Any] = []
        self._open = [0.0]  # child time of each open wrapped call

    def timed(self, layer: str, function: Callable[..., Any],
              after: Optional[Callable[[tuple, Any], None]] = None
              ) -> Callable[..., Any]:
        """*function* wrapped to charge its self time to *layer*."""
        clock = time.perf_counter
        open_calls = self._open
        self_s = self.self_s
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            open_calls.append(0.0)
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self_s[layer] += elapsed - open_calls.pop()
                open_calls[-1] += elapsed
                calls[layer] += 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        return wrapper

    def take(self) -> Dict[str, Any]:
        """This campaign's figures; the ledger starts again from zero."""
        sample = {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "trampolines": sum(schedule.trampoline_calls
                               for schedule in self.native_schedules),
        }
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.native_schedules.clear()
        self._open[:] = [0.0]
        return sample


@contextlib.contextmanager
def tracing(ledger: Ledger) -> Iterator[Ledger]:
    """Install the layer wrappers for the block; restore on exit.

    Schedules compiled inside the block get their ``step`` wrapped as the
    ``kernel.step`` layer; those per-instance wrappers are removed on exit
    too, so no object keeps a wrapper after the block.
    """
    patches: List[Tuple[Any, str, Any]] = []

    def patch(holder: Any, attribute: str, replacement: Any) -> None:
        # modules and classes: the object bound there, never an inherited one
        original = vars(holder)[attribute] \
            if isinstance(holder, (type, types.ModuleType)) \
            else getattr(holder, attribute)
        patches.append((holder, attribute, original))
        setattr(holder, attribute, replacement)

    def after_compile(args: tuple, _result: Any) -> None:
        schedule = args[0].schedule
        native = getattr(schedule, "kind", None) == "native"
        if native:
            ledger.native_schedules.append(schedule)
            ledger.counts["native.lowered_ops"] = \
                len(schedule.lowered.lowered_ops)
            ledger.counts["native.fallback_ops"] = \
                len(schedule.lowered.fallback_ops)
        counts = ledger.counts
        step = ledger.timed("kernel.step", schedule.step)
        if native:
            timed_step = step

            def step(*args: Any) -> Any:
                counts["native.steps"] += 1
                return timed_step(*args)
        patch(schedule, "step", step)

    def after_build(_args: tuple, result: Any) -> None:
        ledger.counts["native.cache_hits"] += 1 if result[1] else 0

    def after_sweep(args: tuple, _result: Any) -> None:
        ledger.counts["batch.lane_ticks"] += sum(item[2] for item in args[1])

    def count_fallback(function: Callable[..., Any]) -> Callable[..., Any]:
        counts = ledger.counts

        def wrapper(self: Any, tick: int, indices: List[int],
                    *args: Any, **kwargs: Any) -> Any:
            counts["batch.scalar_fallback_ticks"] += len(indices)
            return function(self, tick, indices, *args, **kwargs)

        return wrapper

    hooks = {"compiled.compile": after_compile, "native.build": after_build,
             "batch.sweep": after_sweep}
    try:
        for layer, module, owner, attribute in LAYER_TARGETS:
            holder = resolve(module, owner)
            patch(holder, attribute,
                  ledger.timed(layer, vars(holder)[attribute],
                               hooks.get(layer)))
        module, owner, attribute = SCALAR_FALLBACK_TARGET
        holder = resolve(module, owner)
        patch(holder, attribute, count_fallback(vars(holder)[attribute]))
        yield ledger
    finally:
        for holder, attribute, original in reversed(patches):
            setattr(holder, attribute, original)


#: Layers whose self time is reported as a share of the campaign's wall
#: clock: shares sum with ``ledger.unaccounted_ratio`` to one, and unlike
#: seconds they do not move with the host's speed.
SHARES = {
    "compiled.compile_share": "compiled.compile",
    "native.build_share": "native.build",
    "engine.feeds_share": "engine.feeds",
    "engine.drive_share": "engine.drive",
    "kernel.step_share": "kernel.step",
    "batch.sweep_share": "batch.sweep",
    "trace.record_share": "trace.record",
    "report.observe_share": "report.observe",
    "report.mode_paths_share": "report.mode_paths",
    "runner.dispatch_share": "runner.dispatch",
    "search.breed_share": "search.breed",
    "search.fitness_share": "search.fitness",
    "search.minimize_share": "search.minimize",
}


def layer_figures(sample: Dict[str, Any], wall_s: float) -> Dict[str, float]:
    """One traced campaign's per-layer metrics."""
    self_s, calls, counts = sample["self_s"], sample["calls"], sample["counts"]
    figures = {name: self_s.get(layer, 0.0) / wall_s
               for name, layer in SHARES.items()}
    native_steps = counts.get("native.steps", 0)
    builds = calls.get("native.build", 0)
    # the step kernel per scenario tick, whichever backend runs it: the
    # per-scenario step function, or the batch backend's vectorized sweep
    kernel_s = self_s.get("kernel.step", 0.0) + self_s.get("batch.sweep", 0.0)
    kernel_ticks = calls.get("kernel.step", 0) \
        + counts.get("batch.lane_ticks", 0)
    figures.update({
        "compiled.compiles": calls.get("compiled.compile", 0),
        "native.cache_hit_ratio": (counts.get("native.cache_hits", 0) / builds
                                   if builds else 0.0),
        "native.trampolines_per_tick": (sample["trampolines"] / native_steps
                                        if native_steps else 0.0),
        "native.lowered_ops": counts.get("native.lowered_ops", 0),
        "native.fallback_ops": counts.get("native.fallback_ops", 0),
        "kernel.steps": calls.get("kernel.step", 0),
        "kernel.step_us_per_tick": 1e6 * kernel_s / kernel_ticks,
        "batch.scalar_fallback_ticks":
            counts.get("batch.scalar_fallback_ticks", 0),
        "trace.record_calls": calls.get("trace.record", 0),
        "ledger.unaccounted_ratio": 1.0 - sum(self_s.values()) / wall_s,
    })
    return figures
