"""The batch IR backend: one vectorized sweep per scenario battery.

The flat schedule (:mod:`repro.simulation.schedule_ir`) runs one scenario
per call: a linear op program over a flat slot environment, one Python
value per slot.  Scenario batteries run that program S times per tick --
yet the program, the slots and the tick structure are identical across
scenarios; only the values differ.  This module widens each slot to a
**lane row**: the per-tick environment becomes a ``(slot, scenario)``
NumPy object array, and the whole battery advances through each tick with
ONE pass over the op program.

Kernels (index-aligned with the flat program, so gate jump targets carry
over; :func:`~repro.simulation.schedule_ir.run_kernels` drives them):

* ``copy`` / ``buf_read`` / ``buf_write`` / ``gate`` / ``jump`` -- the
  scalar kernels unchanged: on lane rows a slot copy is a whole-row
  assignment, and a clock depends on the tick only, so a silent one skips
  every lane;
* ``expr``      -- expression closures are recompiled into lane-masked
  ufunc chains (:mod:`repro.core.expr_batch`): one call evaluates a node
  for every active scenario, with ABSENT threaded through the object
  lanes and short-circuit/conditional masks restricting evaluation to
  exactly the lanes the scalar engine would evaluate;
* ``mode``      -- a machine's guards are recompiled the same way and
  evaluated per current mode in priority order, each on exactly the lanes
  still waiting for a guard to fire;
* ``switch``    -- runs each behaviour region once per tick under the mask
  of the lanes in that mode, then restores the region's slot and buffer
  rows on every other lane (the regions' closing ``jump`` ops never run);
* ``run`` / ``correct`` -- leaf steps (STDs, atomic blocks, custom
  ``react`` components, subtrees a correction barrier re-runs) and
  correction barriers keep their per-scenario step closures and loop over
  the active lanes only.

**Active masks.**  Scenarios of unequal length share one sweep: a lane is
active while ``tick < its horizon``; finished and failed lanes simply drop
out of the mask.  Lane state (leaf states, delayed buffers, slot rows) is
strictly per-lane -- nothing is ever read across the scenario axis.

**Error parity without batch poisoning.**  The vectorized kernels promise
to raise whenever any active lane would raise under the scalar engine
(and to compute bit-identical values when none would).  On any raise the
sweep discards the half-done vectorized tick and re-runs that one tick
per active lane through ``FlatSchedule.step`` -- the scalar closures --
from the tick-start state.  Lanes that raise there record the *exact*
scalar exception (same type, message and tick) and leave the battery;
surviving lanes continue vectorized at the next tick.  Stimulus
validation runs through :func:`repro.simulation.engine.prepare_feeds`,
the same helper :func:`~repro.simulation.engine.run_stepped` uses, so
rejection messages are identical by construction.

Stimulus callables are materialized for the full horizon up front (one
draw sequence per lane, in lane order).  Deterministic ``tick -> value``
functions -- the de-facto contract of the sharded runner, which already
re-materializes generators per worker -- observe no difference.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.expr_batch import compile_batch_expression, fired_on
from ..core.types import check_value
from ..core.values import ABSENT, is_absent
from ..obs.context import active as _obs_active
from ..obs.context import maybe_span
from .engine import StimulusSpec, prepare_feeds
from .schedule_ir import (OP_BUF_READ, OP_BUF_WRITE, OP_COPY, OP_CORRECT,
                          OP_EXPR, OP_MODE, OP_RUN, OP_SWITCH,
                          SCALAR_KERNELS, FlatSchedule, FlatState, Frame,
                          Kernel, profiled_kernels, profiled_ticks,
                          run_kernels, switch_regions)
from .trace import SimulationTrace

#: One battery item: ``(name, stimuli, ticks)``.
BatteryItem = Tuple[str, Optional[Mapping[str, StimulusSpec]], int]


class LaneOutcome:
    """Per-scenario outcome of a batched sweep.

    Either a trace (success) or an error: *error* is formatted exactly like
    the sharded runner's :class:`~repro.scenarios.runner.ScenarioResult`
    error strings, and *exception* carries the original exception object so
    single-run entry points can re-raise it unchanged.  *mode_paths* is
    populated when the sweep ran with ``collect_modes=True``.
    """

    __slots__ = ("name", "trace", "error", "exception", "mode_paths")

    def __init__(self, name: str, trace: Optional[SimulationTrace] = None,
                 error: Optional[str] = None,
                 exception: Optional[BaseException] = None,
                 mode_paths: Optional[Dict[str, List[Any]]] = None):
        self.name = name
        self.trace = trace
        self.error = error
        self.exception = exception
        self.mode_paths = mode_paths

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"error={self.error!r}"
        return f"LaneOutcome({self.name!r}, {status})"


def _capture(exc: BaseException) -> Tuple[str, BaseException]:
    """Format a lane failure exactly like ``execute_scenario`` (call from
    inside the ``except`` block so the traceback is still current)."""
    detail = traceback.format_exc(limit=3).strip().splitlines()[-1]
    error = f"{type(exc).__name__}: {exc}" if str(exc) else detail
    return error, exc


def _absent_plane(rows: int, lanes: int) -> np.ndarray:
    plane = np.empty((rows, lanes), dtype=object)
    plane.fill(ABSENT)
    return plane


class LaneFrame(Frame):
    """A :class:`~repro.simulation.schedule_ir.Frame` over lane rows
    (``[leaf][lane]`` states, a ``(buffer, lane)`` buffer plane) plus the
    tick's active-lane mask and its indices, and the kernel table being
    run (a switch runs its regions' kernels from it)."""

    __slots__ = ("active", "indices", "kernels")


# -- lane kernels: the ops that compute rather than move ----------------------


def _lane_run_kernel(op: Tuple[Any, ...]) -> Kernel:
    _, leaf_index, fn, in_spec, out_spec, post, si = op

    def run(values: np.ndarray, frame: LaneFrame) -> None:
        tick = frame.tick
        prev_row = frame.prev_states[leaf_index]
        next_row = frame.next_states[leaf_index]
        lane_inputs = None
        if si >= 0:
            lane_inputs = frame.scratch[si] = {}
        for lane in frame.indices:
            sub_inputs = {name: values[slot, lane] for name, slot in in_spec}
            outputs, new_state = fn(sub_inputs, prev_row[lane], tick)
            next_row[lane] = new_state
            for name, slot in out_spec:
                values[slot, lane] = outputs.get(name, ABSENT)
            if lane_inputs is not None:
                lane_inputs[lane] = sub_inputs
        for src, dst in post:
            values[dst] = values[src]

    return run


def _lane_expr_kernel(op: Tuple[Any, ...]) -> Kernel:
    _, _leaf, in_spec, items, post = op

    def expr(values: np.ndarray, frame: LaneFrame) -> None:
        active = frame.active
        env = {name: values[slot] for name, slot in in_spec}
        for slot, fn in items:
            if slot >= 0:
                values[slot] = fn(env, active)
            else:
                fn(env, active)
        for src, dst in post:
            values[dst] = values[src]

    return expr


def _lane_correct_kernel(op: Tuple[Any, ...]) -> Kernel:
    entries = op[1]

    def correct(values: np.ndarray, frame: LaneFrame) -> None:
        tick = frame.tick
        for si, leaf_index, fn, in_spec in entries:
            lane_inputs = frame.scratch[si]
            prev_row = frame.prev_states[leaf_index]
            next_row = frame.next_states[leaf_index]
            for lane in frame.indices:
                final = {name: values[slot, lane] for name, slot in in_spec}
                if final != lane_inputs[lane]:
                    _, corrected = fn(final, prev_row[lane], tick)
                    next_row[lane] = corrected

    return correct


def _lane_mode_kernel(op: Tuple[Any, ...]) -> Kernel:
    _, _machine, in_spec, table, buf, mode_slot, names = op
    name_row = np.array(names, dtype=object)

    def mode(values: np.ndarray, frame: LaneFrame) -> None:
        current = frame.prev_buffers[buf].astype(np.int64)
        following = current.copy()
        env = {name: values[slot] for name, slot in in_spec}
        for index, guards in enumerate(table):
            pending = frame.active & (current == index)
            # priority order: a lane leaves *pending* when a guard fires,
            # so later guards are evaluated on exactly the scalar lanes
            for guard, target in guards:
                if not pending.any():
                    break
                row = guard(env, pending)
                fired = fired_on(row, pending)
                following[fired] = target
                pending &= ~fired
        frame.next_buffers[buf] = following.astype(object)
        if mode_slot >= 0:
            values[mode_slot] = name_row[following]

    return mode


def _region_writes(program: Sequence[Tuple[Any, ...]], start: int,
                   stop: int) -> Tuple[List[int], List[int]]:
    """The slots and delayed buffers the ops of ``[start, stop)`` may
    write (leaf states need no entry: run kernels only touch their
    lanes)."""
    slots: List[int] = []
    buffers: List[int] = []
    for op in program[start:stop]:
        code = op[0]
        if code == OP_RUN:
            slots += [slot for _name, slot in op[4]]
            slots += [dst for _src, dst in op[5]]
        elif code == OP_EXPR:
            slots += [slot for slot, _fn in op[3] if slot >= 0]
            slots += [dst for _src, dst in op[4]]
        elif code in (OP_COPY, OP_BUF_READ):
            slots += [dst for _src, dst in op[1]]
        elif code == OP_BUF_WRITE:
            buffers += [index for _src, index in op[1]]
        elif code == OP_MODE:
            buffers.append(op[4])
            if op[5] >= 0:
                slots.append(op[5])
    return sorted(set(slots)), sorted(set(buffers))


def _lane_switch_kernel(op: Tuple[Any, ...]) -> Kernel:
    _, buf, _cases, end, regions = op

    def switch(values: np.ndarray, frame: LaneFrame) -> int:
        modes = frame.next_buffers[buf]
        active, indices = frame.active, frame.indices
        for mode, start, stop, slots, buffers in regions:
            lanes = active & (modes == mode)
            if not lanes.any():
                continue
            # the region runs once for every lane in its mode; its writes
            # are then undone on all other lanes (rows are written whole,
            # and a mode's buffers must carry over in the other modes)
            saved_slots = values[slots]
            saved_buffers = frame.next_buffers[buffers]
            frame.active = lanes
            frame.indices = np.nonzero(lanes)[0].tolist()
            run_kernels(frame.kernels, values, frame, start, stop)
            values[slots] = np.where(lanes, values[slots], saved_slots)
            frame.next_buffers[buffers] = np.where(
                lanes, frame.next_buffers[buffers], saved_buffers)
        frame.active, frame.indices = active, indices
        return end

    return switch


#: Opcode -> kernel factory for lane rows: copy / buffer / gate / jump
#: kernels move whole rows (or jump for every lane), so the scalar ones
#: serve unchanged.
LANE_KERNELS = {**SCALAR_KERNELS, OP_RUN: _lane_run_kernel,
                OP_EXPR: _lane_expr_kernel, OP_CORRECT: _lane_correct_kernel,
                OP_MODE: _lane_mode_kernel, OP_SWITCH: _lane_switch_kernel}


class BatchSchedule:
    """A :class:`~repro.simulation.schedule_ir.FlatSchedule` widened to
    execute whole scenario batteries as single vectorized sweeps."""

    kind = "batch"

    def __init__(self, flat: FlatSchedule):
        self.flat = flat
        self.component = flat.component
        with maybe_span("compile.batch_lower",
                        component=flat.component.name,
                        ops=len(flat.program)):
            self._program = self._lower(flat)
            self._kernels = [LANE_KERNELS[op[0]](op) for op in self._program]

    def op_labels(self) -> List[Tuple[str, str, bool]]:
        """Op descriptors for :class:`repro.obs.profile.OpProfile` -- the
        batch program is index-identical to the flat one."""
        return self.flat.op_labels()

    # -- lowering ----------------------------------------------------------

    @staticmethod
    def _lower(flat: FlatSchedule) -> Tuple[Tuple[Any, ...], ...]:
        """Replace scalar expression and guard closures with lane-masked
        batch kernels, and give each switch its regions' write sets.

        The op list stays index-identical to ``flat.program``, so jump
        targets need no relocation.  Batch kernels are recompiled from the
        expression blocks' and guards' ASTs -- the flat program stores
        compiled scalar closures, which carry no AST to translate.
        """
        program: List[Tuple[Any, ...]] = []
        for index, op in enumerate(flat.program):
            code = op[0]
            if code == OP_EXPR:
                _, leaf_index, in_spec, items, post = op
                block = flat.leaves[leaf_index].component
                functions = block._evaluator.functions  # noqa: SLF001
                batch_items = tuple(
                    (slot, compile_batch_expression(expression, functions))
                    for (slot, _scalar), (_name, expression)
                    in zip(items, block.output_expressions.items()))
                op = (OP_EXPR, leaf_index, in_spec, batch_items, post)
            elif code == OP_MODE:
                mtd = flat.machines[op[1]].component
                functions = mtd._evaluator.functions  # noqa: SLF001
                table = tuple(
                    tuple((compile_batch_expression(transition.guard,
                                                    functions), target)
                          for transition, (_scalar, target)
                          in zip(mtd.transitions_from(name), guards))
                    for name, guards in zip(op[6], op[3]))
                op = op[:3] + (table,) + op[4:]
            elif code == OP_SWITCH:
                regions = tuple(
                    (mode, start, stop)
                    + _region_writes(flat.program, start, stop)
                    for mode, start, stop
                    in switch_regions(flat.program, index))
                op = op + (regions,)
            program.append(op)
        return tuple(program)

    # -- single-run entry point --------------------------------------------

    def run_one(self, stimuli: Optional[Mapping[str, StimulusSpec]],
                ticks: int, check_types: bool = False) -> SimulationTrace:
        """Run one scenario as a one-lane battery.

        Raises the original exception on failure -- the same exception, with
        the same message, that the scalar engines raise for this scenario.
        """
        outcome = self.run_battery((("scenario", stimuli, ticks),),
                                   check_types=check_types)[0]
        if outcome.exception is not None:
            raise outcome.exception
        return outcome.trace

    # -- the battery sweep -------------------------------------------------

    def run_battery(self, items: Sequence[BatteryItem],
                    check_types: bool = False,
                    collect_modes: bool = False) -> List[LaneOutcome]:
        """Execute a whole battery as one op-program sweep.

        Returns one :class:`LaneOutcome` per item, in battery order.  Every
        trace, error message, failure tick and mode history is identical to
        running the items one by one through the scalar engines.

        With observability enabled (:mod:`repro.obs`) the sweep is wrapped
        in a ``batch.sweep`` span, sweep-level counters (lanes, vectorized
        ticks, scalar-fallback activity, duration) land in the active
        registry, and -- under ``profile_ops`` -- the op program runs
        through a profiled variant feeding an op-level
        :class:`~repro.obs.profile.OpProfile`.  Disabled, the sweep binds
        the plain kernel table once and pays nothing per tick.
        """
        telemetry = _obs_active()
        if telemetry is None:
            return self._run_battery(items, check_types, collect_modes, None)
        with telemetry.tracer.span("batch.sweep",
                                   component=self.component.name,
                                   lanes=len(items)):
            return self._run_battery(items, check_types, collect_modes,
                                     telemetry)

    def _run_battery(self, items: Sequence[BatteryItem], check_types: bool,
                     collect_modes: bool,
                     telemetry: Optional[Any]) -> List[LaneOutcome]:
        flat = self.flat
        component = self.component
        lanes = len(items)
        if lanes == 0:
            return []

        errors: List[Optional[str]] = [None] * lanes
        exceptions: List[Optional[BaseException]] = [None] * lanes
        #: prefill failures deferred to their tick (a step error on an
        #: earlier tick must win, exactly as in the scalar draw/step order)
        pending: List[Optional[Tuple[str, BaseException]]] = [None] * lanes
        requested = [0] * lanes
        horizons = np.zeros(lanes, dtype=np.int64)
        feeds_by_lane: List[Optional[Tuple[Any, ...]]] = [None] * lanes

        for index, (_name, stimuli, ticks) in enumerate(items):
            try:
                feeds_by_lane[index] = prepare_feeds(component, stimuli, ticks)
            except Exception as exc:  # noqa: BLE001 - per-lane isolation
                errors[index], exceptions[index] = _capture(exc)
            else:
                requested[index] = ticks
                horizons[index] = ticks

        input_names = component.input_names()
        input_spec = flat.input_spec
        output_spec = flat.output_spec
        n_scratch = flat._scratch_count  # noqa: SLF001 - same-package IR
        horizon = int(horizons.max())

        in_rows = {name: _absent_plane(horizon, lanes) for name in input_names}
        out_rows = {name: _absent_plane(horizon, lanes)
                    for name, _slot in output_spec}

        # prefill the input planes lane by lane, tick-major and port-inner:
        # the exact draw (and type-check) sequence of run_stepped, so shared
        # generator instances see the serial draw order and the first
        # failing (tick, port) matches.  The failure is *pending* until the
        # sweep reaches its tick: the lane still runs the ticks before it.
        for index in range(lanes):
            feeds = feeds_by_lane[index]
            if feeds is None:
                continue
            tick = 0
            try:
                for tick in range(requested[index]):
                    for name, generator in feeds:
                        value = generator(tick) if generator is not None \
                            else ABSENT
                        if check_types and not is_absent(value):
                            check_value(
                                value, component.port(name).port_type,
                                context=f"{component.name}.{name}@t{tick}")
                        in_rows[name][tick, index] = value
            except Exception as exc:  # noqa: BLE001 - per-lane isolation
                pending[index] = _capture(exc)
                horizons[index] = tick

        leaves = flat.leaves
        n_leaves = len(leaves)
        n_buffers = len(flat.buffer_specs)
        states: List[List[Any]] = [
            [leaf.initial_state() for _ in range(lanes)] for leaf in leaves]
        buffers = np.empty((n_buffers, lanes), dtype=object)
        for buffer_index, spec in enumerate(flat.buffer_specs):
            row = buffers[buffer_index]
            for lane in range(lanes):
                row[lane] = spec[0]

        values = np.empty((flat.n_slots, lanes), dtype=object)
        live = np.array([error is None for error in errors], dtype=bool)
        histories: Optional[List[Dict[str, List[Any]]]] = \
            [{} for _ in range(lanes)] if collect_modes else None
        # an MTD root's mode after every tick: its traces' mode_history
        root_machine = flat.machines[0] if flat.root_mode is not None \
            else None
        root_modes = np.zeros((horizon, lanes), dtype=np.int64) \
            if root_machine is not None else None

        # telemetry: bound ONCE per sweep -- the disabled path binds the
        # plain kernel table and never consults the context again
        profile = telemetry.profile_for(self) if telemetry is not None \
            else None
        registry = telemetry.registry if telemetry is not None else None
        if profile is None:
            kernels, run = self._kernels, run_kernels
        else:
            kernels = profiled_kernels(self._program, LANE_KERNELS, profile,
                                       time.perf_counter)
            run = profiled_ticks(run_kernels, profile, time.perf_counter)
        vector_ticks = 0
        scalar_fallback_ticks = 0
        scalar_fallback_events = 0
        sweep_started = time.perf_counter() if registry is not None else 0.0

        for tick in range(horizon):
            active = live & (tick < horizons)
            if not active.any():
                continue
            indices = np.nonzero(active)[0].tolist()
            values.fill(ABSENT)
            for name, slot in input_spec:
                values[slot] = in_rows[name][tick]
            next_states = [row[:] for row in states]
            next_buffers = buffers.copy()
            frame = LaneFrame(None, tick, states, next_states, buffers,
                              next_buffers, [None] * n_scratch)
            frame.active, frame.indices = active, indices
            frame.kernels = kernels
            try:
                run(kernels, values, frame)
            except Exception:  # noqa: BLE001 - some lane needs the scalar path
                scalar_fallback_events += 1
                scalar_fallback_ticks += len(indices)
                if profile is not None:
                    profile.scalar_fallback_ticks += len(indices)
                self._scalar_tick(tick, indices, frame, in_rows, out_rows,
                                  input_names, output_spec, live, errors,
                                  exceptions)
            else:
                vector_ticks += 1
                for name, slot in output_spec:
                    out_rows[name][tick] = values[slot]
            if root_modes is not None:
                root_modes[tick] = next_buffers[root_machine.buffer]
            if histories is not None:
                for index in indices:
                    if not live[index]:
                        continue
                    lane_state = FlatState(
                        [next_states[leaf][index]
                         for leaf in range(n_leaves)],
                        next_buffers[:, index])
                    for path, mode in flat.mode_paths(lane_state).items():
                        histories[index].setdefault(path, []).append(mode)
            if check_types:
                for index in indices:
                    if not live[index]:
                        continue
                    try:
                        for name, _slot in output_spec:
                            value = out_rows[name][tick, index]
                            if component.has_port(name) \
                                    and not is_absent(value):
                                check_value(
                                    value, component.port(name).port_type,
                                    context=f"{component.name}.{name}@t{tick}")
                    except Exception as exc:  # noqa: BLE001
                        errors[index], exceptions[index] = _capture(exc)
                        live[index] = False
            states = next_states
            buffers = next_buffers

        if registry is not None:
            registry.counter("batch.sweeps").inc()
            registry.counter("batch.lanes").inc(lanes)
            registry.counter("batch.vector_ticks").inc(vector_ticks)
            if scalar_fallback_events:
                registry.counter("batch.scalar_fallback_events").inc(
                    scalar_fallback_events)
                registry.counter("batch.scalar_fallback_ticks").inc(
                    scalar_fallback_ticks)
            registry.histogram("batch.sweep.duration_s").observe(
                time.perf_counter() - sweep_started)

        outcomes: List[LaneOutcome] = []
        for index, (name, _stimuli, _ticks) in enumerate(items):
            if errors[index] is None and pending[index] is not None:
                errors[index], exceptions[index] = pending[index]
            if errors[index] is not None:
                outcomes.append(LaneOutcome(name, error=errors[index],
                                            exception=exceptions[index]))
                continue
            ticks = requested[index]
            modes = ([root_machine.names[mode]
                      for mode in root_modes[:ticks, index].tolist()]
                     if root_modes is not None else ())
            trace = SimulationTrace.from_columns(
                component.name, ticks,
                {port_name: in_rows[port_name][:ticks, index].tolist()
                 for port_name in input_names},
                {port_name: out_rows[port_name][:ticks, index].tolist()
                 for port_name, _slot in output_spec}, modes)
            outcomes.append(LaneOutcome(
                name, trace=trace,
                mode_paths=histories[index] if histories is not None
                else None))
        return outcomes

    # -- the scalar fallback tick -------------------------------------------

    def _scalar_tick(self, tick: int, indices: List[int], frame: LaneFrame,
                     in_rows: Dict[str, np.ndarray],
                     out_rows: Dict[str, np.ndarray],
                     input_names: Sequence[str],
                     output_spec: Tuple[Tuple[str, int], ...], live: np.ndarray,
                     errors: List[Optional[str]],
                     exceptions: List[Optional[BaseException]]) -> None:
        """Re-run one tick per active lane through the scalar flat step.

        Runs from the tick-start state (the frame's ``prev_*`` planes are
        never touched by the aborted vectorized attempt), so each lane
        reproduces exactly what the scalar engine computes: identical
        outputs and next states for healthy lanes, the identical exception
        -- type, message, tick -- for failing ones, which leave the sweep
        without disturbing their neighbours.
        """
        step = self.flat.step
        states, buffers = frame.prev_states, frame.prev_buffers
        next_states, next_buffers = frame.next_states, frame.next_buffers
        n_leaves, n_buffers = len(states), len(buffers)
        for lane in indices:
            inputs = {name: in_rows[name][tick, lane] for name in input_names}
            lane_state = FlatState(
                [states[leaf][lane] for leaf in range(n_leaves)],
                [buffers[buffer_index, lane]
                 for buffer_index in range(n_buffers)])
            try:
                outputs, new_state = step(inputs, lane_state, tick)
            except Exception as exc:  # noqa: BLE001 - per-lane isolation
                errors[lane], exceptions[lane] = _capture(exc)
                live[lane] = False
                continue
            for leaf in range(n_leaves):
                next_states[leaf][lane] = new_state.leaf_states[leaf]
            for buffer_index in range(n_buffers):
                next_buffers[buffer_index, lane] = \
                    new_state.buffers[buffer_index]
            for name, _slot in output_spec:
                out_rows[name][tick, lane] = outputs[name]

    def __repr__(self) -> str:
        return (f"BatchSchedule({self.component.name!r}, "
                f"ops={len(self._program)}, slots={self.flat.n_slots})")


def compile_batch(component: Any) -> BatchSchedule:
    """Compile *component* into a :class:`BatchSchedule` (via the flat IR).

    Raises :class:`~repro.core.errors.SimulationError` for unflattenable
    roots, exactly like :func:`~repro.simulation.schedule_ir.compile_flat`.
    """
    from .schedule_ir import compile_flat
    return BatchSchedule(compile_flat(component))
