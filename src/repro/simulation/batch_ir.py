"""The batch IR backend: one vectorized sweep per scenario battery.

The flat schedule (:mod:`repro.simulation.schedule_ir`) runs one scenario
per call: a linear op program over a flat slot environment, one Python
value per slot.  Scenario batteries run that program S times per tick --
yet the program, the slots and the tick structure are identical across
scenarios; only the values differ.  This module widens each slot to one
value per **lane** (scenario) on a tagged numeric plane
(:mod:`repro.simulation.lanes`): a tag row plus a float64 payload row per
slot, delayed buffer and input or output column, with ints held exactly
while ``|v| < 2**53`` and every other value an opaque lane backed by the
sweep's object side table.  The whole battery advances through each tick
with ONE pass over the op program.

Kernels (index-aligned with the flat program, so gate jump targets carry
over; :func:`~repro.simulation.schedule_ir.run_kernels` drives them):

* ``copy`` / ``buf_read`` / ``buf_write`` / ``gate`` / ``jump`` -- the
  scalar kernels unchanged: a slot is one ``(2, lanes)`` block of the
  plane, so a slot copy moves both rows at once, and a clock depends on
  the tick only, so a silent one skips every lane;
* ``expr`` / ``mode`` -- exactly the ops the native backend lowers to C
  (:func:`~repro.simulation.native.emit.expr_op_lowers`,
  :func:`~repro.simulation.native.emit.mode_op_lowers`) run as NumPy
  kernels mirroring its tagged templates; a machine's guards are
  evaluated per current mode in priority order, each on exactly the lanes
  still waiting for a guard to fire.  The lanes a kernel flags -- where
  the templates cannot compute Python's exact value, as native bails to
  its trampoline -- re-run the whole op through the flat schedule's
  scalar kernel, one lane at a time, and so does every active lane of an
  op that does not lower;
* ``switch`` -- runs each behaviour region once per tick under the mask
  of the lanes in that mode, then restores the region's slot and buffer
  rows on the active lanes in other modes (the regions' closing ``jump``
  ops never run);
* ``run`` / ``correct`` -- leaf steps (STDs, atomic blocks, custom
  ``react`` components, subtrees a correction barrier re-runs) and
  correction barriers run their scalar kernels per active lane.

Ops batch does not vectorize run per lane in **spans**: each maximal
stretch of them -- leaf steps, ops that do not lower, and the copies,
gates and whole switches between them -- is one kernel that runs the
flat scalar kernels of the stretch on each lane in one pass.  A lane runs
over plain lists of its Python values: the slots and buffers the span
reads are decoded for all lanes at once, and the ones it writes that
later ops or the outputs read are encoded back at once; leaf states and
scratch entries are reached through views of the lane.  (The op-profiled
sweep keeps one kernel per op, so each op's time stays its own.)  A
program with no vectorized op at all has nothing to sweep: its lanes run
one by one through the flat schedule's whole-horizon loop
(:meth:`~repro.simulation.schedule_ir.FlatSchedule.run_horizon`) unless
the battery is type-checked or op-profiled.

**Active masks.**  Scenarios of unequal length share one sweep: a lane is
active while ``tick < its horizon``; finished and failed lanes simply drop
out of the mask.  Lane state (leaf states, delayed buffers, slot rows) is
strictly per-lane -- nothing is ever read across the scenario axis.

**Error parity without batch poisoning.**  Only a scalar kernel run for a
lane can raise.  On any raise the sweep discards the half-done vectorized
tick and re-runs that one tick per active lane through ``FlatSchedule.step``
from the tick-start state.  Lanes that raise there record the *exact*
scalar exception (same type, message and tick) and leave the battery;
surviving lanes continue vectorized at the next tick.  Stimuli are
validated by :func:`repro.simulation.engine.prepare_feeds` and drawn by
:func:`repro.simulation.engine.draw_stimuli` -- the helpers the flat and
native backends use -- so rejection messages and draw order are identical
by construction, and a failing draw (or, with type checks, a rejected
input) is held until the lane's earlier ticks have run.
"""

from __future__ import annotations

import time
import traceback
from itertools import chain
from typing import (Any, Callable, Collection, Dict, List, Mapping,
                    Optional, Sequence, Tuple)

import numpy as np

from ..core.types import check_value
from ..core.values import ABSENT, is_absent
from ..obs.context import active as _obs_active
from ..obs.context import maybe_span
from .engine import StimulusSpec, draw_stimuli, prepare_feeds
from .lanes import (TAG_ABSENT, TAG_INT, TAG_OBJ, LaneView, ObjectTable,
                    compile_lanes, decode_rows, encode_value, encode_values,
                    guard_outcome)
from .native.emit import expr_op_lowers, mode_op_lowers
from .schedule_ir import (OP_BUF_READ, OP_BUF_WRITE, OP_COPY, OP_CORRECT,
                          OP_EXPR, OP_GATE, OP_JUMP, OP_MODE, OP_RUN,
                          OP_SWITCH,
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
    """Format a lane failure exactly like ``execute_scenario`` formats the
    exception it catches (the last line of its traceback)."""
    detail = "".join(traceback.format_exception_only(type(exc), exc))
    error = f"{type(exc).__name__}: {exc}" if str(exc) \
        else detail.strip().splitlines()[-1]
    return error, exc


#: Lanes whose stimuli are encoded per call: bounds the temporaries of a
#: wide battery.
_ENCODE_LANES = 64

#: One tick of compact rows: uint8 tags and float64 payloads, ``(port,
#: lane)`` each.
TickRows = Tuple[np.ndarray, np.ndarray]


def _absent_rows(ports: int, lanes: int) -> TickRows:
    return (np.full((ports, lanes), TAG_ABSENT, dtype=np.uint8),
            np.zeros((ports, lanes)))


def _input_rows(columns: Sequence[Optional[List[List[Any]]]],
                horizons: np.ndarray, horizon: int, ports: List[int],
                objects: ObjectTable) -> List[TickRows]:
    """Per tick, the rows of the input ports *ports* (indexes into each
    lane's drawn *columns*), absent beyond each lane's horizon.  The
    columns are encoded in bulk, a chunk of lanes of one horizon per
    call."""
    lanes = len(columns)
    rows = [_absent_rows(len(ports), lanes) for _ in range(horizon)]
    groups: Dict[int, List[int]] = {}
    for index in range(lanes):
        if columns[index] is not None and horizons[index]:
            groups.setdefault(int(horizons[index]), []).append(index)
    for lane_horizon, group in groups.items():
        for start in range(0, len(group), _ENCODE_LANES):
            chunk = group[start:start + _ENCODE_LANES]
            n_in = len(columns[chunk[0]])
            encoded = encode_values(list(chain.from_iterable(
                chain.from_iterable(columns[index]) for index in chunk)),
                objects)
            for part, flat in enumerate(encoded):
                block = flat.reshape(len(chunk), n_in, lane_horizon)[:, ports]
                for tick in range(lane_horizon):
                    rows[tick][part][:, chunk] = block[:, :, tick].T
    return rows


def _column(rows: List[TickRows], port: int, lanes: int) -> TickRows:
    """The ``(tick, lane)`` tags and payloads of *port* over *rows*."""
    if not rows:
        return np.empty((0, lanes)), np.empty((0, lanes))
    return (np.stack([tags[port] for tags, _payloads in rows]),
            np.stack([payloads[port] for _tags, payloads in rows]))


class _LaneRows:
    """One lane of per-lane Python rows (``rows[i][lane]``): the leaf
    states and scratch entries a scalar kernel sees for that lane."""

    __slots__ = ("rows", "lane")

    def __init__(self, rows: Sequence[List[Any]], lane: int):
        self.rows = rows
        self.lane = lane

    def __getitem__(self, index: int) -> Any:
        return self.rows[index][self.lane]

    def __setitem__(self, index: int, value: Any) -> None:
        self.rows[index][self.lane] = value


class LaneFrame(Frame):
    """A :class:`~repro.simulation.schedule_ir.Frame` over the tagged
    plane (``[leaf][lane]`` states, ``(buffer, 2, lane)`` buffer planes,
    ``[entry][lane]`` scratch) plus the mask of the lanes the running ops
    compute, the kernel table being run (a switch runs its regions'
    kernels from it), the sweep's object side table and the tick's tally
    of per-lane op fallbacks."""

    __slots__ = ("active", "kernels", "objects", "fallbacks", "_lanes")

    def lane(self, lane: int) -> Frame:
        """The frame a scalar kernel runs *lane* with: views of the lane's
        states and scratch -- the sweep keeps those containers for all its
        ticks, so a lane's frame is built once per sweep.  Its buffers are
        the caller's to set: lists of the lane's decoded buffer values."""
        frame = self._lanes.get(lane)
        if frame is None:
            frame = self._lanes[lane] = Frame(
                None, self.tick, _LaneRows(self.prev_states, lane),
                _LaneRows(self.next_states, lane), None, None,
                _LaneRows(self.scratch, lane))
        frame.tick = self.tick
        return frame


def _reads(op: Tuple[Any, ...]) -> Tuple[List[int], List[int], List[int]]:
    """The slots, tick-start buffers and next buffers the op *op* may
    read."""
    code = op[0]
    if code == OP_RUN:
        return ([slot for _name, slot in op[3]]
                + [src for src, _dst in op[5]], [], [])
    if code == OP_EXPR:
        return ([slot for _name, slot in op[2]]
                + [src for src, _dst in op[4]], [], [])
    if code == OP_MODE:
        return [slot for _name, slot in op[2]], [op[4]], []
    if code == OP_CORRECT:
        return [slot for entry in op[1] for _name, slot in entry[3]], [], []
    if code in (OP_COPY, OP_BUF_WRITE):
        return [src for src, _dst in op[1]], [], []
    if code == OP_BUF_READ:
        return [], [index for index, _dst in op[1]], []
    if code == OP_SWITCH:
        return [], [], [op[1]]
    return [], [], []


def _decoded(plane: np.ndarray, rows: List[int], indices: np.ndarray,
             objects: ObjectTable) -> List[List[Any]]:
    """Per lane of *indices*, the Python values of the *rows* of
    *plane*."""
    return decode_rows(plane[rows, 0][:, indices], plane[rows, 1][:, indices],
                       objects).T.tolist()


def _encode(plane: np.ndarray, rows: List[int], indices: np.ndarray,
            lists: List[List[Any]], objects: ObjectTable) -> None:
    """Store the *rows* of the lanes' lists *lists* into the lanes
    *indices* of *plane*, in one bulk encode."""
    if not rows:
        return
    tags, payloads = encode_values(
        [lane_values[row] for row in rows for lane_values in lists], objects)
    block = np.array(rows)[:, None], indices[None, :]
    plane[block[0], 0, block[1]] = tags.reshape(len(rows), len(indices))
    plane[block[0], 1, block[1]] = payloads.reshape(len(rows), len(indices))


class _PerLane:
    """A span of flat ops run through their scalar kernels lane by lane:
    one op whose flagged lanes fall back, or a whole stretch of ops batch
    does not vectorize (see :func:`_scalar_spans`), whose writes go back
    to the plane only when the slots in *live* -- the ones other ops or
    the outputs read -- hold them.

    Each lane runs the span over plain lists of Python values -- its
    slots, tick-start buffers and next buffers.  The rows the span may
    read or write are decoded into them for all the lanes at once, and
    the ones it may write are encoded back from them at once (a row a
    lane's path leaves unwritten goes back unchanged), so per lane only
    the scalar kernels run, jumps included.  Leaf states and scratch
    entries are reached through the lane's frame (:meth:`LaneFrame.lane`).
    Every ``expr`` or ``mode`` op a lane runs counts as one lane
    fallback."""

    __slots__ = ("kernels", "start", "stop", "slots", "prev", "next",
                 "writes", "buffer_writes", "tallied", "straight")

    def __init__(self, ops: Sequence[Tuple[Any, ...]], start: int = 0,
                 live: Optional[Collection[int]] = None):
        #: the ops' scalar kernels; ``kernels[pc - start]`` runs op *pc*
        self.kernels = [SCALAR_KERNELS[op[0]](op) for op in ops]
        self.start, self.stop = start, start + len(ops)
        self.writes, self.buffer_writes = _region_writes(ops, 0, len(ops))
        if live is not None:  # only the slots read after the span
            self.writes = [slot for slot in self.writes if slot in live]
        reads = [_reads(op) for op in ops]
        self.slots = sorted({slot for slots, _prev, _next in reads
                             for slot in slots} | set(self.writes))
        self.prev = sorted({index for _slots, prev, _next in reads
                            for index in prev})
        self.next = sorted({index for _slots, _prev, following in reads
                            for index in following}
                           | set(self.buffer_writes))
        self.tallied = frozenset(start + offset for offset, op
                                 in enumerate(ops)
                                 if op[0] in (OP_EXPR, OP_MODE))
        #: no op of the span can jump: every lane runs all of them
        self.straight = not any(op[0] in (OP_GATE, OP_SWITCH, OP_JUMP)
                                for op in ops)

    def __call__(self, values: np.ndarray, frame: LaneFrame,
                 lanes: np.ndarray) -> None:
        """Run the lanes of the mask *lanes*."""
        indices = np.flatnonzero(lanes)
        objects = frame.objects
        kernels, tallied = self.kernels, self.tallied
        start, stop = self.start, self.stop
        slots, prev, following = self.slots, self.prev, self.next
        blank = [ABSENT] * len(values)
        blank_buffers = [None] * len(frame.next_buffers) \
            if prev or following else None
        lists = []
        buffer_lists = []
        straight = self.straight
        if straight:  # counted first: a lane may raise
            frame.fallbacks += len(indices) * len(tallied)
        for lane, row, prev_row, next_row in zip(
                indices.tolist(),
                _decoded(values, slots, indices, objects),
                _decoded(frame.prev_buffers, prev, indices, objects),
                _decoded(frame.next_buffers, following, indices, objects)):
            lane_values = blank[:]
            for slot, value in zip(slots, row):
                lane_values[slot] = value
            lane_frame = frame.lane(lane)
            if blank_buffers is not None:
                lane_frame.prev_buffers = lane_prev = blank_buffers[:]
                for index, value in zip(prev, prev_row):
                    lane_prev[index] = value
                lane_frame.next_buffers = lane_next = blank_buffers[:]
                for index, value in zip(following, next_row):
                    lane_next[index] = value
                buffer_lists.append(lane_next)
            if straight:
                for kernel in kernels:
                    kernel(lane_values, lane_frame)
            else:
                pc = start
                while pc < stop:
                    if pc in tallied:
                        frame.fallbacks += 1
                    jump = kernels[pc - start](lane_values, lane_frame)
                    pc = pc + 1 if jump is None else jump
            lists.append(lane_values)
        _encode(values, self.writes, indices, lists, objects)
        _encode(frame.next_buffers, self.buffer_writes, indices, buffer_lists,
                objects)


# -- lane kernels ----------------------------------------------------------------


def _per_lane_kernel(op: Tuple[Any, ...]) -> Kernel:
    """``run`` / ``correct``: the scalar kernel on every active lane."""
    per_lane = _PerLane((op,))

    def run_lanes(values: np.ndarray, frame: LaneFrame) -> None:
        per_lane(values, frame, frame.active)

    return run_lanes


def _span_kernel(per_lane: _PerLane) -> Kernel:
    """A span of ops run per lane in one pass, then a jump past it."""
    stop = per_lane.stop

    def span(values: np.ndarray, frame: LaneFrame) -> int:
        per_lane(values, frame, frame.active)
        return stop

    return span


def _fallback(per_lane: _PerLane, values: np.ndarray, frame: LaneFrame,
              lanes: Any) -> None:
    """Re-run an op through its scalar kernel on the lanes of the mask
    *lanes* (None: no lane)."""
    if lanes is not None and lanes.any():
        per_lane(values, frame, lanes)


def _lane_expr_kernel(op: Tuple[Any, ...]) -> Kernel:
    _, _leaf, in_spec, _items, post, lane_items = op
    scalar = _PerLane((op[:5],))
    if lane_items is None:
        def expr_per_lane(values: np.ndarray, frame: LaneFrame) -> None:
            _fallback(scalar, values, frame, frame.active)
        return expr_per_lane

    def expr(values: np.ndarray, frame: LaneFrame) -> None:
        active = frame.active
        env = {name: values[slot] for name, slot in in_spec}
        results = [(slot, fn(env, active)) for slot, fn in lane_items]
        bail = None
        for slot, (tags, payloads, flagged) in results:
            if slot >= 0:
                values[slot, 0] = tags
                values[slot, 1] = payloads
            if flagged is not None:
                bail = flagged if bail is None else bail | flagged
        for src, dst in post:
            values[dst] = values[src]
        _fallback(scalar, values, frame, bail)

    return expr


def _lane_mode_kernel(op: Tuple[Any, ...]) -> Kernel:
    _, _machine, in_spec, _table, buf, mode_slot, _names, lane_table, base \
        = op
    scalar = _PerLane((op[:7],))
    if lane_table is None:
        def mode_per_lane(values: np.ndarray, frame: LaneFrame) -> None:
            _fallback(scalar, values, frame, frame.active)
        return mode_per_lane

    def mode(values: np.ndarray, frame: LaneFrame) -> None:
        current = frame.prev_buffers[buf, 1]
        following = current.copy()
        env = {name: values[slot] for name, slot in in_spec}
        bail = None
        for index, guards in enumerate(lane_table):
            pending = frame.active & (current == index)
            # priority order: a lane leaves *pending* when a guard fires
            # (or bails), so later guards are evaluated on exactly the
            # scalar lanes
            for guard, target in guards:
                if not pending.any():
                    break
                tags, payloads, _flagged = guard(env, pending)
                fires, bails = guard_outcome(tags, payloads)
                fired = pending & fires
                flagged = pending & bails
                following[fired] = target
                pending &= ~(fires | bails)
                bail = flagged if bail is None else bail | flagged
        buffers = frame.next_buffers
        buffers[buf, 0] = TAG_INT
        buffers[buf, 1] = following
        if mode_slot >= 0:
            values[mode_slot, 0] = TAG_OBJ
            values[mode_slot, 1] = following + base
        _fallback(scalar, values, frame, bail)

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
        buffers = frame.next_buffers
        modes = buffers[buf, 1]
        active = frame.active
        for mode, start, stop, slots, buffer_indexes in regions:
            lanes = active & (modes == mode)
            if not lanes.any():
                continue
            # the region runs once for every lane in its mode; its writes
            # are then undone on the lanes in other modes (rows are
            # written whole, and a mode's buffers must carry over there)
            others = active & ~lanes
            rows = [values[slot] for slot in slots] \
                + [buffers[index] for index in buffer_indexes] \
                if others.any() else []
            saved = [row.copy() for row in rows]
            frame.active = lanes
            run_kernels(frame.kernels, values, frame, start, stop)
            for row, before in zip(rows, saved):
                np.copyto(row, before, where=others)
        frame.active = active
        return end

    return switch


#: Ops that move whole slot blocks (for every lane at once): a span of
#: per-lane ops does not start or end with them.
_MOVES = (OP_COPY, OP_BUF_READ, OP_BUF_WRITE)
#: Ops with work to run per lane.
_PER_LANE_WORK = (OP_RUN, OP_CORRECT, OP_EXPR, OP_MODE)


def _scalar_spans(program: Sequence[Tuple[Any, ...]],
                  vectorized: Collection[int]) -> List[Tuple[int, int]]:
    """The ``(start, stop)`` spans of *program* batch runs per lane in one
    pass: at every nesting level, each maximal run of whole items -- an
    op, or a gate or switch with all its regions -- that holds no op of
    *vectorized* but some per-lane work, trimmed of leading and trailing
    slot moves.  A span holds every jump its ops can take, and no jump
    from outside lands inside it.  A gate or switch whose regions hold a
    vectorized op stays a lane kernel; its regions are levels of their
    own."""
    # vectorized ops before each index: an item [pc, end) holds one iff
    # the counts differ
    before = [0]
    for index in range(len(program)):
        before.append(before[-1] + (index in vectorized))
    spans: List[Tuple[int, int]] = []
    levels = [(0, len(program))]
    while levels:
        pc, stop = levels.pop()
        items: List[int] = []  # the current run: item boundaries
        while True:
            end = stop
            if pc < stop:
                op = program[pc]
                end = op[2] if op[0] == OP_GATE else \
                    op[3] if op[0] == OP_SWITCH else pc + 1
                if before[end] == before[pc]:
                    items.append(pc)
                    pc = end
                    continue
            # the run ends here: trim its moves, keep it if it has work
            while items and program[items[0]][0] in _MOVES:
                items.pop(0)
            last = pc
            while items and program[items[-1]][0] in _MOVES:
                last = items.pop()
            if items and any(op[0] in _PER_LANE_WORK
                             for op in program[items[0]:last]):
                spans.append((items[0], last))
            items = []
            if pc >= stop:
                break
            if op[0] == OP_GATE:
                levels.append((pc + 1, end))
            elif op[0] == OP_SWITCH:
                levels.extend((first, region_stop) for _mode, first,
                              region_stop in switch_regions(program, pc))
            pc = end
    return sorted(spans)


#: Opcode -> kernel factory for the tagged plane: copy / buffer / gate /
#: jump kernels move whole slot blocks (or jump for every lane), so the
#: scalar ones serve unchanged.
LANE_KERNELS = {**SCALAR_KERNELS, OP_RUN: _per_lane_kernel,
                OP_CORRECT: _per_lane_kernel, OP_EXPR: _lane_expr_kernel,
                OP_MODE: _lane_mode_kernel, OP_SWITCH: _lane_switch_kernel}


class BatchSchedule:
    """A :class:`~repro.simulation.schedule_ir.FlatSchedule` widened to
    execute whole scenario batteries as single vectorized sweeps."""

    kind = "batch"

    def __init__(self, flat: FlatSchedule):
        self.flat = flat
        self.component = flat.component
        #: the mode names a lowered ``mode`` op writes, by side-table index
        self.constants: List[Any] = []
        #: the ``expr`` / ``mode`` op indexes that run as tagged lanes --
        #: the ones the native backend lowers to C
        self.vectorized_ops: List[int] = []
        with maybe_span("compile.batch_lower",
                        component=flat.component.name,
                        ops=len(flat.program)):
            self._program = self._lower(flat)
            # the plain table runs each scalar span in one per-lane pass;
            # the op-profiled one keeps one kernel per op
            self._kernels = [LANE_KERNELS[op[0]](op) for op in self._program]
            #: ``(start, stop)`` of each span of ops run per lane in one pass
            self.scalar_spans = _scalar_spans(flat.program,
                                              set(self.vectorized_ops))
            readers: Dict[int, List[int]] = {}
            for index, op in enumerate(flat.program
                                       if self.scalar_spans else ()):
                for slot in _reads(op)[0]:
                    readers.setdefault(slot, []).append(index)
            outputs = {slot for _name, slot in flat.output_spec}
            for start, stop in self.scalar_spans:
                live = outputs | {slot for slot, ops in readers.items()
                                  if any(not start <= index < stop
                                         for index in ops)}
                self._kernels[start] = _span_kernel(
                    _PerLane(flat.program[start:stop], start, live))

    def op_labels(self) -> List[Tuple[str, str, bool]]:
        """Op descriptors for :class:`repro.obs.profile.OpProfile` -- the
        batch program is index-identical to the flat one."""
        return self.flat.op_labels()

    # -- lowering ----------------------------------------------------------

    def _lower(self, flat: FlatSchedule) -> Tuple[Tuple[Any, ...], ...]:
        """Attach lane kernels to the ``expr`` and ``mode`` ops native
        lowers (None to the others) and give each switch its regions'
        write sets.

        The op list stays index-identical to ``flat.program``, so jump
        targets need no relocation, and each op keeps its scalar closures
        for the lanes that fall back.  Lane kernels are compiled from the
        expression blocks' and guards' ASTs -- the flat program stores
        compiled scalar closures, which carry no AST to translate.
        """
        program: List[Tuple[Any, ...]] = []
        for index, op in enumerate(flat.program):
            code = op[0]
            if code == OP_EXPR:
                leaf = flat.leaves[op[1]]
                lane_items = None
                if expr_op_lowers(op, leaf):
                    self.vectorized_ops.append(index)
                    block = leaf.component
                    names = [name for name, _slot in op[2]]
                    lane_items = tuple(
                        (slot, compile_lanes(
                            expression, names,
                            block._evaluator.functions))  # noqa: SLF001
                        for (slot, _scalar), expression
                        in zip(op[3], block.output_expressions.values()))
                op = op + (lane_items,)
            elif code == OP_MODE:
                machine = flat.machines[op[1]]
                lane_table = None
                if mode_op_lowers(op, machine):
                    self.vectorized_ops.append(index)
                    mtd = machine.component
                    names = [name for name, _slot in op[2]]
                    lane_table = tuple(
                        tuple((compile_lanes(
                            transition.guard, names,
                            mtd._evaluator.functions),  # noqa: SLF001
                            target)
                            for transition, (_scalar, target)
                            in zip(mtd.transitions_from(name), guards))
                        for name, guards in zip(op[6], op[3]))
                op = op + (lane_table, float(len(self.constants)))
                self.constants.extend(op[6])
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
        ticks, per-lane op fallbacks, scalar-fallback activity, duration)
        land in the active registry, and -- under ``profile_ops`` -- the op
        program runs through a profiled variant feeding an op-level
        :class:`~repro.obs.profile.OpProfile`.  Disabled, the sweep binds
        the plain kernel table once and pays nothing per tick.
        """
        telemetry = _obs_active()
        run = self._run_battery
        if not self.vectorized_ops and not check_types and (
                telemetry is None or not telemetry.profile_ops):
            run = self._run_lane_major
        if telemetry is None:
            return run(items, check_types, collect_modes, None)
        with telemetry.tracer.span("batch.sweep",
                                   component=self.component.name,
                                   lanes=len(items)):
            return run(items, check_types, collect_modes, telemetry)

    def _run_lane_major(self, items: Sequence[BatteryItem],
                        check_types: bool, collect_modes: bool,
                        telemetry: Optional[Any]) -> List[LaneOutcome]:
        """Run each item over its whole horizon through
        :meth:`FlatSchedule.run_horizon
        <repro.simulation.schedule_ir.FlatSchedule.run_horizon>`: with no
        vectorized op every op would run per lane, and a tick-major sweep
        would only add the plane's decode and encode to the flat loop.
        Traces, errors and mode histories are the sweep's (both equal the
        scalar engines'); type-checked and op-profiled batteries sweep."""
        started = time.perf_counter()
        outcomes: List[LaneOutcome] = []
        for name, stimuli, ticks in items:
            histories: Optional[Dict[str, List[Any]]] = \
                {} if collect_modes else None
            try:
                trace = self.flat.run_horizon(stimuli, ticks, histories)
            except Exception as exc:  # noqa: BLE001 - per-lane isolation
                error, exception = _capture(exc)
                outcomes.append(LaneOutcome(name, error=error,
                                            exception=exception))
            else:
                outcomes.append(LaneOutcome(name, trace=trace,
                                            mode_paths=histories))
        if telemetry is not None:
            registry = telemetry.registry
            registry.counter("batch.sweeps").inc()
            registry.counter("batch.lanes").inc(len(items))
            registry.counter("batch.lane_major").inc(len(items))
            registry.histogram("batch.sweep.duration_s").observe(
                time.perf_counter() - started)
        return outcomes

    def _input_check(self) -> Callable[[int, int, Any], None]:
        """The ``check`` of :func:`draw_stimuli` for type-checked runs:
        the input type checks of :func:`run_stepped`."""
        component = self.component
        ports = [(name, component.port(name).port_type)
                 for name in component.input_names()]

        def check(index: int, tick: int, value: Any) -> None:
            if not is_absent(value):
                name, port_type = ports[index]
                check_value(value, port_type,
                            context=f"{component.name}.{name}@t{tick}")

        return check

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
        #: draw failures held until their tick (a step error on an earlier
        #: tick must win, exactly as in the scalar draw/step order)
        pending: List[Optional[Tuple[str, BaseException]]] = [None] * lanes
        requested = [0] * lanes
        horizons = np.zeros(lanes, dtype=np.int64)
        columns: List[Optional[List[List[Any]]]] = [None] * lanes
        check = self._input_check() if check_types else None
        for index, (_name, stimuli, ticks) in enumerate(items):
            try:
                feeds = prepare_feeds(component, stimuli, ticks)
            except Exception as exc:  # noqa: BLE001 - per-lane isolation
                errors[index], exceptions[index] = _capture(exc)
                continue
            columns[index], horizons[index], failure = draw_stimuli(
                feeds, ticks, check)
            requested[index] = ticks
            if failure is not None:
                pending[index] = _capture(failure)

        input_names = component.input_names()
        output_spec = flat.output_spec
        horizon = int(horizons.max())
        objects = ObjectTable(self.constants)

        position = {name: index for index, name in enumerate(input_names)}
        in_rows = _input_rows(columns, horizons, horizon,
                              [position[name] for name, _slot
                               in flat.input_spec], objects)
        in_slots = [slot for _name, slot in flat.input_spec]
        out_slots = [slot for _name, slot in output_spec]
        #: per tick, the outputs' compact rows
        out_rows: List[TickRows] = []
        absent_outputs = _absent_rows(len(out_slots), lanes)

        leaves = flat.leaves
        n_scratch = flat._scratch_count  # noqa: SLF001 - same-package IR
        writes_states = flat._writes_states  # noqa: SLF001
        states: List[List[Any]] = [
            [leaf.initial_state() for _ in range(lanes)] for leaf in leaves]
        buffers = np.empty((len(flat.buffer_specs), 2, lanes))
        for buffer_index, spec in enumerate(flat.buffer_specs):
            buffers[buffer_index, 0], buffers[buffer_index, 1] = \
                encode_value(spec[0], objects)
        # the tick's next states and buffers start as the tick-start ones
        # (unwritten ones carry over); scratch entries are written before
        # they are read within a tick
        next_states = [row[:] for row in states] if writes_states \
            else states
        next_buffers = buffers.copy()
        scratch = [[None] * lanes for _ in range(n_scratch)]
        lane_frames: Dict[int, Frame] = {}

        values = np.zeros((flat.n_slots, 2, lanes))  # tags reset per tick
        live = np.array([error is None for error in errors], dtype=bool)
        histories = [{} for _ in range(lanes)] if collect_modes else None
        observers = [flat._history_recorder(lane_histories)  # noqa: SLF001
                     for lane_histories in histories] \
            if histories is not None else None
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
        lane_fallbacks = 0
        scalar_fallback_ticks = 0
        scalar_fallback_events = 0
        sweep_started = time.perf_counter() if registry is not None else 0.0

        # lane arithmetic runs on every lane, masked ones included: their
        # floating-point status flags mean nothing
        with np.errstate(all="ignore"):
            for tick in range(horizon):
                active = live & (tick < horizons)
                tags, payloads = in_rows[tick]
                in_rows[tick] = None  # consumed: the sweep's memory stays flat
                if not active.any():
                    out_rows.append(absent_outputs)
                    continue
                values[:, 0] = TAG_ABSENT
                values[in_slots, 0] = tags
                values[in_slots, 1] = payloads
                frame = LaneFrame(None, tick, states, next_states, buffers,
                                  next_buffers, scratch)
                frame.active, frame.kernels = active, kernels
                frame.objects = objects
                frame.fallbacks, frame._lanes = 0, lane_frames
                try:
                    run(kernels, values, frame)
                except Exception:  # noqa: BLE001 - a lane needs the scalar path
                    indices = np.flatnonzero(active).tolist()
                    scalar_fallback_events += 1
                    scalar_fallback_ticks += len(indices)
                    if profile is not None:
                        profile.scalar_fallback_ticks += len(indices)
                    outputs = self._scalar_tick(
                        tick, indices, frame, columns, input_names,
                        output_spec, live, errors, exceptions)
                else:
                    vector_ticks += 1
                    outputs = values[out_slots]
                lane_fallbacks += frame.fallbacks
                if root_modes is not None:
                    root_modes[tick] = next_buffers[root_machine.buffer, 1]
                if observers is not None:
                    self._observe(observers, active & live, next_states,
                                  next_buffers, objects)
                if check_types:
                    self._check_outputs(tick, active & live, outputs,
                                        objects, live, errors, exceptions)
                out_rows.append((outputs[:, 0].astype(np.uint8),
                                 outputs[:, 1].copy()))
                # the next state becomes the tick-start state in place,
                # so the lanes' frames stay valid for the whole sweep
                if writes_states:
                    for row, next_row in zip(states, next_states):
                        row[:] = next_row
                np.copyto(buffers, next_buffers)

        if profile is not None:
            profile.lane_fallbacks += lane_fallbacks
        if registry is not None:
            registry.counter("batch.sweeps").inc()
            registry.counter("batch.lanes").inc(lanes)
            registry.counter("batch.vector_ticks").inc(vector_ticks)
            registry.counter("batch.lane_fallbacks").inc(lane_fallbacks)
            if scalar_fallback_events:
                registry.counter("batch.scalar_fallback_events").inc(
                    scalar_fallback_events)
                registry.counter("batch.scalar_fallback_ticks").inc(
                    scalar_fallback_ticks)
            registry.histogram("batch.sweep.duration_s").observe(
                time.perf_counter() - sweep_started)

        # every output column decoded in bulk, then cut into lanes
        out_columns = [decode_rows(*_column(out_rows, k, lanes), objects)
                       for k in range(len(out_slots))]
        del out_rows
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
                dict(zip(input_names, columns[index])),
                {port_name: out_columns[k][:ticks, index].tolist()
                 for k, (port_name, _slot) in enumerate(output_spec)},
                modes)
            columns[index] = None  # the trace holds copies
            outcomes.append(LaneOutcome(
                name, trace=trace,
                mode_paths=histories[index] if histories is not None
                else None))
        return outcomes

    # -- per-lane bookkeeping ------------------------------------------------

    @staticmethod
    def _observe(observers: List[Any], lanes: np.ndarray,
                 next_states: List[List[Any]], next_buffers: np.ndarray,
                 objects: ObjectTable) -> None:
        """Append the active modes after the tick of each lane of the mask
        *lanes*."""
        lane_buffers = decode_rows(next_buffers[:, 0], next_buffers[:, 1],
                                   objects).T.tolist()
        for index in np.flatnonzero(lanes).tolist():
            observers[index]([row[index] for row in next_states],
                             lane_buffers[index])

    def _check_outputs(self, tick: int, lanes: np.ndarray,
                       outputs: np.ndarray, objects: ObjectTable,
                       live: np.ndarray, errors: List[Optional[str]],
                       exceptions: List[Optional[BaseException]]) -> None:
        """Type-check the outputs of *tick* (an ``(output, 2, lane)``
        plane) of each lane of the mask *lanes*; a lane that fails leaves
        the sweep."""
        component = self.component
        for index in np.flatnonzero(lanes).tolist():
            lane_outputs = LaneView(outputs, index, objects)
            try:
                for k, (name, _slot) in enumerate(self.flat.output_spec):
                    value = lane_outputs[k]
                    if component.has_port(name) and not is_absent(value):
                        check_value(value, component.port(name).port_type,
                                    context=f"{component.name}.{name}@t{tick}")
            except Exception as exc:  # noqa: BLE001
                errors[index], exceptions[index] = _capture(exc)
                live[index] = False

    # -- the scalar fallback tick -------------------------------------------

    def _scalar_tick(self, tick: int, indices: List[int], frame: LaneFrame,
                     columns: List[Optional[List[List[Any]]]],
                     input_names: Sequence[str],
                     output_spec: Tuple[Tuple[str, int], ...],
                     live: np.ndarray, errors: List[Optional[str]],
                     exceptions: List[Optional[BaseException]]
                     ) -> np.ndarray:
        """Re-run one tick per active lane through the scalar flat step;
        returns the tick's ``(output, 2, lane)`` plane.

        Runs from the tick-start state (the frame's ``prev_*`` planes are
        never touched by the aborted vectorized attempt), so each lane
        reproduces exactly what the scalar engine computes: identical
        outputs and next states for healthy lanes, the identical exception
        -- type, message, tick -- for failing ones, which leave the sweep
        without disturbing their neighbours.
        """
        step = self.flat.step
        objects = frame.objects
        states, next_states = frame.prev_states, frame.next_states
        plane = np.zeros((len(output_spec), 2, len(live)))
        plane[:, 0] = TAG_ABSENT
        for lane in indices:
            inputs = {name: column[tick]
                      for name, column in zip(input_names, columns[lane])}
            lane_state = FlatState(
                [row[lane] for row in states],
                LaneView(frame.prev_buffers, lane, objects).tolist())
            try:
                outputs, new_state = step(inputs, lane_state, tick)
            except Exception as exc:  # noqa: BLE001 - per-lane isolation
                errors[lane], exceptions[lane] = _capture(exc)
                live[lane] = False
                continue
            for row, state in zip(next_states, new_state.leaf_states):
                row[lane] = state
            lane_buffers = LaneView(frame.next_buffers, lane, objects)
            for buffer_index, value in enumerate(new_state.buffers):
                lane_buffers[buffer_index] = value
            lane_outputs = LaneView(plane, lane, objects)
            for k, (name, _slot) in enumerate(output_spec):
                lane_outputs[k] = outputs[name]
        return plane

    def __repr__(self) -> str:
        return (f"BatchSchedule({self.component.name!r}, "
                f"ops={len(self._program)}, slots={self.flat.n_slots}, "
                f"vectorized={len(self.vectorized_ops)})")


def compile_batch(component: Any) -> BatchSchedule:
    """Compile *component* into a :class:`BatchSchedule` (via the flat IR).

    Raises :class:`~repro.core.errors.SimulationError` for unflattenable
    roots, exactly like :func:`~repro.simulation.schedule_ir.compile_flat`.
    """
    from .schedule_ir import compile_flat
    return BatchSchedule(compile_flat(component))
