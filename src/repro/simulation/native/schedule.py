"""The native schedule: a compiled C function running whole horizons.

:class:`NativeSchedule` wraps a :class:`~repro.simulation.schedule_ir.FlatSchedule`
whose op program has been lowered to C (:mod:`.emit`), compiled
(:mod:`.toolchain`) and loaded through :mod:`ctypes`.  The C code exports
one entry point, ``repro_run(frame, ticks)``, which runs the op program
for *ticks* consecutive ticks.  :meth:`NativeSchedule.run_horizon` runs a
whole scenario through it in one foreign call;
:attr:`NativeSchedule.step` is its one-tick case and keeps the exact
``(inputs, state, tick) -> (outputs, state)`` contract of the flat engine
-- :class:`~repro.simulation.schedule_ir.FlatState` in and out, nested
dict states converted on entry -- so it is a drop-in fifth backend for
:func:`~repro.simulation.engine.run_stepped` and
:class:`~repro.simulation.compiled.CompiledSimulator`, which takes the
horizon whenever it would drive the schedule's own step unchecked.

**The horizon protocol.**  Python prepares the columns of a run: the
stimuli are drawn into per-port columns
(:func:`~repro.simulation.engine.draw_stimuli`, callables in the draw
order of ``run_stepped``) and packed into a tagged input plane, one row
per tick;
gate predicates, functions of the tick only, are pre-evaluated into a
tick × gate byte matrix; the initial delayed buffers are stored into the
``pb*`` planes.  ONE foreign call then runs every tick: the C function
records the running tick in the frame, seeds ``nb*`` from ``pb*`` on the
first tick (so unwritten buffers carry over, exactly like the flat
engine's ``next_buffers = prev_buffers[:]``) and carries ``nb*`` over
into ``pb*`` on every later one (``warm``), clears the tag plane to
all-ABSENT (ABSENT is tag 0 by construction), scatters the tick's input
row, runs the op program, gathers the outputs into the tick's row of a
tick × output tagged plane -- and, for an MTD root, the committed root
mode into a per-tick mode column -- then advances its row pointers.
Python decodes the output plane in bulk (``memoryview.tolist``) into the
trace's columns (:meth:`~repro.simulation.trace.SimulationTrace.from_columns`).
A draw that raises at tick *k* is held pending while ticks ``0 .. k-1``
run, so a step error on an earlier tick still wins.  The step is the same
call over one-row planes: its outputs land right after the next buffers,
so one decode reads both, and a state that is the one the previous step
returned, with every buffer native, is taken from ``nb*`` (``warm``).
Values without a native representation (nested leaf states aside:
out-of-int64 integers, enum members, structs, any non-exact-typed object)
travel as :data:`~repro.ascet.c_expr.TAG_OBJ` with the int payload
indexing an object table cleared once per call, so C can *move* them
(copies, buffers) even though only Python can *compute* with them.

**The trampoline.**  Ops the emitter routed to the fallback path -- and
lowered expression blocks whose run-time values escape exact int64/double
replication -- re-enter Python through one ``ctypes`` callback carrying
the op index, which replays the flat schedule's own scalar kernel for
that op (:data:`~repro.simulation.schedule_ir.SCALAR_KERNELS`: the same
nested step functions and compiled expression closures) with the tagged
slot plane as its ``values`` -- one :class:`_TaggedPlane` codec encodes
and decodes every slot, buffer, input and output access.  The kernels'
frame is built on the first trampoline call of a tick, from the running
tick the C function recorded; leaf states rotate then, from the last
frame's next states, since only trampolined ops write them.  A kernel
that raises stores the exception and returns nonzero; the C function
unwinds immediately and the run (or step) re-raises it unchanged, which
is what makes error-path behaviour (exception type, message, tick)
identical to the flat backend by construction.

:class:`NativeSchedule` deliberately does **not** offer ``op_labels`` /
``instrumented_step`` / ``recording_step``: op-level profiling and flight
recording wrap the kernels of the *Python* driver loop, so
:meth:`repro.obs.context.Telemetry.step_for` finds nothing to swap and
observability degrades gracefully to spans and counters.
"""

from __future__ import annotations

import ctypes
from itertools import chain
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ...core.values import ABSENT
from ...obs.context import active as _obs_active
from ...obs.context import maybe_span
from ..engine import StimulusSpec, draw_stimuli, prepare_feeds
from ..schedule_ir import FlatSchedule, FlatState, Frame
from ..trace import SimulationTrace
from .emit import LoweredProgram, lower_program
from .toolchain import (EMITTER_VERSION, NativeLoweringError,
                        ensure_shared_object, find_compiler)

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

_TRAMP_TYPE = ctypes.CFUNCTYPE(ctypes.c_longlong, ctypes.c_longlong)

#: element types of one tagged plane: tag / int64 payload / double payload
_PLANE_TYPES = (ctypes.c_ubyte, ctypes.c_longlong, ctypes.c_double)

_BYTES = ctypes.POINTER(ctypes.c_ubyte)
_INT64S = ctypes.POINTER(ctypes.c_longlong)


class _Planes(ctypes.Structure):
    """The generated C's ``repro_frame``: every plane of one call."""

    _fields_ = [(f"{plane}{part}", ctypes.POINTER(kind))
                for plane in ("slot", "prev", "next", "in")
                for part, kind in zip("tif", _PLANE_TYPES)] \
        + [("gate", _BYTES)] \
        + [(f"out{part}", ctypes.POINTER(kind))
           for part, kind in zip("tif", _PLANE_TYPES)] \
        + [("modes", _INT64S), ("tramp", _TRAMP_TYPE),
           ("warm", ctypes.c_longlong), ("tick", ctypes.c_longlong)]

    def point(self, prefix: str, plane: "_TaggedPlane",
              offset: int = 0) -> None:
        """Point the *prefix* triple at *plane*, from entry *offset* on."""
        for part, array, kind in zip("tif", plane.arrays, _PLANE_TYPES):
            setattr(self, prefix + part, ctypes.cast(
                ctypes.addressof(array) + offset * ctypes.sizeof(kind),
                ctypes.POINTER(kind)))


class _TaggedPlane:
    """A tagged array triple -- tag / int64 payload / double payload --
    read and written like a list of Python values.

    The one codec between Python values and the C planes: the slot plane,
    both delayed-buffer planes, the input columns and the output plane are
    instances, and the trampoline hands the slot plane to the flat
    schedule's scalar kernels as their ``values``.  Values without a
    native representation ride the shared object table
    (:data:`~repro.ascet.c_expr.TAG_OBJ`).
    """

    __slots__ = ("tag", "iv", "fv", "arrays", "views", "objtable")

    def __init__(self, size: int, objtable: List[Any]):
        self.arrays = tuple((kind * size)() for kind in _PLANE_TYPES)
        self.tag, self.iv, self.fv = self.arrays
        # bulk access: memoryview.tolist is the cheapest decode of a plane
        self.views = tuple(memoryview(array).cast("B").cast(code)
                           for array, code in zip(self.arrays, "Bqd"))
        self.objtable = objtable

    def __setitem__(self, index: int, value: Any) -> None:
        kind = type(value)
        if value is ABSENT:
            self.tag[index] = 0
        elif kind is bool:
            self.tag[index] = 3
            self.iv[index] = 1 if value else 0
        elif kind is int and _INT64_MIN <= value <= _INT64_MAX:
            self.tag[index] = 1
            self.iv[index] = value
        elif kind is float:
            self.tag[index] = 2
            self.fv[index] = value
        else:
            # exact-type dispatch on purpose: subclasses (IntEnum, ...)
            # must round-trip identically, so they ride the object table
            objtable = self.objtable
            self.tag[index] = 4
            self.iv[index] = len(objtable)
            objtable.append(value)

    def __getitem__(self, index: int) -> Any:
        tag = self.tag[index]
        if tag == 0:
            return ABSENT
        if tag == 1:
            return self.iv[index]
        if tag == 2:
            return self.fv[index]
        if tag == 3:
            return self.iv[index] != 0
        return self.objtable[self.iv[index]]

    def store(self, values: List[Any]) -> None:
        """Encode *values* into the plane's first ``len(values)`` entries."""
        tags, ints, floats = self.views
        low, high = _INT64_MIN, _INT64_MAX
        for index, value in enumerate(values):
            kind = type(value)
            if kind is float:
                tags[index] = 2
                floats[index] = value
            elif kind is int and low <= value <= high:
                tags[index] = 1
                ints[index] = value
            else:
                self[index] = value

    def decode(self) -> Tuple[List[Any], List[int]]:
        """Every entry as a Python value, plus the raw tags."""
        tags = self.views[0].tolist()
        ints = self.views[1].tolist()
        floats = self.views[2].tolist()
        objtable, absent = self.objtable, ABSENT
        return [ints[index] if kind == 1 else floats[index] if kind == 2
                else absent if kind == 0 else ints[index] != 0 if kind == 3
                else objtable[ints[index]]
                for index, kind in enumerate(tags)], tags


class NativeSchedule:
    """A flat schedule executing through a compiled C function.

    :meth:`run_horizon` runs a whole scenario in one foreign call;
    :attr:`step` is the one-tick case of the same call.  Introspection
    (``linear_steps`` / ``describe`` / ``ops_summary`` / ``mode_paths``
    and the boundary specs) delegates to the wrapped :attr:`flat`
    schedule: the native backend changes the execution substrate, not the
    program.
    """

    kind = "native"

    def __init__(self, flat: FlatSchedule, so_path: str,
                 lowered: LoweredProgram):
        self.flat = flat
        self.component = flat.component
        self.program = flat.program
        self.input_spec = flat.input_spec
        self.output_spec = flat.output_spec
        self.fallback_paths = flat.fallback_paths
        self.root_mode = flat.root_mode
        self.so_path = so_path
        self.lowered = lowered
        #: total trampoline re-entries (fallback ops + run-time bails);
        #: plain attribute, no observability branch on the hot path.
        self.trampoline_calls = 0

        n_buffers = len(flat.buffer_specs)
        # constants (mode names) at the head, per-call objects after them
        self._objtable: List[Any] = list(lowered.constants)
        self._slots = _TaggedPlane(flat.n_slots, self._objtable)
        self._prev_buffers = _TaggedPlane(n_buffers, self._objtable)
        # the next buffers, then a step's outputs (so one decode reads both)
        self._next_buffers = _TaggedPlane(
            n_buffers + len(flat.output_spec), self._objtable)
        self._inputs = _TaggedPlane(len(flat.input_spec), self._objtable)
        self._gate = (ctypes.c_ubyte * len(lowered.gate_indexes))()
        self._gates = [flat.program[op_index][1]
                       for op_index in lowered.gate_indexes]

        self._lib = ctypes.CDLL(so_path)
        self._fn = self._lib.repro_run
        self._fn.restype = ctypes.c_longlong
        self._fn.argtypes = [ctypes.c_void_p, ctypes.c_longlong]

        # the running call: (its planes, the tick its first tick is, the
        # leaf states it started from, tick in call -> boundary inputs);
        # the trampolined kernels' frame is built on the first trampoline
        # call of each tick only
        self._call: Tuple[Any, ...] = (None, 0, [], None)
        self._frame: Optional[Frame] = None
        self._pending: Optional[BaseException] = None
        #: the state the last step returned, when its buffers are all
        #: still in ``nb*`` (none rides the per-call object table)
        self._warm_state: Optional[FlatState] = None

        self._tramp = _TRAMP_TYPE(self._trampoline)  # kept alive on self
        # the step's planes never move: one tick's input row and gate row,
        # outputs gathered right after the next buffers
        self._step_planes = self._planes()
        self._step_planes.point("in", self._inputs)
        self._step_planes.gate = ctypes.cast(self._gate, _BYTES)
        self._step_planes.point("out", self._next_buffers, n_buffers)
        self._mode_cell = (ctypes.c_longlong * 1)()
        self._step_planes.modes = ctypes.cast(self._mode_cell, _INT64S)
        self.step = self._make_step()
        #: the step :meth:`run_horizon` stands for: a caller driving
        #: another step (a wrapper, an observing variant) runs per tick
        self.own_step = self.step

    def _planes(self) -> _Planes:
        """A frame over the shared slot and buffer planes."""
        planes = _Planes()
        planes.point("slot", self._slots)
        planes.point("prev", self._prev_buffers)
        planes.point("next", self._next_buffers)
        planes.tramp = self._tramp
        return planes

    # -- the trampoline ----------------------------------------------------

    def _trampoline(self, op_index: int) -> int:
        """Replay op *op_index* through the flat schedule's scalar kernel,
        on the tagged slot plane."""
        self.trampoline_calls += 1
        planes, base, states, inputs_at = self._call
        tick = planes.tick
        frame = self._frame
        if frame is None or frame.tick != base + tick:
            # leaf states rotate lazily: only run ops write them, and
            # every run op re-enters here
            if frame is not None:
                states = frame.next_states
            frame = self._frame = Frame(
                inputs_at(tick), base + tick, states, states[:],
                self._prev_buffers, self._next_buffers,
                [None] * self.flat._scratch_count)  # noqa: SLF001
        try:
            self.flat.kernels[op_index](self._slots, frame)
            return 0
        except BaseException as exc:  # noqa: BLE001 - re-raised by the call
            self._pending = exc
            return 1

    def _raise_pending(self, failed: int) -> None:
        pending = self._pending
        self._pending = None
        if pending is None:  # pragma: no cover - defensive
            raise NativeLoweringError(
                f"native run failed at op {failed - 1} without a pending "
                "Python exception")
        raise pending

    # -- the step function -------------------------------------------------

    def _make_step(self):
        flat = self.flat
        n_buffers = len(flat.buffer_specs)
        convert = flat._convert_state  # noqa: SLF001
        absent = ABSENT
        gates = list(enumerate(self._gates))
        gate = self._gate
        output_names = tuple(name for name, _slot in self.output_spec)
        prev_plane, next_plane = self._prev_buffers, self._next_buffers
        in_plane = self._inputs
        input_names = tuple(name for name, _slot in self.input_spec)
        objtable = self._objtable
        n_constants = len(self.lowered.constants)
        planes = self._step_planes
        call = self._fn
        address = ctypes.addressof(planes)

        def step(inputs: Mapping[str, Any], state: Any,
                 tick: int) -> Tuple[Dict[str, Any], Any]:
            if type(state) is not FlatState:
                state = convert(state)
            prev_states = state.leaf_states
            # a one-tick call: its inputs are this dict at every index
            self._call = (planes, tick, prev_states, (inputs,).__getitem__)
            self._frame = None
            del objtable[n_constants:]
            in_plane.store([inputs.get(name, absent) for name in input_names])
            if state is self._warm_state:
                planes.warm = 1
            else:
                planes.warm = 0
                prev_plane.store(state.buffers)
            for index, predicate in gates:
                gate[index] = 1 if predicate(tick) else 0
            failed = call(address, 1)
            if failed:
                self._warm_state = None
                self._raise_pending(failed)
            values, tags = next_plane.decode()
            outputs = dict(zip(output_names, values[n_buffers:]))
            del values[n_buffers:]
            frame = self._frame
            new_state = FlatState(
                prev_states if frame is None else frame.next_states, values)
            self._warm_state = new_state if 4 not in tags[:n_buffers] \
                else None
            return outputs, new_state

        return step

    # -- the whole-horizon run ---------------------------------------------

    def run_horizon(self, stimuli: Optional[Mapping[str, StimulusSpec]],
                    ticks: int) -> SimulationTrace:
        """Run one scenario from the initial state in ONE foreign call.

        The trace -- and every error: exception type, message and tick --
        equals :func:`~repro.simulation.engine.run_stepped` over
        :attr:`step` without type checks.  Callable stimuli are drawn in
        that loop's order (tick-major, port-inner); a draw that raises at tick
        *k* is held until ticks ``0 .. k-1`` have run, so an earlier step
        error still wins.
        """
        flat = self.flat
        component = self.component
        feeds = prepare_feeds(component, stimuli, ticks)
        input_names = [name for name, _generator in feeds]
        columns, horizon, failure = draw_stimuli(feeds, ticks)

        objtable = self._objtable
        del objtable[len(self.lowered.constants):]
        self._warm_state = None
        n_out = len(self.output_spec)
        outputs = _TaggedPlane(horizon * n_out, objtable)
        modes = (ctypes.c_longlong * horizon)()
        if horizon:
            rows = _TaggedPlane(horizon * len(feeds), objtable)
            rows.store(list(chain.from_iterable(zip(*columns))))
            gates = self._gates
            gate_rows = (ctypes.c_ubyte * (horizon * len(gates))) \
                .from_buffer_copy(bytes([
                    1 if predicate(tick) else 0
                    for tick in range(horizon) for predicate in gates]))
            state = flat.initial_state()
            self._prev_buffers.store(state.buffers)
            planes = self._planes()
            planes.point("in", rows)
            planes.gate = ctypes.cast(gate_rows, _BYTES)
            planes.point("out", outputs)
            planes.modes = ctypes.cast(modes, _INT64S)

            def inputs_at(tick: int) -> Dict[str, Any]:
                return {name: column[tick]
                        for name, column in zip(input_names, columns)}

            self._call = (planes, 0, state.leaf_states, inputs_at)
            self._frame = None
            failed = self._fn(ctypes.addressof(planes), horizon)
            self._frame = None
            if failed:
                self._raise_pending(failed)
        if failure is not None:
            raise failure
        values, _tags = outputs.decode()
        names = flat.machines[0].names if self.root_mode is not None \
            else None
        return SimulationTrace.from_columns(
            component.name, ticks,
            dict(zip(input_names, columns)),
            {name: values[index::n_out]
             for index, (name, _slot) in enumerate(self.output_spec)},
            [names[mode] for mode in memoryview(modes).cast("B").cast("q")]
            if names is not None else ())

    # -- delegation to the wrapped flat schedule ---------------------------

    def initial_state(self) -> FlatState:
        return self.flat.initial_state()

    def linear_steps(self, prefix: str = "") -> List[Tuple[str, str]]:
        return self.flat.linear_steps(prefix)

    def describe(self) -> str:
        return self.flat.describe()

    def ops_summary(self) -> List[str]:
        return self.flat.ops_summary()

    def mode_paths(self, state: Any) -> Dict[str, Any]:
        return self.flat.mode_paths(state)

    def __repr__(self) -> str:
        return (f"NativeSchedule({self.component.name!r}, "
                f"ops={len(self.flat.program)}, "
                f"lowered={len(self.lowered.lowered_ops)}, "
                f"fallback={len(self.lowered.fallback_ops)})")


def compile_native(schedule: Any,
                   cache_directory: Optional[str] = None) -> NativeSchedule:
    """Compile a flat schedule (or a flattenable component) to native code.

    The lowering is gated on a clean static-verifier report: a schedule
    whose :func:`~repro.analysis.lint.ir_verify.lint_flat_schedule` report
    carries errors is refused with :class:`NativeLoweringError` -- the
    C fast path keeps slot accesses unguarded on exactly the write-before-
    read / gate-structure facts the verifier proves, so an unverified
    program must not reach the compiler.  Also raises
    :class:`NativeLoweringError` when no C compiler is available
    (:class:`~repro.simulation.compiled.CompiledSimulator` checks
    :func:`~.toolchain.native_available` first and degrades to ``"flat"``
    instead of calling this).
    """
    if not isinstance(schedule, FlatSchedule):
        from ..schedule_ir import compile_flat
        schedule = compile_flat(schedule)
    # lazy import: analysis.lint imports the schedule IR for its verifier
    from ...analysis.lint.ir_verify import lint_flat_schedule
    report = lint_flat_schedule(schedule)
    errors = report.errors()
    if errors:
        details = "\n".join(finding.describe() for finding in errors)
        raise NativeLoweringError(
            f"native lowering refused: ir_verify report for "
            f"{schedule.component.name!r} is not clean:\n{details}")
    if find_compiler() is None:
        raise NativeLoweringError(
            "no C compiler available (set $CC or install cc/gcc/clang); "
            "use backend='flat' or backend='auto' instead")
    telemetry = _obs_active()
    registry = telemetry.registry if telemetry is not None else None
    with maybe_span("compile.native", component=schedule.component.name,
                    ops=len(schedule.program)) as span:
        lowered = lower_program(schedule, EMITTER_VERSION)
        so_path, cache_hit = ensure_shared_object(lowered.source,
                                                  cache_directory)
        native = NativeSchedule(schedule, so_path, lowered)
        if span is not None:
            span.attributes.update(lowered_ops=len(lowered.lowered_ops),
                                   fallback_ops=len(lowered.fallback_ops),
                                   cache_hit=cache_hit)
    if registry is not None:
        registry.counter("native.compile.total").inc()
        registry.counter("native.compile.cache_hits" if cache_hit
                         else "native.compile.cache_misses").inc()
        registry.counter("native.ops.lowered").inc(
            len(lowered.lowered_ops))
        registry.counter("native.ops.fallback").inc(
            len(lowered.fallback_ops))
    return native
