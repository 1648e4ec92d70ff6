"""The native schedule: a compiled C step function behind ``run_stepped``.

:class:`NativeSchedule` wraps a :class:`~repro.simulation.schedule_ir.FlatSchedule`
whose op program has been lowered to C (:mod:`.emit`), compiled
(:mod:`.toolchain`) and loaded through :mod:`ctypes`.  Its :attr:`step`
keeps the exact ``(inputs, state, tick) -> (outputs, state)`` contract of
the flat engine -- :class:`~repro.simulation.schedule_ir.FlatState` in and
out, nested dict states converted on entry -- so it is a drop-in fifth
backend for :func:`~repro.simulation.engine.run_stepped` and
:class:`~repro.simulation.compiled.CompiledSimulator`.

**The tick protocol.**  Python marshals the boundary each tick: inputs
are stored into the input plane, the previous delayed buffers into the
``pb*`` planes -- unless the state is the one the previous tick returned
and its buffers are all native, when the C step takes them from ``nb*``
itself (``warm``) -- gate predicates, functions of the tick only, are
pre-evaluated into a byte array, and ONE foreign call does the rest: the
C function clears the tag plane to all-ABSENT (ABSENT is tag 0 by
construction), scatters the inputs, seeds ``nb*`` from ``pb*`` (so
unwritten buffers carry over, exactly like the flat engine's
``next_buffers = prev_buffers[:]``) and runs the whole op program.
Outputs and next buffers are decoded afterwards.  Values without a native representation
(nested leaf states aside: out-of-int64 integers, enum members, structs,
any non-exact-typed object) travel as :data:`~repro.ascet.c_expr.TAG_OBJ`
with the int payload indexing a per-tick object table, so C can *move*
them (copies, buffers) even though only Python can *compute* with them.

**The trampoline.**  Ops the emitter routed to the fallback path -- and
lowered expression blocks whose run-time values escape exact int64/double
replication -- re-enter Python through one ``ctypes`` callback carrying
the op index, which replays the flat schedule's own scalar kernel for
that op (:data:`~repro.simulation.schedule_ir.SCALAR_KERNELS`: the same
nested step functions and compiled expression closures) with the tagged
slot plane as its ``values`` -- one :class:`_TaggedPlane` codec encodes
and decodes every slot and buffer access.  A kernel that raises stores the
exception and returns nonzero; the C function unwinds immediately and
:attr:`step` re-raises it unchanged, which is what makes error-path
behaviour (exception type, message, tick) identical to the flat backend
by construction.

:class:`NativeSchedule` deliberately does **not** offer ``op_labels`` /
``instrumented_step`` / ``recording_step``: op-level profiling and flight
recording wrap the kernels of the *Python* driver loop, so
:meth:`repro.obs.context.Telemetry.step_for` finds nothing to swap and
observability degrades gracefully to spans and counters.
"""

from __future__ import annotations

import ctypes
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ...core.values import ABSENT
from ...obs.context import active as _obs_active
from ...obs.context import maybe_span
from ..schedule_ir import FlatSchedule, FlatState, Frame
from .emit import LoweredProgram, lower_program
from .toolchain import (EMITTER_VERSION, NativeLoweringError,
                        ensure_shared_object, find_compiler)

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

_TRAMP_TYPE = ctypes.CFUNCTYPE(ctypes.c_longlong, ctypes.c_longlong)

#: element types of one tagged plane: tag / int64 payload / double payload
_PLANE_TYPES = (ctypes.c_ubyte, ctypes.c_longlong, ctypes.c_double)


class _Planes(ctypes.Structure):
    """The generated C's ``repro_frame``: every plane of one schedule."""

    _fields_ = [(f"{plane}{part}", ctypes.POINTER(kind))
                for plane in ("slot", "prev", "next", "in")
                for part, kind in zip("tif", _PLANE_TYPES)] \
        + [("gate", ctypes.POINTER(ctypes.c_ubyte)),
           ("tramp", _TRAMP_TYPE), ("warm", ctypes.c_longlong)]


class _TaggedPlane:
    """A tagged array triple -- tag / int64 payload / double payload --
    read and written like a list of Python values.

    The one codec between Python values and the C step's planes: the slot
    plane and both delayed-buffer planes are instances, and the trampoline
    hands the slot plane to the flat schedule's scalar kernels as their
    ``values``.  Values without a native representation ride the shared
    per-tick object table (:data:`~repro.ascet.c_expr.TAG_OBJ`).
    """

    __slots__ = ("tag", "iv", "fv", "arrays", "objtable")

    def __init__(self, size: int, objtable: List[Any]):
        self.arrays = tuple((kind * size)() for kind in _PLANE_TYPES)
        self.tag, self.iv, self.fv = self.arrays
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


class NativeSchedule:
    """A flat schedule executing through a compiled C step function.

    Introspection (``linear_steps`` / ``describe`` / ``ops_summary`` /
    ``mode_paths`` and the boundary specs) delegates to the wrapped
    :attr:`flat` schedule: the native backend changes the execution
    substrate, not the program.
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
        # constants (mode names) at the head, per-tick objects after them
        self._objtable: List[Any] = list(lowered.constants)
        self._slots = _TaggedPlane(flat.n_slots, self._objtable)
        self._prev_buffers = _TaggedPlane(n_buffers, self._objtable)
        # the next buffers, then the tick's outputs (gathered by the step)
        self._next_buffers = _TaggedPlane(
            n_buffers + len(flat.output_spec), self._objtable)
        self._inputs = _TaggedPlane(len(flat.input_spec), self._objtable)
        self._gate = (ctypes.c_ubyte * len(lowered.gate_indexes))()

        self._lib = ctypes.CDLL(so_path)
        self._fn = self._lib.repro_step
        self._fn.restype = ctypes.c_longlong
        self._fn.argtypes = [ctypes.c_void_p]

        # the tick the trampolined kernels run in: its frame is built on
        # the first trampoline call of the tick only
        self._tick: Tuple[Any, int, List[Any]] = (None, 0, [])
        self._frame: Optional[Frame] = None
        self._pending: Optional[BaseException] = None

        self._tramp = _TRAMP_TYPE(self._trampoline)  # kept alive on self
        arrays = (self._slots.arrays + self._prev_buffers.arrays
                  + self._next_buffers.arrays + self._inputs.arrays)
        self._planes = _Planes(
            *(ctypes.cast(array, field[1]) for array, field
              in zip(arrays + (self._gate,), _Planes._fields_)),
            self._tramp, 0)
        self.step = self._make_step()

    # -- the trampoline ----------------------------------------------------

    def _trampoline(self, op_index: int) -> int:
        """Replay op *op_index* through the flat schedule's scalar kernel,
        on the tagged slot plane."""
        self.trampoline_calls += 1
        frame = self._frame
        if frame is None:
            inputs, tick, prev_states = self._tick
            frame = self._frame = Frame(
                inputs, tick, prev_states, prev_states[:],
                self._prev_buffers, self._next_buffers,
                [None] * self.flat._scratch_count)  # noqa: SLF001
        try:
            self.flat.kernels[op_index](self._slots, frame)
            return 0
        except BaseException as exc:  # noqa: BLE001 - re-raised by step
            self._pending = exc
            return 1

    # -- the step function -------------------------------------------------

    def _make_step(self):
        flat = self.flat
        n_buffers = len(flat.buffer_specs)
        convert = flat._convert_state  # noqa: SLF001
        absent = ABSENT
        gates = [(index, flat.program[op_index][1])
                 for index, op_index in enumerate(self.lowered.gate_indexes)]
        gate = self._gate
        output_names = tuple(name for name, _slot in self.output_spec)
        prev_plane, next_plane = self._prev_buffers, self._next_buffers
        # bulk reads: memoryview.tolist is the cheapest decode of a plane
        next_tags, next_ints, next_floats = (
            memoryview(array).cast("B").cast(code) for array, code
            in zip(next_plane.arrays, "Bqd"))
        in_plane = self._inputs
        in_tag, in_iv, in_fv = (
            memoryview(array).cast("B").cast(code) for array, code
            in zip(in_plane.arrays, "Bqd"))
        inputs_of = tuple(enumerate(name for name, _slot in self.input_spec))
        objtable = self._objtable
        n_constants = len(self.lowered.constants)
        planes = self._planes
        call = self._fn
        address = ctypes.addressof(planes)
        low, high = _INT64_MIN, _INT64_MAX
        #: the state the previous tick returned, when its buffers are all
        #: still in ``nb*`` (none rides the per-tick object table)
        warm_state: List[Any] = [None]

        def step(inputs: Mapping[str, Any], state: Any,
                 tick: int) -> Tuple[Dict[str, Any], Any]:
            if type(state) is not FlatState:
                state = convert(state)
            prev_states = state.leaf_states
            self._tick = (inputs, tick, prev_states)
            self._frame = None
            del objtable[n_constants:]
            for index, name in inputs_of:
                value = inputs.get(name, absent)
                kind = type(value)
                if kind is float:
                    in_tag[index] = 2
                    in_fv[index] = value
                elif kind is int and low <= value <= high:
                    in_tag[index] = 1
                    in_iv[index] = value
                else:
                    in_plane[index] = value
            if state is warm_state[0]:
                planes.warm = 1
            else:
                planes.warm = 0
                for index, value in enumerate(state.buffers):
                    prev_plane[index] = value
            for index, predicate in gates:
                gate[index] = 1 if predicate(tick) else 0
            failed = call(address)
            if failed:
                warm_state[0] = None
                pending = self._pending
                self._pending = None
                if pending is None:  # pragma: no cover - defensive
                    raise NativeLoweringError(
                        f"native step failed at op {failed - 1} without a "
                        "pending Python exception")
                raise pending
            tags = next_tags.tolist()
            payloads = next_ints.tolist()
            doubles = next_floats.tolist()
            values = [payloads[index] if kind == 1
                      else doubles[index] if kind == 2
                      else next_plane[index]
                      for index, kind in enumerate(tags)]
            outputs = dict(zip(output_names, values[n_buffers:]))
            del values[n_buffers:]
            frame = self._frame
            new_state = FlatState(
                prev_states if frame is None else frame.next_states, values)
            warm_state[0] = new_state if 4 not in tags[:n_buffers] else None
            return outputs, new_state

        return step

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
