"""The native schedule: a compiled C step function behind ``run_stepped``.

:class:`NativeSchedule` wraps a :class:`~repro.simulation.schedule_ir.FlatSchedule`
whose op program has been lowered to C (:mod:`.emit`), compiled
(:mod:`.toolchain`) and loaded through :mod:`ctypes`.  Its :attr:`step`
keeps the exact ``(inputs, state, tick) -> (outputs, state)`` contract of
the flat engine -- :class:`~repro.simulation.schedule_ir.FlatState` in and
out, nested dict states converted on entry -- so it is a drop-in fifth
backend for :func:`~repro.simulation.engine.run_stepped` and
:class:`~repro.simulation.compiled.CompiledSimulator`.

**The tick protocol.**  Python marshals the boundary each tick: the tag
plane is ``memset`` to all-ABSENT (ABSENT is tag 0 by construction),
inputs are scattered into their slots, the previous delayed buffers are
stored into the ``pb*`` planes and ``memmove``-seeded into ``nb*`` (so
unwritten buffers carry over, exactly like the flat engine's
``next_buffers = prev_buffers[:]``), gate predicates -- functions of the
tick only -- are pre-evaluated into a byte array, and the C function runs
the whole op program in one call.  Values without a native representation
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

#: ``repro_step`` arguments: slot, previous-buffer and next-buffer planes,
#: the gate bytes and the trampoline
_ARGTYPES = [ctypes.POINTER(kind) for kind in _PLANE_TYPES * 3] \
    + [ctypes.POINTER(ctypes.c_ubyte), _TRAMP_TYPE]


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
        self.so_path = so_path
        self.lowered = lowered
        #: total trampoline re-entries (fallback ops + run-time bails);
        #: plain attribute, no observability branch on the hot path.
        self.trampoline_calls = 0

        n_buffers = len(flat.buffer_specs)
        self._objtable: List[Any] = []
        self._slots = _TaggedPlane(flat.n_slots, self._objtable)
        self._prev_buffers = _TaggedPlane(n_buffers, self._objtable)
        self._next_buffers = _TaggedPlane(n_buffers, self._objtable)
        self._gate = (ctypes.c_ubyte * len(lowered.gate_indexes))()

        self._lib = ctypes.CDLL(so_path)
        self._fn = self._lib.repro_step
        self._fn.restype = ctypes.c_longlong
        self._fn.argtypes = _ARGTYPES

        # the tick's frame the trampolined kernels read
        self._frame: Optional[Frame] = None
        self._pending: Optional[BaseException] = None

        self._tramp = _TRAMP_TYPE(self._trampoline)  # kept alive on self
        self.step = self._make_step()

    # -- the trampoline ----------------------------------------------------

    def _trampoline(self, op_index: int) -> int:
        """Replay op *op_index* through the flat schedule's scalar kernel,
        on the tagged slot plane."""
        self.trampoline_calls += 1
        try:
            self.flat.kernels[op_index](self._slots, self._frame)
            return 0
        except BaseException as exc:  # noqa: BLE001 - re-raised by step
            self._pending = exc
            return 1

    # -- the step function -------------------------------------------------

    def _make_step(self):
        flat = self.flat
        input_spec = self.input_spec
        output_spec = self.output_spec
        n_buffers = len(flat.buffer_specs)
        n_scratch = flat._scratch_count  # noqa: SLF001
        convert = flat._convert_state  # noqa: SLF001
        absent = ABSENT
        gates = [(index, flat.program[op_index][1])
                 for index, op_index in enumerate(self.lowered.gate_indexes)]
        slots, gate = self._slots, self._gate
        prev_plane, next_plane = self._prev_buffers, self._next_buffers
        objtable = self._objtable
        planes = slots.arrays + prev_plane.arrays + next_plane.arrays \
            + (gate,)
        tag_bytes = ctypes.sizeof(slots.tag)
        buffer_moves = [(dst, src, ctypes.sizeof(src)) for dst, src
                        in zip(next_plane.arrays, prev_plane.arrays)]
        memset = ctypes.memset
        memmove = ctypes.memmove
        fn = self._fn
        tramp = self._tramp

        def step(inputs: Mapping[str, Any], state: Any,
                 tick: int) -> Tuple[Dict[str, Any], Any]:
            if type(state) is not FlatState:
                state = convert(state)
            prev_buffers = state.buffers
            prev_states = state.leaf_states
            self._frame = frame = Frame(
                inputs, tick, prev_states, prev_states[:], prev_plane,
                next_plane, [None] * n_scratch)
            objtable.clear()
            memset(slots.tag, 0, tag_bytes)
            for name, slot in input_spec:
                value = inputs.get(name, absent)
                if value is not absent:
                    slots[slot] = value
            for index in range(n_buffers):
                prev_plane[index] = prev_buffers[index]
            for dst, src, size in buffer_moves:
                memmove(dst, src, size)
            for index, predicate in gates:
                gate[index] = 1 if predicate(tick) else 0
            failed = fn(*planes, tramp)
            if failed:
                pending = self._pending
                self._pending = None
                if pending is None:  # pragma: no cover - defensive
                    raise NativeLoweringError(
                        f"native step failed at op {failed - 1} without a "
                        "pending Python exception")
                raise pending
            outputs = {name: slots[slot] for name, slot in output_spec}
            next_buffers = [next_plane[index] for index in range(n_buffers)]
            return outputs, FlatState(frame.next_states, next_buffers)

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
