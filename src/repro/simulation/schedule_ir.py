"""The flat-schedule IR: one global step program over slot-based environments.

AutoMoDe's operational-architecture level is a *flattened* network of
communicating blocks scheduled as one global cluster plan (paper Sec. 2.4):
the hierarchical DFD/SSD description is a design artefact, while the
deployed system executes a single linear schedule.  The reference
interpreter mirrors the *hierarchy* at run time -- every
:class:`~repro.core.components.CompositeComponent` re-marshals a dict
environment at each boundary, every tick.  This module mirrors the
*deployment* instead: the whole hierarchy is compiled once into a
:class:`FlatSchedule`, a linear program of opcodes over a flat slot
environment.  It is the only compiler of composites, clock gates and
mode-transition diagrams, at the root and inside a hierarchy.

**Slot-based environments.**  Every port of every component occurrence in
the hierarchy is assigned a fixed integer slot.  A tick allocates one flat
``values`` list (all :data:`~repro.core.values.ABSENT`), scatters the
boundary inputs into their slots and runs the program; channels are integer
slot copies instead of ``(component, port)`` dict keys, and each leaf's
input environment is built exactly once from its slots -- no per-composite
dict construction, key translation or input re-filtering.

**The program.**  Ten opcodes express the full semantics of the
reference interpreter:

* ``run``   -- execute one leaf step (gather inputs from slots, call the
  leaf's compiled step closure, scatter outputs to slots, forward its
  instantaneous channels);
* ``expr``  -- evaluate an expression block's compiled closures straight
  into its output slots;
* ``copy``  -- instantaneous channel propagation (boundary forwarding and
  boundary-output collection) as slot-to-slot copies;
* ``buf_read`` / ``buf_write`` -- delayed channels: seed destination slots
  from the previous tick's buffers / commit this tick's source values;
* ``gate``  -- the gating predicate of a flattened
  :class:`~repro.simulation.engine.ClockGatedComponent` subtree: when the
  clock is silent at this tick, jump over the subtree's ops (outputs stay
  absent, leaf states and buffers are carried over unchanged);
* ``correct`` -- the per-composite correction barrier: non-feedthrough
  entries whose inputs changed after they ran are re-stepped from their
  tick-start state with the final values, mirroring the reference
  interpreter's second pass;
* ``mode`` / ``switch`` / ``jump`` -- a lowered
  :class:`~repro.notations.mtd.ModeTransitionDiagram`: ``mode``
  reads the machine's current mode (an int index kept in a delayed
  buffer), evaluates that mode's guards in priority order, commits the
  next mode and writes the ``mode`` port; ``switch`` -- a gate
  generalised to N targets -- jumps into the flattened behaviour region
  of the committed mode (straight to its end for a mode without
  behaviour); every region but the last ends in a ``jump`` to that end.
  Only the active region runs, so the other modes' states and buffers
  carry over, exactly like the interpreter's ``mode_states``.

**Kernels.**  Each opcode's execution semantics is written once, as a
kernel factory in :data:`SCALAR_KERNELS`: a plain closure per op over the
slot environment that returns a jump target or ``None``.  The tuple-encoded
program stays the IR contract (the verifier and the C emitter read it);
:func:`run_kernels` is the one driver loop.  Step variants are built by
wrapping kernels, not by copying the loop: op profiling
(:func:`profiled_kernels`), flight recording, the batch backend (which
reuses the copy/buffer/gate/jump kernels on NumPy rows) and the native
trampoline (which replays these kernels on its tagged plane).

**State.**  Run-time state is a :class:`FlatState`: one flat list of leaf
states plus one flat list of delayed-channel buffers.  The step also
accepts the nested dict state produced by ``component.initial_state()``
(converted on entry), so it remains a drop-in
``(inputs, state, tick) -> (outputs, state)`` step function for
:func:`~repro.simulation.engine.run_stepped`.

**Leaves and fallbacks.**  Leaves -- STDs, atomic blocks, expression
blocks and components with a custom ``react`` -- compile to their leaf
step (:func:`~repro.simulation.compiled.compile_leaf`) and become single
``run`` ops (expression blocks ``expr`` ops).  A non-feedthrough
composite, gate or machine that a correction barrier may have to re-run
stays one ``run`` op too, stepping the subtree's own flat program so the
barrier can re-run it atomically from its tick-start state;
:meth:`FlatSchedule.ops_summary` labels such subtrees ``nested`` and
:attr:`FlatSchedule.fallback_paths` lists them.  A leaf root does not
flatten at all.

Compilation is **iterative** (an explicit stack of emission generators plus
the worklist helpers of :mod:`repro.core.components`), so hierarchies
thousands of levels deep compile and run without hitting the Python
recursion limit -- depths the recursive engines cannot even build an
initial state for.
"""

from __future__ import annotations

import functools
import time
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from ..core.components import (Component, CompositeComponent,
                               ExpressionComponent,
                               subtree_structure_tokens)
from ..core.errors import ModelError, SimulationError
from ..core.values import ABSENT
from ..notations.mtd import ModeTransitionDiagram
from ..obs.context import maybe_span
from .compiled import compile_leaf
from .engine import (ClockGatedComponent, StimulusSpec, draw_stimuli,
                     prepare_feeds)
from .trace import SimulationTrace

#: Opcodes of the flat program (tuple-encoded; executed through kernels).
(OP_RUN, OP_EXPR, OP_COPY, OP_BUF_READ, OP_BUF_WRITE, OP_GATE,
 OP_CORRECT, OP_MODE, OP_SWITCH, OP_JUMP) = range(10)

_OP_NAMES = {OP_RUN: "run", OP_EXPR: "expr", OP_COPY: "copy",
             OP_BUF_READ: "buf_read", OP_BUF_WRITE: "buf_write",
             OP_GATE: "gate", OP_CORRECT: "correct", OP_MODE: "mode",
             OP_SWITCH: "switch", OP_JUMP: "jump"}


#: An op kernel: ``(values, frame) -> jump target or None``.
Kernel = Callable[[Any, "Frame"], Optional[int]]
#: Builds the kernel of one op tuple.
KernelFactory = Callable[[Tuple[Any, ...]], Kernel]


class Frame:
    """The per-tick context op kernels read besides the slot values.

    ``prev_*`` are the tick-start leaf states and delayed buffers (never
    written, which keeps the correction barrier's re-runs trivially
    correct), ``next_*`` the ones this tick builds; ``scratch`` holds the
    input environments of correction-tracked runs for the barrier's
    compare.  ``inputs`` are the tick's boundary inputs (forensics only).
    """

    __slots__ = ("inputs", "tick", "prev_states", "next_states",
                 "prev_buffers", "next_buffers", "scratch")

    def __init__(self, inputs: Any, tick: int, prev_states: Any,
                 next_states: Any, prev_buffers: Any, next_buffers: Any,
                 scratch: List[Any]):
        self.inputs = inputs
        self.tick = tick
        self.prev_states = prev_states
        self.next_states = next_states
        self.prev_buffers = prev_buffers
        self.next_buffers = next_buffers
        self.scratch = scratch


# -- the scalar kernel table -------------------------------------------------
#
# One factory per opcode turns an op tuple into a closure over the slot
# environment.  The value model is whatever ``values`` indexes into: a list
# of Python values here, the native backend's tagged plane on the
# trampoline, one lane of the batch backend's tagged plane on its per-lane
# paths, and -- for copy / buf_read / buf_write / gate, which only move
# whole entries -- the batch plane's ``(2, lanes)`` slot blocks.


def _run_kernel(op: Tuple[Any, ...]) -> Kernel:
    _, leaf_index, fn, in_spec, out_spec, post, si = op

    def run(values: Any, frame: Frame) -> None:
        sub_inputs = {name: values[slot] for name, slot in in_spec}
        outputs, new_state = fn(sub_inputs, frame.prev_states[leaf_index],
                                frame.tick)
        frame.next_states[leaf_index] = new_state
        for name, slot in out_spec:
            values[slot] = outputs.get(name, ABSENT)
        for src, dst in post:
            values[dst] = values[src]
        if si >= 0:
            frame.scratch[si] = sub_inputs

    return run


def _expr_kernel(op: Tuple[Any, ...]) -> Kernel:
    _, _leaf, in_spec, items, post = op

    def expr(values: Any, frame: Frame) -> None:
        env = {name: values[slot] for name, slot in in_spec}
        for slot, fn in items:
            if slot >= 0:
                values[slot] = fn(env)
            else:
                fn(env)
        for src, dst in post:
            values[dst] = values[src]

    return expr


def _copy_kernel(op: Tuple[Any, ...]) -> Kernel:
    pairs = op[1]

    def copy(values: Any, frame: Frame) -> None:
        for src, dst in pairs:
            values[dst] = values[src]

    return copy


def _buf_read_kernel(op: Tuple[Any, ...]) -> Kernel:
    pairs = op[1]

    def buf_read(values: Any, frame: Frame) -> None:
        for index, dst in pairs:
            values[dst] = frame.prev_buffers[index]

    return buf_read


def _buf_write_kernel(op: Tuple[Any, ...]) -> Kernel:
    pairs = op[1]

    def buf_write(values: Any, frame: Frame) -> None:
        for src, index in pairs:
            frame.next_buffers[index] = values[src]

    return buf_write


def _gate_kernel(op: Tuple[Any, ...]) -> Kernel:
    _, present, target = op

    def gate(values: Any, frame: Frame) -> Optional[int]:
        # clock predicates see the tick only: a batch sweep gates the
        # region for every lane at once
        return None if present(frame.tick) else target

    return gate


def _correct_kernel(op: Tuple[Any, ...]) -> Kernel:
    entries = op[1]

    def correct(values: Any, frame: Frame) -> None:
        for si, leaf_index, fn, in_spec in entries:
            final = {name: values[slot] for name, slot in in_spec}
            if final != frame.scratch[si]:
                _, corrected = fn(final, frame.prev_states[leaf_index],
                                  frame.tick)
                frame.next_states[leaf_index] = corrected

    return correct


def _mode_kernel(op: Tuple[Any, ...]) -> Kernel:
    _, _machine, in_spec, table, buf, mode_slot, names = op
    absent = ABSENT

    def mode(values: Any, frame: Frame) -> None:
        # the mode index rides a delayed buffer: read the tick-start mode,
        # commit the next one; the first present-and-truthy guard wins
        current = frame.prev_buffers[buf]
        env = {name: values[slot] for name, slot in in_spec}
        for guard, target in table[current]:
            value = guard(env)
            if value is not absent and value:
                current = target
                break
        frame.next_buffers[buf] = current
        if mode_slot >= 0:
            values[mode_slot] = names[current]

    return mode


def _switch_kernel(op: Tuple[Any, ...]) -> Kernel:
    buf, cases = op[1:3]
    targets = tuple(target for _name, target in cases)

    def switch(values: Any, frame: Frame) -> int:
        return targets[frame.next_buffers[buf]]

    return switch


def _jump_kernel(op: Tuple[Any, ...]) -> Kernel:
    target = op[1]

    def jump(values: Any, frame: Frame) -> int:
        return target

    return jump


#: Opcode -> kernel factory for the scalar value model.
SCALAR_KERNELS: Dict[int, KernelFactory] = {
    OP_RUN: _run_kernel, OP_EXPR: _expr_kernel, OP_COPY: _copy_kernel,
    OP_BUF_READ: _buf_read_kernel, OP_BUF_WRITE: _buf_write_kernel,
    OP_GATE: _gate_kernel, OP_CORRECT: _correct_kernel,
    OP_MODE: _mode_kernel, OP_SWITCH: _switch_kernel, OP_JUMP: _jump_kernel}


def run_kernels(kernels: Sequence[Kernel], values: Any, frame: Frame,
                pc: int = 0, end: Optional[int] = None) -> None:
    """Execute one tick of a kernel table -- or the span ``[pc, end)`` of
    it: the driver loop of every backend that interprets the op program."""
    if end is None:
        end = len(kernels)
    while pc < end:
        jump = kernels[pc](values, frame)
        pc = pc + 1 if jump is None else jump


def switch_regions(program: Sequence[Tuple[Any, ...]],
                   index: int) -> List[Tuple[int, int, int]]:
    """The behaviour regions of the ``switch`` op at *index*:
    ``(mode index, first op, stop)`` per mode with a region, in program
    order.  Region ops run over ``[first op, stop)``; every region but the
    last is followed by a ``jump`` to the switch's end, which sits at
    ``stop``.  Raises :class:`ValueError` when the table is malformed:
    regions out of order or out of range, not contiguous from the op after
    the switch, or missing their closing jump.
    """
    _, _buf, cases, end = program[index]
    if not index < end <= len(program):
        raise ValueError(f"switch at op {index} ends at {end}, outside the "
                         f"legal range ({index + 1}..{len(program)})")
    starts = [(target, mode) for mode, (_name, target) in enumerate(cases)
              if target != end]
    regions = []
    expected = index + 1
    for position, (start, mode) in enumerate(starts):
        if start != expected:
            raise ValueError(
                f"switch at op {index}: region of mode {cases[mode][0]!r} "
                f"starts at op {start}, expected op {expected}")
        if position + 1 < len(starts):
            stop = starts[position + 1][0] - 1
            closing = program[stop] if start < stop < end else None
            if closing is None or closing[0] != OP_JUMP \
                    or closing[1] != end:
                raise ValueError(
                    f"switch at op {index}: region of mode "
                    f"{cases[mode][0]!r} is not closed by a jump to {end}")
        else:
            stop = end
            if start >= end:
                raise ValueError(
                    f"switch at op {index}: region of mode "
                    f"{cases[mode][0]!r} starts past the end ({end})")
        regions.append((mode, start, stop))
        expected = stop + 1
    return regions


def profiled_kernels(program: Sequence[Tuple[Any, ...]],
                     factories: Mapping[int, KernelFactory], profile: Any,
                     clock: Any) -> List[Kernel]:
    """The kernels of *program*, each wrapped to attribute its wall time
    and execution count to *profile*; a jump returned by a gate counts as
    a gate skip, a switch counts the region it enters per mode.
    Correction barriers are rebuilt over counting leaf steps, so re-runs
    are counted without a hook in the plain kernel."""
    counts = profile.counts
    times = profile.times
    gate_skips = profile.gate_skips

    def counted(fn: Callable[..., Any]) -> Callable[..., Any]:
        def rerun(inputs: Any, state: Any, tick: int) -> Any:
            result = fn(inputs, state, tick)
            profile.correction_reruns += 1
            return result
        return rerun

    def timed(index: int, kernel: Kernel) -> Kernel:
        def op(values: Any, frame: Frame) -> Optional[int]:
            started = clock()
            jump = kernel(values, frame)
            times[index] += clock() - started
            counts[index] += 1
            return jump
        return op

    def gated(index: int, kernel: Kernel) -> Kernel:
        def op(values: Any, frame: Frame) -> Optional[int]:
            jump = kernel(values, frame)
            if jump is not None:
                gate_skips[index] += 1
            return jump
        return timed(index, op)

    def switched(index: int, kernel: Kernel,
                 op_tuple: Tuple[Any, ...]) -> Kernel:
        buf, cases, end = op_tuple[1:4]
        entries = profile.region_entries.setdefault(
            index, {name: 0 for name, _target in cases})
        names = [name for name, _target in cases]

        def op(values: Any, frame: Frame) -> Optional[int]:
            # a lane-row switch runs its regions inside the call: keep their
            # (separately profiled) time out of the switch's own share
            inner = sum(times[index + 1:end])
            started = clock()
            jump = kernel(values, frame)
            elapsed = clock() - started
            times[index] += elapsed - (sum(times[index + 1:end]) - inner)
            counts[index] += 1
            modes = frame.next_buffers[buf]
            if type(modes) is int:
                entries[names[modes]] += 1
            else:  # a tagged lane block: every active lane enters its
                # region, its mode index the payload row
                for mode in modes[1][frame.active].astype(int).tolist():
                    entries[names[mode]] += 1
            return jump
        return op

    kernels = []
    for index, op in enumerate(program):
        code = op[0]
        if code == OP_CORRECT:
            op = (OP_CORRECT, tuple((si, leaf_index, counted(fn), in_spec)
                                    for si, leaf_index, fn, in_spec
                                    in op[1]))
        kernel = factories[code](op)
        if code == OP_GATE:
            kernels.append(gated(index, kernel))
        elif code == OP_SWITCH:
            kernels.append(switched(index, kernel, op))
        else:
            kernels.append(timed(index, kernel))
    return kernels


def profiled_ticks(run: Callable[..., Any], profile: Any,
                   clock: Any) -> Callable[..., Any]:
    """*run* (one tick of a program) wrapped to count completed ticks and
    their wall time into *profile*."""
    def tick(*args: Any) -> Any:
        started = clock()
        result = run(*args)
        profile.ticks += 1
        profile.total_time_s += clock() - started
        return result
    return tick


class FlatState:
    """Run-time state of a flat program: leaf states + delayed buffers.

    Positional: ``leaf_states[i]`` belongs to the i-th leaf of the
    schedule, ``buffers[j]`` to the j-th delayed channel.  Instances are
    treated as immutable by the step function (each tick returns a new
    one), which is what keeps the correction barrier's access to the
    tick-start state trivially correct.
    """

    __slots__ = ("leaf_states", "buffers")

    def __init__(self, leaf_states: List[Any], buffers: List[Any]):
        self.leaf_states = leaf_states
        self.buffers = buffers

    def __repr__(self) -> str:
        return (f"FlatState(leaves={len(self.leaf_states)}, "
                f"buffers={len(self.buffers)})")


#: The enclosing switch regions of an op: ``(mode buffer, mode index)``
#: per machine, outermost first -- the op runs only in those modes.
Within = Tuple[Tuple[int, int], ...]


class _Leaf:
    """One leaf step of the flat program: a ``run`` op's compiled step (a
    leaf compiler's, or a correction-barrier subtree's own flat program
    in :attr:`schedule`) or an ``expr`` op's expression block."""

    __slots__ = ("index", "component", "run_kind", "state_path", "path",
                 "mode_path", "within", "schedule")

    def __init__(self, index: int, component: Component, run_kind: str,
                 state_path: Tuple[str, ...], path: str, mode_path: str,
                 within: Within, schedule: Any = None):
        self.index = index
        self.component = component
        self.run_kind = run_kind
        self.state_path = state_path
        self.path = path
        self.mode_path = mode_path
        self.within = within
        self.schedule = schedule

    def initial_state(self) -> Any:
        if self.schedule is None:
            return self.component.initial_state()
        return self.schedule.initial_state()


class _Machine:
    """One MTD lowered to a ``mode`` op plus a ``switch`` over its
    flattened mode-behaviour regions.  The current mode is an int index
    into :attr:`names`, kept in delayed buffer :attr:`buffer`."""

    __slots__ = ("component", "path", "names", "buffer", "state_path",
                 "mode_path", "within")

    def __init__(self, component: ModeTransitionDiagram, path: str,
                 buffer: int, state_path: Tuple[str, ...], mode_path: str,
                 within: Within):
        self.component = component
        self.path = path
        self.names = tuple(component.mode_names())
        self.buffer = buffer
        self.state_path = state_path
        self.mode_path = mode_path
        self.within = within

    def label(self) -> str:
        return (f"{self.path} [{len(self.names)} modes, "
                f"{len(self.component.transitions())} transitions]")


def is_flattenable(component: Component) -> bool:
    """True if *component* roots a hierarchy the flattener compiles.

    Flattenable roots are clock-gated wrappers, composites and
    mode-transition diagrams, each with the default ``react``.  Everything
    else -- STDs, atomic and expression blocks, subclasses with a custom
    ``react`` -- is a leaf: at the root it compiles to its leaf step
    (:func:`~repro.simulation.compiled.compile_leaf`), inside a hierarchy
    to one ``run`` (or ``expr``) op.
    """
    if isinstance(component, ClockGatedComponent):
        return type(component).react is ClockGatedComponent.react
    if isinstance(component, CompositeComponent):
        return type(component).react is CompositeComponent.react
    return isinstance(component, ModeTransitionDiagram) \
        and type(component).react is ModeTransitionDiagram.react


def _is_expression_block(component: Component) -> bool:
    return isinstance(component, ExpressionComponent) \
        and type(component).react is ExpressionComponent.react


@functools.lru_cache(maxsize=None)
def _state_walk() -> Callable[..., Any]:
    """:func:`repro.scenarios.report.active_mode_paths` -- the mode walk of
    interpreter and leaf-step states -- imported once, on first use (the
    scenarios package imports this one)."""
    from ..scenarios.report import active_mode_paths
    return active_mode_paths


def _dig(state: Any, path: Tuple[str, ...]) -> Any:
    """Navigate an interpreter state dict along *path* (None-tolerant)."""
    current = state
    for key in path:
        if not isinstance(current, Mapping):
            return None
        current = current.get(key)
    return current


class _Flattener:
    """One compile pass: hierarchy -> (ops, slots, leaves, buffers).

    Emission is driven by an explicit stack of generators (one per
    composite, gate or machine being flattened), so compilation of
    arbitrarily deep hierarchies never recurses in Python.  A single
    structure-token map and instantaneous-dependency cache are shared
    across every execution-plan build of the pass, keeping the whole
    compile O(n).  *steps_path* and *mode_path* name the root in the
    enclosing hierarchy when the pass compiles a correction-barrier
    subtree (its own name otherwise), so the subtree's steps and mode
    paths read as part of the whole.
    """

    def __init__(self, root: Component, steps_path: Optional[str] = None,
                 mode_path: Optional[str] = None):
        self.root = root
        self.steps_path = steps_path or root.name
        self.mode_path = mode_path or root.name
        self.n_slots = 0
        self.slot_names: List[str] = []
        self.ops: List[List[Any]] = []
        self.leaves: List[_Leaf] = []
        #: per delayed channel: (initial value, owner state path, channel name)
        self.buffer_specs: List[Tuple[Any, Tuple[str, ...], str]] = []
        self.scratch_count = 0
        self.fallback_paths: List[str] = []
        self.machines: List[_Machine] = []
        #: switch regions enclosing the ops being emitted
        self._within: Within = ()
        self._linear: List[Tuple[str, str]] = []
        self._deps_cache: Dict[int, Any] = {}
        self._tokens: Dict[int, Any] = {}

    # -- slot allocation ---------------------------------------------------

    def _new_slot(self, label: str) -> int:
        slot = self.n_slots
        self.n_slots += 1
        self.slot_names.append(label)
        return slot

    def _port_slots(self, component: Component,
                    prefix: str) -> Dict[str, int]:
        return {port.name: self._new_slot(f"{prefix}.{port.name}")
                for port in component.ports()}

    # -- emission ----------------------------------------------------------

    def flatten(self) -> "FlatSchedule":
        root = self.root
        in_slots = {name: self._new_slot(f"{self.steps_path}.{name}")
                    for name in root.input_names()}
        out_slots = {name: self._new_slot(f"{self.steps_path}.{name}")
                     for name in root.output_names()}
        stack: List[Iterator[Any]] = [self._emit_node(
            root, in_slots, out_slots, (), self.steps_path, self.mode_path)]
        while stack:
            try:
                child = next(stack[-1])
            except StopIteration:
                stack.pop()
            else:
                if child is not None:
                    stack.append(child)
        program = tuple(map(tuple, self._merge_copies(self.ops)))
        input_spec = tuple(in_slots.items())
        output_spec = tuple(out_slots.items())
        return FlatSchedule(root, program, self.n_slots, input_spec,
                            output_spec, self.leaves, self.buffer_specs,
                            self.scratch_count, self._linear,
                            self.fallback_paths, tuple(self.slot_names),
                            self.machines, self.mode_path)

    def _merge_copies(self, ops: List[List[Any]]) -> List[List[Any]]:
        """Peephole pass: fuse adjacent ``copy`` ops into one.

        Boundary-output collection of a flattened child followed by the
        parent's channel propagation emits back-to-back copy ops; copies
        execute strictly in order, so fusing the pair lists is behaviour-
        preserving and saves one dispatch per composite boundary per tick.
        A copy that is a jump target is never fused into its predecessor;
        gate, switch and jump targets are then renumbered.
        """
        if not any(op[0] == OP_COPY and ops[index - 1][0] == OP_COPY
                   for index, op in enumerate(ops) if index):
            return ops  # nothing to fuse (machine-only programs, say)
        jump_targets = set()
        for op in ops:
            if op[0] in (OP_GATE, OP_JUMP):
                jump_targets.add(op[-1])
            elif op[0] == OP_SWITCH:
                jump_targets.update(target for _name, target in op[2])
                jump_targets.add(op[3])
        merged: List[List[Any]] = []
        renumber: List[int] = []  # original op index -> merged index
        for index, op in enumerate(ops):
            if op[0] == OP_COPY and merged and merged[-1][0] == OP_COPY \
                    and index not in jump_targets:
                merged[-1][1] = merged[-1][1] + op[1]
                renumber.append(len(merged) - 1)
                continue
            renumber.append(len(merged))
            merged.append(op)
        renumber.append(len(merged))  # jump past the end
        for op in merged:
            if op[0] in (OP_GATE, OP_JUMP):
                op[-1] = renumber[op[-1]]
            elif op[0] == OP_SWITCH:
                op[2] = tuple((name, renumber[target])
                              for name, target in op[2])
                op[3] = renumber[op[3]]
        return merged

    def _emit_node(self, component: Component, in_slots: Dict[str, int],
                   out_slots: Dict[str, int], state_path: Tuple[str, ...],
                   steps_path: str, mode_path: str,
                   post: Tuple[Tuple[int, int], ...] = (),
                   corrections: Optional[List[Any]] = None
                   ) -> Optional[Iterator[Any]]:
        """Emit the ops of *component* -- the root, a composite entry, a
        mode's behaviour or a gate's inner component -- whose input and
        output ports map, in port order, to *in_slots* / *out_slots*; then
        *post*, the slot copies forwarding its outputs.

        A gate becomes a ``gate`` op over its inner component's region, a
        composite its section and a machine ``mode``/``switch`` ops over
        its mode regions: for these the generator emitting them is
        returned, for :meth:`flatten`'s stack to drive.  An expression
        block becomes an ``expr`` op and anything else one ``run`` op of
        its leaf step, emitted at once (``None`` is returned).
        *corrections* is the enclosing composite's barrier list when that
        barrier may have to re-run the node: the node then stays one
        correction-tracked ``run`` op -- over its own flat program, when
        it has one -- so it re-runs atomically from its tick-start state,
        exactly like the reference interpreter's second pass.
        """
        flattenable = is_flattenable(component)
        if flattenable and corrections is None:
            if isinstance(component, ClockGatedComponent):
                emit = self._emit_gate
            elif isinstance(component, CompositeComponent):
                emit = self._emit_composite
            else:
                emit = self._emit_machine
            return emit(component, in_slots, out_slots, state_path,
                        steps_path, mode_path, post)
        if _is_expression_block(component):
            run_kind, schedule = "expr", None
        elif flattenable:
            run_kind = "nested"
            schedule = _Flattener(component, steps_path, mode_path).flatten()
        else:
            schedule = compile_leaf(component)
            run_kind = schedule.kind
        leaf = _Leaf(len(self.leaves), component, run_kind, state_path,
                     steps_path, mode_path, self._within, schedule)
        self.leaves.append(leaf)
        in_spec = tuple(in_slots.items())
        if schedule is None:
            # evaluate the compiled closures straight into the slots: no
            # step call, no output dict, and no correction tracking -- the
            # state is a passthrough and a non-feedthrough expression reads
            # none of the inputs a late producer could change.  Expressions
            # for undeclared ports (or the machine's own mode port) are
            # still evaluated, since evaluation may raise, but land nowhere.
            self._linear.append((steps_path, "atomic"))
            compiler = component._evaluator.compile  # noqa: SLF001
            items = tuple((out_slots.get(name, -1), compiler(expression))
                          for name, expression
                          in component.output_expressions.items())
            self.ops.append([OP_EXPR, leaf.index, in_spec, items, post])
            return None
        if flattenable:
            self.fallback_paths.append(steps_path)
            self._linear.extend(schedule.linear_steps())
        else:
            self._linear.append((steps_path, run_kind))
        scratch = -1
        if corrections is not None:
            scratch = self.scratch_count
            self.scratch_count += 1
            corrections.append((scratch, leaf.index, schedule.step, in_spec))
        self.ops.append([OP_RUN, leaf.index, schedule.step, in_spec,
                         tuple(out_slots.items()), post, scratch])
        return None

    def _emit_gate(self, gate: ClockGatedComponent, in_slots: Dict[str, int],
                   out_slots: Dict[str, int], state_path: Tuple[str, ...],
                   steps_path: str, mode_path: str,
                   post: Tuple[Tuple[int, int], ...]) -> Iterator[Any]:
        """Emit a ``gate`` op jumping over the inner component's region
        when the clock is silent.  The wrapper's ports *are* the inner
        ones, so the slots are aliased: a skipped region leaves the shared
        output slots absent, its leaf states and buffers unchanged."""
        self._linear.append((steps_path, "gated"))
        op = [OP_GATE, gate.clock.cached().at, -1]
        self.ops.append(op)
        inner = gate.inner
        yield self._emit_node(inner, in_slots, out_slots,
                              state_path + ("inner",),
                              f"{steps_path}/{inner.name}", mode_path)
        op[2] = len(self.ops)  # jump target: the first op after the region
        if post:
            self.ops.append([OP_COPY, post])

    def _emit_composite(self, composite: CompositeComponent,
                        in_slots: Dict[str, int], out_slots: Dict[str, int],
                        state_path: Tuple[str, ...], steps_path: str,
                        mode_path: str,
                        post: Tuple[Tuple[int, int], ...]) -> Iterator[Any]:
        self._linear.append((steps_path, "composite"))
        token = self._tokens.get(id(composite))
        if token is None:
            self._tokens.update(subtree_structure_tokens(composite))
            token = self._tokens[id(composite)]
        plan = composite.execution_plan(_token=token,
                                        _deps_cache=self._deps_cache)

        port_slots: Dict[str, Dict[str, int]] = {}
        subs: Dict[str, Component] = {}
        for entry in plan.entries:
            sub = composite.subcomponent(entry.name)
            subs[entry.name] = sub
            port_slots[entry.name] = self._port_slots(
                sub, f"{steps_path}/{entry.name}")

        def slot_of(key: Tuple[Optional[str], str]) -> int:
            comp, port = key
            if comp is None:
                slot = in_slots.get(port)
                return out_slots[port] if slot is None else slot
            return port_slots[comp][port]

        # delayed channels: allocate buffers, seed destination slots
        buf_index: Dict[str, int] = {}
        seed_pairs = []
        for channel_name, dst_key, initial in plan.delayed_seed:
            buf_index[channel_name] = index = len(self.buffer_specs)
            self.buffer_specs.append((initial, state_path, channel_name))
            seed_pairs.append((index, slot_of(dst_key)))
        if seed_pairs:
            self.ops.append([OP_BUF_READ, tuple(seed_pairs)])

        # instantaneous boundary-input forwarding
        boundary_pairs = tuple((slot_of(src), slot_of(dst))
                               for src, dst in plan.boundary_propagate)
        if boundary_pairs:
            self.ops.append([OP_COPY, boundary_pairs])

        # Which entries can still receive input values *after* they ran?
        # Only then can the tick-start state update have seen stale inputs,
        # i.e. only then is the correction barrier live.  An entry whose
        # producers all precede it in plan order always sees final inputs,
        # so the reference interpreter's compare-and-rerun provably never
        # fires for it: such entries need no correction tracking, and
        # non-feedthrough composites, gates and machines among them can be
        # flattened instead of running as one atomic step.
        n_entries = len(plan.entries)
        has_late_producer = [False] * n_entries
        suffix_writes: set = set()
        for index in range(n_entries - 1, -1, -1):
            entry = plan.entries[index]
            suffix_writes |= {dst[0] for _, dst in entry.propagate
                              if dst[0] is not None}
            has_late_producer[index] = entry.name in suffix_writes

        # sub-components in plan order, then the correction barrier for
        # the non-feedthrough entries with live late producers.  Flattened
        # entries are not behaviour-checked here: their own sections check
        # their entries, keeping the whole compile O(n) in hierarchy size.
        corrections: List[Any] = []
        for index, entry in enumerate(plan.entries):
            sub = subs[entry.name]
            barrier = not entry.has_feedthrough and has_late_producer[index]
            if (barrier or not is_flattenable(sub)) \
                    and not sub.has_behavior():
                raise SimulationError(
                    f"sub-component {entry.name!r} of {composite.name!r} has "
                    f"no executable behaviour")
            slots = port_slots[entry.name]
            yield self._emit_node(
                sub, {name: slots[name] for name in sub.input_names()},
                {name: slots[name] for name in sub.output_names()},
                state_path + ("subs", entry.name),
                f"{steps_path}/{entry.name}", f"{mode_path}/{entry.name}",
                tuple((slot_of(src), slot_of(dst))
                      for src, dst in entry.propagate),
                corrections if barrier else None)
        if corrections:
            self.ops.append([OP_CORRECT, tuple(corrections)])

        # boundary-output collection, then delayed commits
        out_copy, out_buf = [], []
        for port_name, is_delayed, channel_name, _initial, src_key \
                in plan.boundary_outputs:
            if is_delayed:
                out_buf.append((buf_index[channel_name], out_slots[port_name]))
            else:
                out_copy.append((slot_of(src_key), out_slots[port_name]))
        if out_copy:
            self.ops.append([OP_COPY, tuple(out_copy)])
        if out_buf:
            self.ops.append([OP_BUF_READ, tuple(out_buf)])
        commit_pairs = tuple((slot_of(src_key), buf_index[channel_name])
                             for channel_name, src_key in plan.delayed_commit)
        if commit_pairs:
            self.ops.append([OP_BUF_WRITE, commit_pairs])
        if post:
            self.ops.append([OP_COPY, post])

    def _emit_machine(self, mtd: ModeTransitionDiagram,
                      in_slots: Dict[str, int], out_slots: Dict[str, int],
                      state_path: Tuple[str, ...], steps_path: str,
                      mode_path: str,
                      post: Tuple[Tuple[int, int], ...]) -> Iterator[Any]:
        """Emit a ``mode`` op, a ``switch`` and one region per mode with a
        behaviour, the regions separated by ``jump`` ops to the end.

        Mode-behaviour ports alias the machine's slots (a region writes the
        machine's outputs directly; only the active region runs, so every
        other output stays absent); a behaviour port the machine does not
        declare -- or the machine's own ``mode`` port -- gets a slot of its
        own, so an undeclared input reads absent and such an output lands
        nowhere.  Each region's leaf states and buffers simply carry over
        while another mode is active.
        """
        modes = mtd.modes()
        if not modes:
            raise ModelError(f"MTD {mtd.name!r} has no modes")
        self._linear.append((steps_path, "mtd"))
        names = tuple(mtd.mode_names())
        index_of = {name: index for index, name in enumerate(names)}
        buffer = len(self.buffer_specs)
        self.buffer_specs.append((index_of[mtd.initial_mode], state_path,
                                  mtd.MODE_PORT))
        machine = _Machine(mtd, steps_path, buffer, state_path, mode_path,
                           self._within)
        self.machines.append(machine)
        compiler = mtd._evaluator.compile  # noqa: SLF001 - same evaluator
        table = tuple(
            tuple((compiler(transition.guard), index_of[transition.target])
                  for transition in mtd.transitions_from(name))
            for name in names)
        self.ops.append([OP_MODE, len(self.machines) - 1,
                         tuple(in_slots.items()), table, buffer,
                         out_slots.get(mtd.MODE_PORT, -1), names])
        switch = [OP_SWITCH, buffer, [], -1]
        self.ops.append(switch)
        outputs = {name: slot for name, slot in out_slots.items()
                   if name != mtd.MODE_PORT}
        starts: List[Optional[int]] = []
        exits = []
        outer = self._within
        for index, mode in enumerate(modes):
            behavior = mode.behavior
            if behavior is None:
                starts.append(None)
                continue
            if starts.count(None) < len(starts):  # a region precedes
                exit_jump = [OP_JUMP, -1]
                self.ops.append(exit_jump)
                exits.append(exit_jump)
            starts.append(len(self.ops))
            path = f"{steps_path}/{behavior.name}"
            region_in: Dict[str, int] = {}
            region_out: Dict[str, int] = {}
            for port in behavior.ports():
                name = port.name
                slots, region = (in_slots, region_in) if port.is_input() \
                    else (outputs, region_out)
                slot = slots.get(name)
                region[name] = self._new_slot(f"{path}.{name}") \
                    if slot is None else slot
            self._within = outer + ((buffer, index),)
            yield self._emit_node(
                behavior, region_in, region_out,
                state_path + ("mode_states", mode.name), path,
                f"{mode_path}/{mode.name}")
            self._within = outer
            if len(self.ops) == starts[-1]:
                # a behaviour without ops: the mode jumps to the end
                starts[-1] = None
                if exits and exits[-1] is self.ops[-1]:
                    self.ops.pop()
                    exits.pop()
        end = len(self.ops)
        switch[2] = [(name, end if start is None else start)
                     for name, start in zip(names, starts)]
        switch[3] = end
        for exit_jump in exits:
            exit_jump[1] = end
        if post:
            self.ops.append([OP_COPY, post])


class FlatSchedule:
    """A component hierarchy compiled into one linear slot program.

    Shares the contract of the leaf schedules
    (:class:`~repro.simulation.compiled.CompiledSchedule`): ``step`` has
    the ``(inputs, state, tick) -> (outputs, state)`` signature (state as
    :class:`FlatState`, with interpreter dict states converted on entry),
    and :meth:`linear_steps` / :meth:`describe` name every node by its
    hierarchical path and kind, so debug output and path-keyed reports are
    stable across backends.  The IR itself is inspectable through
    :meth:`ops_summary`.  :meth:`run_horizon` runs a whole scenario at
    once -- the same trace as driving :attr:`step` tick by tick, without
    the per-tick dicts.
    """

    kind = "flat"

    def __init__(self, component: Component, program: Tuple[Tuple[Any, ...], ...],
                 n_slots: int, input_spec: Tuple[Tuple[str, int], ...],
                 output_spec: Tuple[Tuple[str, int], ...],
                 leaves: List[_Leaf],
                 buffer_specs: List[Tuple[Any, Tuple[str, ...], str]],
                 scratch_count: int, linear: List[Tuple[str, str]],
                 fallback_paths: List[str],
                 slot_names: Tuple[str, ...] = (),
                 machines: Sequence[_Machine] = (),
                 mode_path: Optional[str] = None):
        self.component = component
        #: the root's mode path: its name, or its path in the enclosing
        #: hierarchy for a correction-barrier sub-program
        self._mode_path = mode_path or component.name
        self.program = program
        self.n_slots = n_slots
        self.leaves = leaves
        self.buffer_specs = buffer_specs
        self.fallback_paths = fallback_paths
        #: the MTDs lowered to ``mode``/``switch`` ops, in program order
        self.machines = list(machines)
        #: mode_paths sources in program order: lowered machines, and the
        #: run leaves whose state may hold machines
        self._mode_sources = [
            self.machines[op[1]] if op[0] == OP_MODE else leaves[op[1]]
            for op in program if op[0] in (OP_MODE, OP_RUN)]
        #: ``state -> mode name`` of an MTD root (its trace's
        #: ``mode_history``); None for every other root
        self.root_mode: Optional[Callable[[FlatState], Any]] = None
        if self.machines and not self.machines[0].state_path:
            names, buffer = self.machines[0].names, self.machines[0].buffer
            self.root_mode = lambda state: names[state.buffers[buffer]]
        #: hierarchical ``path.port`` label per slot (forensics decoding)
        self.slot_names = slot_names
        #: ``(port_name, slot)`` pairs scattered from the inputs each tick
        self.input_spec = input_spec
        #: ``(port_name, slot)`` pairs gathered into the outputs each tick
        self.output_spec = output_spec
        self._scratch_count = scratch_count
        self._linear = linear
        #: only run ops (the leaves with a step) write leaf states, so a
        #: program without them shares one leaf-state list across ticks
        self._writes_states = any(leaf.schedule is not None
                                  for leaf in leaves)
        #: the scalar kernel table, index-aligned with :attr:`program`
        self.kernels = [SCALAR_KERNELS[op[0]](op) for op in program]
        self.step = self._drive(self.kernels)
        #: the step :meth:`run_horizon` stands for: a caller driving
        #: another step (a wrapper, an observing variant) runs per tick
        self.own_step = self.step

    # -- state -------------------------------------------------------------

    def initial_state(self) -> FlatState:
        """The flat initial state (built iteratively: deep-hierarchy safe)."""
        return FlatState([leaf.initial_state() for leaf in self.leaves],
                         [spec[0] for spec in self.buffer_specs])

    def _convert_state(self, state: Any) -> FlatState:
        """Adopt an interpreter state dict (or ``None``) as a FlatState."""
        if state is None:
            return self.initial_state()
        leaf_states = [_dig(state, leaf.state_path) for leaf in self.leaves]
        buffers = []
        for initial, state_path, channel_name in self.buffer_specs:
            delayed = _dig(state, state_path + ("delayed",))
            buffers.append(delayed.get(channel_name, initial)
                           if isinstance(delayed, Mapping) else initial)
        for machine in self.machines:
            # a machine's buffer holds the index of its state's ``mode``
            name = _dig(state, machine.state_path + ("mode",))
            if name:
                buffers[machine.buffer] = machine.names.index(name)
        return FlatState(leaf_states, buffers)

    # -- the step function and its variants --------------------------------

    def _drive(self, kernels: List[Kernel]):
        """A ``(inputs, state, tick) -> (outputs, state)`` step executing
        *kernels*: every flat step variant is this one function over a
        differently wrapped kernel table."""
        n_slots = self.n_slots
        n_scratch = self._scratch_count
        input_spec = self.input_spec
        output_spec = self.output_spec
        convert = self._convert_state
        absent = ABSENT
        writes_states = self._writes_states

        def step(inputs: Mapping[str, Any], state: Any,
                 tick: int) -> Tuple[Dict[str, Any], Any]:
            if type(state) is not FlatState:
                state = convert(state)
            values = [absent] * n_slots
            for name, slot in input_spec:
                values[slot] = inputs.get(name, absent)
            leaf_states = state.leaf_states
            frame = Frame(inputs, tick, leaf_states,
                          leaf_states[:] if writes_states else leaf_states,
                          state.buffers, state.buffers[:], [None] * n_scratch)
            run_kernels(kernels, values, frame)
            outputs = {}
            for name, slot in output_spec:
                outputs[name] = values[slot]
            return outputs, FlatState(frame.next_states, frame.next_buffers)

        return step

    def run_horizon(self, stimuli: Optional[Mapping[str, StimulusSpec]],
                    ticks: int,
                    histories: Optional[Dict[str, List[Any]]] = None
                    ) -> SimulationTrace:
        """Run one scenario from the initial state over its whole horizon.

        The trace -- and every error: exception type, message and tick --
        equals :func:`~repro.simulation.engine.run_stepped` over
        :attr:`step` without type checks, but no per-tick input or output
        dict is built: the stimuli are drawn once into per-port columns
        (:func:`~repro.simulation.engine.draw_stimuli`; a draw that raises
        at tick *k* is held until ticks ``0 .. k-1`` have run), each tick
        scatters its column entries into the slots, runs the kernels and appends the
        output slots to per-port columns, and the trace is built from the
        columns.

        With *histories*, the active mode of every machine is appended per
        tick under its hierarchical path -- the per-tick
        :meth:`mode_paths` of the state each tick leaves, as
        :func:`~repro.scenarios.runner.execute_scenario` collects them.
        """
        feeds = prepare_feeds(self.component, stimuli, ticks)
        drawn, horizon, failure = draw_stimuli(feeds, ticks)
        column_of = {name: column
                     for (name, _feed), column in zip(feeds, drawn)}
        inputs = tuple((column_of[name], slot) for name, slot
                       in self.input_spec if name in column_of)
        columns: List[List[Any]] = [[] for _spec in self.output_spec]
        outputs = tuple((column.append, slot) for column, (_name, slot)
                        in zip(columns, self.output_spec))
        kernels = self.kernels
        n_slots = self.n_slots
        n_scratch = self._scratch_count
        writes_states = self._writes_states
        absent = ABSENT
        modes: List[Any] = []
        root_names = root_buffer = None
        if self.root_mode is not None:
            root_names = self.machines[0].names
            root_buffer = self.machines[0].buffer
        observe = None if histories is None \
            else self._history_recorder(histories)
        state = self.initial_state()
        states, buffers = state.leaf_states, state.buffers
        for tick in range(horizon):
            values = [absent] * n_slots
            for column, slot in inputs:
                values[slot] = column[tick]
            next_states = states[:] if writes_states else states
            next_buffers = buffers[:]
            run_kernels(kernels, values,
                        Frame(None, tick, states, next_states, buffers,
                              next_buffers, [None] * n_scratch))
            for append, slot in outputs:
                append(values[slot])
            if root_names is not None:
                modes.append(root_names[next_buffers[root_buffer]])
            if observe is not None:
                observe(next_states, next_buffers)
            states, buffers = next_states, next_buffers
        if failure is not None:
            raise failure
        return SimulationTrace.from_columns(
            self.component.name, ticks, column_of,
            {name: column
             for (name, _slot), column in zip(self.output_spec, columns)},
            modes)

    def _history_recorder(self, histories: Dict[str, List[Any]]
                          ) -> Callable[[List[Any], List[Any]], None]:
        """``(leaf states, buffers) -> None`` appending one tick's active
        modes to *histories*, in :meth:`mode_paths` order: lowered machines
        straight from their mode buffers, run leaves through their
        :meth:`mode_paths` walk.  Only sources of active regions report."""
        sources = [(source.within, source.mode_path, source.names,
                    source.buffer, None) if type(source) is _Machine
                   else (source.within, None, None, source.index, source)
                   for source in self._mode_sources]
        walk = self._leaf_modes
        record = histories.setdefault

        def observe(states: List[Any], buffers: List[Any]) -> None:
            for within, path, names, index, leaf in sources:
                if within and any(buffers[outer] != mode
                                  for outer, mode in within):
                    continue
                if leaf is None:
                    record(path, []).append(names[buffers[index]])
                    continue
                out: Dict[str, Any] = {}
                walk(leaf, states[index], out)
                for key, mode in out.items():
                    record(key, []).append(mode)

        return observe

    def instrumented_step(self, profile: Any,
                          clock: Any = time.perf_counter):
        """An instrumented variant of :attr:`step` recording into *profile*.

        The same driver over :func:`profiled_kernels`: per op executed,
        execution count and wall time; per gate, skip counts; per
        correction barrier, re-run counts; per tick, total step time.  The
        default :attr:`step` closure is left untouched -- swapping the step
        function in and out is the whole zero-overhead-when-off mechanism,
        there is no profiling branch on the uninstrumented path.
        """
        return profiled_ticks(self._drive(profiled_kernels(
            self.program, SCALAR_KERNELS, profile, clock)), profile, clock)

    def recording_step(self, recorder: Any):
        """A flight-recording variant of :attr:`step` feeding *recorder*.

        The same driver over wrapped kernels: tick 0 resets the recorder's
        window (a new scenario owns it); an op that raises records the
        tick, op index, partial slot environment and inputs, then the
        exception propagates unchanged; one extra kernel past the last op,
        where every path through the program ends, snapshots each
        completed tick into the ring.  The default :attr:`step` closure is
        untouched -- same swap-in discipline as :meth:`instrumented_step`.
        """
        begin_run = recorder.begin_run
        record_tick = recorder.record_tick
        record_failure = recorder.record_failure

        def recorded(index: int, kernel: Kernel) -> Kernel:
            def op(values: Any, frame: Frame) -> Optional[int]:
                try:
                    return kernel(values, frame)
                except Exception as exc:  # noqa: BLE001 - re-raised
                    record_failure(frame.tick, index, values, frame.inputs,
                                   exc)
                    raise
            return op

        def snapshot(values: Any, frame: Frame) -> None:
            record_tick(frame.tick, values)

        run = self._drive([recorded(index, kernel) for index, kernel
                           in enumerate(self.kernels)] + [snapshot])

        def step(inputs: Mapping[str, Any], state: Any,
                 tick: int) -> Tuple[Dict[str, Any], Any]:
            if tick == 0:
                begin_run()
            return run(inputs, state, tick)

        return step

    # -- introspection -----------------------------------------------------

    def linear_steps(self, prefix: str = "") -> List[Tuple[str, str]]:
        """The flattened schedule: ``(hierarchical path, kind)`` per node.

        Kinds are ``composite``, ``gated``, ``mtd``, ``std`` and
        ``atomic``, in emission order, with the naming format of
        :meth:`~repro.simulation.compiled.CompiledSchedule.linear_steps`
        (pinned in ``tests/test_flat_schedule.py``).
        """
        if not prefix:
            return list(self._linear)
        return [(f"{prefix}/{path}", kind) for path, kind in self._linear]

    def describe(self) -> str:
        """Human-readable rendering of the flattened schedule."""
        return "\n".join(f"{kind:>10}  {path}"
                         for path, kind in self.linear_steps())

    def op_labels(self) -> List[Tuple[str, str, bool]]:
        """Per-op descriptors for :class:`repro.obs.profile.OpProfile`:
        ``(kind name, human label, runs-on-nested-fallback)``.

        ``run``/``expr`` labels name the leaf's hierarchical path and
        compilation kind (``nested`` marks a correction-barrier subtree
        running as one step of its own flat program); ``mode`` labels name
        the machine with its mode and transition counts; ``gate``,
        ``switch`` and ``jump`` labels show their jump targets.
        The nested flag lets profiles report fallback activity without
        re-deriving it.
        """
        labels: List[Tuple[str, str, bool]] = []
        for op in self.program:
            code = op[0]
            nested = False
            if code == OP_MODE:
                label = self.machines[op[1]].label()
            elif code == OP_SWITCH:
                label = ", ".join(f"{name} -> {target}"
                                  for name, target in op[2]) \
                    + f"; end {op[3]}"
            elif code == OP_JUMP:
                label = f"-> {op[1]}"
            elif code in (OP_RUN, OP_EXPR):
                leaf = self.leaves[op[1]]
                label = f"{leaf.path} [{leaf.run_kind}]"
                if code == OP_RUN and op[6] >= 0:
                    label += " (correction-tracked)"
                nested = leaf.run_kind == "nested"
            elif code == OP_GATE:
                label = f"-> {op[2]} when clock silent"
            elif code == OP_CORRECT:
                label = f"{len(op[1])} barrier entr" \
                        f"{'y' if len(op[1]) == 1 else 'ies'}"
            else:
                label = f"{len(op[1])} pair{'s' if len(op[1]) != 1 else ''}"
            labels.append((_OP_NAMES[code], label, nested))
        return labels

    def ops_summary(self) -> List[str]:
        """One line per op of the flat program (the IR view): index, kind
        and the :meth:`op_labels` label."""
        return [f"{index:>4} {kind:>9}  {label}"
                for index, (kind, label, _nested)
                in enumerate(self.op_labels())]

    def mode_paths(self, state: Any) -> Dict[str, Any]:
        """Active mode/state of every MTD and STD, keyed by hierarchical path.

        The flat-engine counterpart of
        :func:`repro.scenarios.report.active_mode_paths`: identical paths
        and values, read positionally from the flat state instead of
        walking nested dicts.
        """
        out: Dict[str, Any] = {}
        if state is not None:
            self._collect_modes(state, out)
        return out

    def _collect_modes(self, state: Any, out: Dict[str, Any]) -> None:
        if type(state) is not FlatState:
            _state_walk()(self.component, state, self._mode_path, out)
            return
        buffers = state.buffers
        leaf_states = state.leaf_states
        for source in self._mode_sources:
            # only the machines of active mode regions report, exactly like
            # the nested walk descends into the active mode only
            if source.within and any(buffers[buffer] != mode
                                     for buffer, mode in source.within):
                continue
            if type(source) is _Machine:
                out[source.mode_path] = source.names[buffers[source.buffer]]
            else:
                self._leaf_modes(source, leaf_states[source.index], out)

    @staticmethod
    def _leaf_modes(leaf: _Leaf, state: Any, out: Dict[str, Any]) -> None:
        """The machines in the state of run leaf *leaf* into *out*."""
        if type(leaf.schedule) is FlatSchedule:
            leaf.schedule._collect_modes(state, out)  # noqa: SLF001
        else:
            _state_walk()(leaf.component, state, leaf.mode_path, out)

    def __repr__(self) -> str:
        return (f"FlatSchedule({self.component.name!r}, "
                f"ops={len(self.program)}, slots={self.n_slots}, "
                f"leaves={len(self.leaves)})")


def compile_flat(component: Component) -> FlatSchedule:
    """Compile *component* into a :class:`FlatSchedule`.

    Raises :class:`SimulationError` if the root is a leaf (use
    :func:`~repro.simulation.compiled.compile_component`, which compiles
    leaf roots to their leaf step).
    """
    if not is_flattenable(component):
        raise SimulationError(
            f"component {component.name!r} ({type(component).__name__}) is "
            "not flattenable: the flat schedule IR requires a composite, "
            "clock-gated or mode-transition root with the default "
            "synchronous react")
    with maybe_span("compile.flatten", component=component.name) as span:
        schedule = _Flattener(component).flatten()
        if span is not None:
            span.attributes.update(ops=len(schedule.program),
                                   slots=schedule.n_slots,
                                   leaves=len(schedule.leaves),
                                   fallbacks=len(schedule.fallback_paths))
    return schedule
