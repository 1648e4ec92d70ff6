"""Lowering a flat schedule's op program to one C function over a horizon.

The whole flat program becomes a single translation unit exporting one
entry point

.. code-block:: c

    long long repro_run(repro_frame *frame, long long ticks);

which runs the op program for *ticks* consecutive ticks over a
``repro_frame`` of planes the driver fills in per call: the same fixed
slot plane the flat interpreter uses, encoded as three parallel arrays
(tag / int64 payload / double payload; the
:data:`~repro.ascet.c_expr.TAG_OBJ` payload indexes a per-call Python
object table, so opaque values still *copy* natively), the
previous/next delayed-buffer planes ``pb*``/``nb*`` (a lowered machine's
current mode is an int64 entry there), the input columns ``in_*`` (one
row of input ports per tick), ``gate`` (one row of pre-evaluated gate
predicates per tick: clock patterns depend on the tick only), the output
plane ``out_*`` (one row of output ports per tick), ``modes`` (an MTD
root's committed mode per tick) and ``tramp``, the ctypes callback
through which any op the emitter did not (or at run time cannot) lower
exactly is replayed through the original Python closures.

**The horizon protocol**, per tick ``k``: store ``k`` in ``frame->tick``
(the trampoline's Python frame reads it); on the first tick seed the next
buffers from the previous ones the driver stored (or, with ``warm`` set,
take the previous tick's next buffers -- every later tick does); clear
the slot plane and scatter input row ``k``; run the op program; gather
the outputs into output row ``k`` and the root mode into ``modes[k]``;
advance the input, gate and output rows.  One foreign call thus runs a
whole scenario, and the per-tick driver is the ``ticks == 1`` case.
Eager expression templates are static helper functions ahead of the
entry point (:meth:`~repro.ascet.c_expr.TaggedEmitter._helper`), which
keeps its body, and the C compiler's time, small.

Lowering decisions per op:

* ``copy`` / ``buf_read`` / ``buf_write`` / ``gate`` / ``switch`` /
  ``jump`` -- always native (tag-triple moves, a table jump, a C
  ``switch`` on the committed mode index and a ``goto``);
* ``expr`` -- native when :class:`~repro.ascet.c_expr.TaggedEmitter`
  lowers every item expression (:func:`~repro.ascet.c_expr.lowers`
  decides it from the AST, :func:`expr_op_lowers` for the op) *and* the lint
  interval×kind lattice proves no enum/struct value flows through it
  (:func:`repro.analysis.lint.expr_check.check_expression`); the emitted
  block still guards every arithmetic step (overflow, int-exactness,
  opaque operands, error paths) and bails to the trampoline whenever
  exact Python semantics cannot be replicated in int64/double;
* ``mode`` -- native under the same two conditions for every guard
  (:func:`mode_op_lowers`): a C
  ``switch`` on the tick-start mode evaluates the current mode's guards
  lazily in priority order and commits the next mode index; the mode
  port's name is a constant entry at the head of the object table
  (:attr:`LoweredProgram.constants`);
* ``run`` / ``correct`` -- always the trampoline (nested fallback leaves
  -- STDs, machines that cannot lower, atomic blocks -- and the
  correction barrier live on Python state).

The emitted fast path is compute-then-commit: an expression block or a
mode op writes slots and buffers only after everything evaluated cleanly,
so a bail-out replays the whole op from unmodified inputs (a ``switch``
then reads the mode the replay committed).  The return value is ``0`` on
success or ``op_index + 1`` when the trampoline reported a pending Python
exception, with the failing tick left in ``frame->tick``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ...ascet.c_expr import TAGGED_VALUE, TaggedEmitter, lowers
from ..schedule_ir import (OP_BUF_READ, OP_BUF_WRITE, OP_COPY, OP_CORRECT,
                           OP_EXPR, OP_GATE, OP_JUMP, OP_MODE, OP_RUN,
                           OP_SWITCH, FlatSchedule)

_HEADER = """\
/* generated by repro.simulation.native (emitter v{version}) -- do not edit */
/* no #include: compiler builtins only, which keeps the cold build cheap */

typedef long long (*repro_tramp_fn)(long long);
{tagged}

/* the planes of one run, filled in by the driver; repro_run writes only
   the running tick back into it */
typedef struct {{
    unsigned char *tag; long long *iv; double *fv;
    unsigned char *pbt; long long *pbi; double *pbf;
    unsigned char *nbt; long long *nbi; double *nbf;
    const unsigned char *in_t; const long long *in_i; const double *in_f;
    const unsigned char *gate;
    unsigned char *out_t; long long *out_i; double *out_f;
    long long *modes;
    repro_tramp_fn tramp;
    long long warm;
    long long tick;
}} repro_frame;
"""

_PROLOGUE = """\
long long repro_run(repro_frame *frame, long long ticks)
{
    unsigned char *tag = frame->tag; long long *iv = frame->iv;
    double *fv = frame->fv;
    unsigned char *pbt = frame->pbt; long long *pbi = frame->pbi;
    double *pbf = frame->pbf;
    unsigned char *nbt = frame->nbt; long long *nbi = frame->nbi;
    double *nbf = frame->nbf;
    const unsigned char *in_t = frame->in_t; const long long *in_i =
        frame->in_i; const double *in_f = frame->in_f;
    const unsigned char *gate = frame->gate;
    unsigned char *out_t = frame->out_t; long long *out_i = frame->out_i;
    double *out_f = frame->out_f;
    long long *modes = frame->modes;
    repro_tramp_fn tramp = frame->tramp;
    long long warm = frame->warm;
    long long k;
    for (k = 0; k < ticks; ++k) {"""

#: The head of one tick inside the loop (indented with the op program).
_TICK = """\
    frame->tick = k;
    /* warm: the previous tick's next buffers are this tick's previous
       ones; otherwise the driver stored them.  Either way, unwritten next
       buffers carry over. */
    if (warm) {{
        __builtin_memcpy(pbt, nbt, {n_buffers} * sizeof *pbt);
        __builtin_memcpy(pbi, nbi, {n_buffers} * sizeof *pbi);
        __builtin_memcpy(pbf, nbf, {n_buffers} * sizeof *pbf);
    }} else {{
        __builtin_memcpy(nbt, pbt, {n_buffers} * sizeof *nbt);
        __builtin_memcpy(nbi, pbi, {n_buffers} * sizeof *nbi);
        __builtin_memcpy(nbf, pbf, {n_buffers} * sizeof *nbf);
    }}
    warm = 1;
    __builtin_memset(tag, 0, {n_slots});"""


@dataclass
class LoweredProgram:
    """The C lowering of one flat program.

    ``lowered_ops`` are the op indexes emitted as native expression or
    mode blocks (they may still bail to the trampoline at run time);
    ``fallback_ops`` are the indexes lowered as unconditional trampoline
    calls (``run`` / ``correct`` / non-lowerable ``expr`` or ``mode``);
    ``gate_indexes`` maps the k-th entry of the C ``gate[]`` array to its
    op index; ``constants`` are the Python objects the C code refers to by
    object-table index (the machines' mode names), which the step keeps
    at the head of its object table.
    """

    source: str
    lowered_ops: List[int] = field(default_factory=list)
    fallback_ops: List[int] = field(default_factory=list)
    gate_indexes: List[int] = field(default_factory=list)
    constants: List[Any] = field(default_factory=list)


#: Lattice kinds of values that are Python objects on the tagged plane.
_OPAQUE = frozenset({"enum", "struct"})


def _lattice_kinds(component: Any, expressions: Any) -> Optional[List[Any]]:
    """The lint interval×kind lattice's result kinds of each of
    *expressions* over *component*'s input ports, or None when it reports
    an error for one of them.

    An op whose values the lattice proves opaque would bail every tick, so
    the callers route it to the closure path statically instead.
    Imported lazily: :mod:`repro.analysis.lint` imports the schedule IR
    for its verifier, so a module-level import here would be circular.
    """
    from ...analysis.lint.expr_check import (check_expression,
                                             environment_of_ports)
    environment = environment_of_ports(component)
    kinds = []
    for expression in expressions:
        value, findings = check_expression(
            expression, environment, component.name,
            component._evaluator.functions)  # noqa: SLF001
        if any(finding.severity == "error" for finding in findings):
            return None
        kinds.append(value.kinds)
    return kinds


def _tramp_call(index: int, lines: List[str]) -> None:
    lines.append(f"    if (tramp({index}LL)) return {index + 1}LL;")


def _load_inputs(in_spec: Any, lines: List[str]) -> Dict[str, str]:
    """Load the input slots into the tagged array ``V``; returns name ->
    lvalue."""
    if in_spec:
        lines.append(f"tv V[{len(in_spec)}] = {{" + ", ".join(
            f"{{tag[{slot}], iv[{slot}], fv[{slot}]}}"
            for _name, slot in in_spec) + "};")
    return {name: f"V[{j}]" for j, (name, _slot) in enumerate(in_spec)}


def _native_block(index: int, body: List[str]) -> List[str]:
    """One lowered op in the step: its body in a block whose bails
    (``goto L<index>_py``) replay the op through the trampoline."""
    lines = ["    {", *(f"        {line}" for line in body),
             f"        goto L{index}_done;", "    }", f"L{index}_py: ;"]
    _tramp_call(index, lines)
    lines.append(f"L{index}_done: ;")
    return lines


def expr_op_lowers(op: Tuple[Any, ...], leaf: Any) -> bool:
    """True when the ``expr`` op *op* of *leaf* is emitted as C, not as a
    trampoline call: every item expression lowers
    (:func:`~repro.ascet.c_expr.lowers`) and the lattice proves no
    enum/struct value flows into a slot (an opaque value would bail every
    tick).  Decided without emitting C; the batch backend vectorizes
    exactly these ops (:mod:`repro.simulation.batch_ir`)."""
    component = leaf.component
    expressions = list(component.output_expressions.values())
    names = {name for name, _slot in op[2]}
    functions = component._evaluator.functions  # noqa: SLF001
    if len(expressions) != len(op[3]) or not all(
            lowers(expression, names, functions)
            for expression in expressions):
        return False
    kinds = _lattice_kinds(component, expressions)
    return kinds is not None and not any(kind & _OPAQUE for kind in kinds)


def _mode_guards(op: Tuple[Any, ...], machine: Any
                 ) -> List[List[Tuple[Any, int]]]:
    """Per mode of the ``mode`` op *op*: its ``(guard AST, target)``
    pairs in priority order."""
    mtd = machine.component
    return [[(transition.guard, target) for transition, (_closure, target)
             in zip(mtd.transitions_from(name), guards)]
            for name, guards in zip(op[6], op[3])]


def mode_op_lowers(op: Tuple[Any, ...], machine: Any) -> bool:
    """True when the ``mode`` op *op* of *machine* is emitted as C: every
    guard lowers and none is proved opaque by the lattice (only a guard's
    truth value is used, and an opaque one bails).  The batch backend
    vectorizes exactly these ops."""
    mtd = machine.component
    guards = [guard for pairs in _mode_guards(op, machine)
              for guard, _target in pairs]
    names = {name for name, _slot in op[2]}
    functions = mtd._evaluator.functions  # noqa: SLF001
    if not all(lowers(guard, names, functions) for guard in guards):
        return False
    kinds = _lattice_kinds(mtd, guards)
    return kinds is not None and not any(kind and kind <= _OPAQUE
                                         for kind in kinds)


def _expr_block(index: int, op: Tuple[Any, ...], leaf: Any,
                helpers: Dict[Any, Tuple[str, str]]) -> Optional[List[str]]:
    """The C body of one ``expr`` op, or None when the op stays on the
    trampoline."""
    if not expr_op_lowers(op, leaf):
        return None
    component = leaf.component
    lines: List[str] = []
    inputs = _load_inputs(op[2], lines)
    emitter = TaggedEmitter(inputs, bail_label=f"L{index}_py",
                            functions=component._evaluator.functions,  # noqa: SLF001
                            helpers=helpers)
    results = [emitter.emit(expression)
               for expression in component.output_expressions.values()]
    helpers.update(emitter.helpers)
    lines.extend(emitter.decls)
    lines.extend(emitter.lines)
    for (slot, _closure), prefix in zip(op[3], results):
        if slot >= 0:
            lines.append(f"tag[{slot}] = {prefix}.t; iv[{slot}] = "
                         f"{prefix}.i; fv[{slot}] = {prefix}.f;")
    for src, dst in op[4]:
        lines.append(f"tag[{dst}] = tag[{src}]; iv[{dst}] = iv[{src}]; "
                     f"fv[{dst}] = fv[{src}];")
    return lines


def _mode_block(index: int, op: Tuple[Any, ...], machine: Any, base: int,
                helpers: Dict[Any, Tuple[str, str]]) -> Optional[List[str]]:
    """The C body of one ``mode`` op, or None when the op stays on the
    trampoline.  Mode names sit at object-table index *base* on."""
    if not mode_op_lowers(op, machine):
        return None
    buf, mode_slot = op[4], op[5]
    lines: List[str] = []
    inputs = _load_inputs(op[2], lines)
    bail = f"L{index}_py"
    emitter = TaggedEmitter(inputs, bail_label=bail,
                            functions=machine.component._evaluator.functions,  # noqa: SLF001
                            helpers=helpers)
    cases: List[str] = []
    for mode, pairs in enumerate(_mode_guards(op, machine)):
        cases.append(f"case {mode}:")
        for guard, target in pairs:
            # guards are evaluated lazily: each one only when every
            # higher-priority guard was absent or false
            g, block = emitter.emit_block(guard)
            cases.extend(f"    {line}" for line in block)
            cases.append(f"    if ({g}.t == 4) goto {bail};")
            cases.append(f"    if ({g}.t != 0 && "
                         f"{TaggedEmitter.truthy(g)}) "
                         f"{{ m = {target}; break; }}")
        cases.append("    break;")
    helpers.update(emitter.helpers)
    lines.extend(emitter.decls)
    lines.append(f"long long m = pbi[{buf}];")
    lines.append("switch (m) {")
    lines.extend(cases)
    lines.append(f"default: goto {bail};")
    lines.append("}")
    lines.append(f"nbt[{buf}] = 1; nbi[{buf}] = m;")
    if mode_slot >= 0:
        lines.append(f"tag[{mode_slot}] = 4; iv[{mode_slot}] = {base}LL + m;")
    return lines


def _target_label(target: int, program: Any) -> str:
    return "Lend" if target >= len(program) else f"L{target}"


def lower_program(flat: FlatSchedule, emitter_version: int) -> LoweredProgram:
    """Lower *flat*'s op program into one C translation unit."""
    program = flat.program
    lowered = LoweredProgram(source="")
    # helper key -> (name, definition); an op's emitter adds its helpers
    # here only when the op lowers, so the unit defines only used ones
    helpers: Dict[Any, Tuple[str, str]] = {}
    lines: List[str] = _TICK.format(
        n_slots=flat.n_slots, n_buffers=len(flat.buffer_specs)).split("\n")
    for k, (_name, slot) in enumerate(flat.input_spec):
        lines.append(f"    tag[{slot}] = in_t[{k}]; iv[{slot}] = in_i[{k}]; "
                     f"fv[{slot}] = in_f[{k}];")

    for index, op in enumerate(program):
        code = op[0]
        lines.append(f"L{index}: ;  /* {_label(flat, index, op)} */")
        if code == OP_COPY:
            for src, dst in op[1]:
                lines.append(f"    tag[{dst}] = tag[{src}]; "
                             f"iv[{dst}] = iv[{src}]; fv[{dst}] = fv[{src}];")
        elif code == OP_BUF_READ:
            for buf, dst in op[1]:
                lines.append(f"    tag[{dst}] = pbt[{buf}]; "
                             f"iv[{dst}] = pbi[{buf}]; fv[{dst}] = pbf[{buf}];")
        elif code == OP_BUF_WRITE:
            for src, buf in op[1]:
                lines.append(f"    nbt[{buf}] = tag[{src}]; "
                             f"nbi[{buf}] = iv[{src}]; nbf[{buf}] = fv[{src}];")
        elif code == OP_GATE:
            gate_index = len(lowered.gate_indexes)
            lowered.gate_indexes.append(index)
            lines.append(f"    if (!gate[{gate_index}]) "
                         f"goto {_target_label(op[2], program)};")
        elif code == OP_SWITCH:
            cases = " ".join(f"case {mode}: goto "
                             f"{_target_label(target, program)};"
                             for mode, (_name, target) in enumerate(op[2])
                             if target != op[3])
            lines.append(f"    switch (nbi[{op[1]}]) {{ {cases} "
                         f"default: goto {_target_label(op[3], program)}; }}")
        elif code == OP_JUMP:
            lines.append(f"    goto {_target_label(op[1], program)};")
        elif code == OP_EXPR and (body := _expr_block(
                index, op, flat.leaves[op[1]], helpers)) is not None:
            lowered.lowered_ops.append(index)
            lines.extend(_native_block(index, body))
        elif code == OP_MODE and (body := _mode_block(
                index, op, flat.machines[op[1]], len(lowered.constants),
                helpers)) is not None:
            lowered.lowered_ops.append(index)
            lowered.constants.extend(op[6])
            lines.extend(_native_block(index, body))
        else:  # run / correct / non-lowerable expr or mode
            lowered.fallback_ops.append(index)
            _tramp_call(index, lines)

    lines.append("Lend: ;")
    for k, (_name, slot) in enumerate(flat.output_spec):
        lines.append(f"    out_t[{k}] = tag[{slot}]; out_i[{k}] = iv[{slot}]; "
                     f"out_f[{k}] = fv[{slot}];")
    if flat.root_mode is not None:
        lines.append(f"    modes[k] = nbi[{flat.machines[0].buffer}];")
    # advance the tick's rows: input columns, gate bits, output plane
    for width, names in ((len(flat.input_spec), ("in_t", "in_i", "in_f")),
                         (len(lowered.gate_indexes), ("gate",)),
                         (len(flat.output_spec),
                          ("out_t", "out_i", "out_f"))):
        if width:
            lines.append("    " + " ".join(f"{name} += {width};"
                                           for name in names))
    lowered.source = "\n".join(
        [_HEADER.format(version=emitter_version, tagged=TAGGED_VALUE),
         *(definition for _name, definition in helpers.values()), "",
         _PROLOGUE, *(f"    {line}" for line in lines),
         "    }", "    return 0;", "}"]) + "\n"
    return lowered


def _label(flat: FlatSchedule, index: int, op: Tuple[Any, ...]) -> str:
    code = op[0]
    if code in (OP_RUN, OP_EXPR):
        leaf = flat.leaves[op[1]]
        return f"{('run', 'expr')[code == OP_EXPR]} {leaf.component.name}"
    if code == OP_MODE:
        return f"mode {flat.machines[op[1]].component.name}"
    if code == OP_GATE:
        return f"gate -> {op[2]}"
    if code == OP_SWITCH:
        return f"switch, end {op[3]}"
    if code == OP_JUMP:
        return f"jump -> {op[1]}"
    if code == OP_CORRECT:
        return f"correct ({len(op[1])})"
    names = {OP_COPY: "copy", OP_BUF_READ: "buf_read",
             OP_BUF_WRITE: "buf_write"}
    return f"{names[code]} ({len(op[1])})"
