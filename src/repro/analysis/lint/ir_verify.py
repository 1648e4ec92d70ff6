"""Static dataflow verification of flat-schedule op programs.

The :class:`~repro.simulation.schedule_ir.FlatSchedule` IR is the substrate
every compiled execution shares (flat and batch backends run it directly;
the planned native codegen will emit C from it).  At that level "the model
is well-formed" becomes concrete dataflow obligations over the slot
environment, and this module discharges them *statically*, by abstract
interpretation of the op program:

* every slot is proven written-before-read under **every** gate/clock
  configuration -- gate regions are analysed as *may-skip*, so a slot
  assigned only inside a gated region is at best *maybe-written* after the
  join (``ir-read-before-write`` / ``ir-never-written``);
* reads that may observe an absent slot because a gate skipped its writer
  are collected as the codegen proof obligation "these slots must be
  ABSENT-initialized" (``ir-may-skip-read``, one aggregated info finding
  -- absence is *legal* in this semantics, the obligation is on code
  generators, not on models);
* machine ``switch`` regions are analysed as alternatives: each region
  starts from the state before the switch, and at the switch's end a slot
  written in only some regions (or not in a behaviour-less mode) is
  *maybe-written*;
* dead stores (``ir-dead-store``), same-tick write-write conflicts
  (``ir-write-write``), malformed gate jumps, switch tables and region
  exits (``ir-gate-structure``) and gate regions whose clock provably
  never fires (``ir-unreachable-op``);
* correction barriers: every scratch-tracked run op must be covered by a
  matching barrier entry and vice versa, and untracked non-feedthrough
  leaves must not have late producers writing their inputs
  (``ir-correction-unmatched`` / ``ir-correction-missing`` /
  ``ir-correction-dead``);
* batch aliasing: :func:`certify_batch` certifies a schedule safe for the
  ``(slot, scenario)`` vectorized sweeps of the batch backend -- fused
  copy ops are classified gatherable vs order-dependent (chains and
  different-source duplicate destinations require in-order pair
  execution), and genuine aliasing hazards void the certification
  (``ir-batch-alias`` / ``ir-batch-certified``).

The verifier never executes a tick and never calls a step closure; it
reads only the program tuples, the specs and the leaves' static metadata.
Compiler-produced schedules are expected to verify clean (the mutation
self-tests in ``tests/test_lint_ir.py`` doctor programs to prove each rule
actually fires).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ...core.clocks import EventClock
from ...core.validation import Severity
from ...simulation.schedule_ir import (OP_BUF_READ, OP_BUF_WRITE, OP_COPY,
                                       OP_CORRECT, OP_EXPR, OP_GATE, OP_JUMP,
                                       OP_MODE, OP_RUN, OP_SWITCH,
                                       FlatSchedule, switch_regions)
from .findings import Finding, LintReport
from .registry import get_rule

# Abstract slot states of the dataflow lattice.
_UNWRITTEN, _MAYBE, _WRITTEN = 0, 1, 2


def _finding(rule_id: str, message: str, element: str = "",
             suggestion: str = "",
             severity: Optional[Severity] = None,
             **location: Any) -> Finding:
    rule = get_rule(rule_id)
    if severity is None:
        severity = rule.default_severity if rule else Severity.WARNING
    return Finding(rule=rule_id, severity=severity, message=message,
                   element=element, suggestion=suggestion,
                   location={k: v for k, v in location.items()
                             if v is not None})


def _op_events(op: Tuple[Any, ...],
               index: int = 0) -> List[Tuple[str, int, Any]]:
    """The ordered slot events of one op: ``(kind, slot, origin)``.

    Mirrors the execution order of the op kernel table exactly
    (``schedule_ir.SCALAR_KERNELS``, run by ``run_kernels``):
    run/expr ops read their input spec, write their outputs, then run
    their post-propagation copies pair by pair; copy ops interleave reads
    and writes pair by pair (fused chains are order-dependent).

    Write events carry an *origin*: ``("new", token)`` for a freshly
    computed value, ``("copy", src)`` for a forwarded one.  The dataflow
    pass resolves copy origins transitively -- the flattener routinely
    forwards one produced value to the same slot twice (post-propagation
    pairs plus boundary copies), which is redundant, not a conflict, and
    must not trip ``ir-write-write``.
    """
    code = op[0]
    events: List[Tuple[str, int, Any]] = []
    if code == OP_RUN:
        _, _leaf, _fn, in_spec, out_spec, post, _si = op
        # a correction-tracked run reads provisional (possibly still
        # absent) inputs by design: the barrier re-runs it with the final
        # values, so these reads are exempt from write-before-read ("cr")
        read_kind = "cr" if _si >= 0 else "r"
        events.extend((read_kind, slot, None) for _name, slot in in_spec)
        events.extend(("w", slot, ("new", (index, name)))
                      for name, slot in out_spec)
        for src, dst in post:
            events.append(("r", src, None))
            events.append(("w", dst, ("copy", src)))
    elif code == OP_EXPR:
        _, _leaf, in_spec, items, post = op
        events.extend(("r", slot, None) for _name, slot in in_spec)
        events.extend(("w", slot, ("new", (index, slot)))
                      for slot, _fn in items if slot >= 0)
        for src, dst in post:
            events.append(("r", src, None))
            events.append(("w", dst, ("copy", src)))
    elif code == OP_COPY:
        for src, dst in op[1]:
            events.append(("r", src, None))
            events.append(("w", dst, ("copy", src)))
    elif code == OP_BUF_READ:
        events.extend(("w", dst, ("new", (index, "buf", buf)))
                      for buf, dst in op[1])
    elif code == OP_BUF_WRITE:
        events.extend(("r", src, None) for src, _index in op[1])
    elif code == OP_CORRECT:
        for _si, _leaf, _fn, in_spec in op[1]:
            events.extend(("r", slot, None) for _name, slot in in_spec)
    elif code == OP_MODE:
        _, _machine, in_spec, _table, _buf, mode_slot, _names = op
        events.extend(("r", slot, None) for _name, slot in in_spec)
        if mode_slot >= 0:
            events.append(("w", mode_slot, ("new", (index, "mode"))))
    return events


def _gate_clock(predicate: Any) -> Any:
    """Recover the abstract clock behind a gate predicate, if possible.

    Compiler-produced gates store ``PatternCache.at`` bound methods, whose
    ``__self__.clock`` is the original :class:`~repro.core.clocks.Clock`.
    Hand-built predicates return ``None`` (no reachability claims made).
    """
    cache = getattr(predicate, "__self__", None)
    return getattr(cache, "clock", None)


def _clock_never_fires(clock: Any) -> bool:
    """True only when the gate clock *provably* never fires.

    Decidable cases: an empty :class:`EventClock` (no ticks at all) and a
    periodic clock with no present tick across two hyperperiods (defensive
    -- current periodic clock classes always fire).  Data-dependent
    predicates are never flagged.
    """
    if clock is None:
        return False
    if isinstance(clock, EventClock):
        return not clock.ticks
    if clock.is_periodic() and clock.period:
        horizon = clock.phase + 2 * clock.period
        return not any(clock.at(tick) for tick in range(horizon))
    return False


def _slot_name(schedule: FlatSchedule, slot: int) -> str:
    names = schedule.slot_names
    if 0 <= slot < len(names):
        return names[slot]
    return f"slot#{slot}"


def _check_jump_structure(schedule: FlatSchedule, report: LintReport
                          ) -> Tuple[Set[int], Dict[int, Any]]:
    """Report malformed gates, switch tables and jumps
    (``ir-gate-structure``); returns the malformed gates and the regions
    of every well-formed switch.

    A switch must follow the ``mode`` op of its machine, list one case per
    mode, and lay its regions out contiguously, each but the last closed
    by a jump to the switch's end (:func:`switch_regions`); every jump
    must close such a region; and gate and switch regions must nest.
    """
    program = schedule.program
    n_ops = len(program)
    bad_gates: Set[int] = set()
    switches: Dict[int, Any] = {}
    spans: List[Tuple[int, int, int]] = []  # (first op, stop, owner op)
    exits: Set[int] = set()

    def malformed(index: int, message: str, **location: Any) -> None:
        report.add(_finding("ir-gate-structure", message,
                            element=f"op {index}", op=index, **location))

    for index, op in enumerate(program):
        if op[0] == OP_GATE:
            target = op[2]
            if index < target <= n_ops:
                spans.append((index + 1, target, index))
                continue
            bad_gates.add(index)
            malformed(index, f"gate at op {index} jumps to {target}, "
                             f"outside the legal range "
                             f"({index + 1}..{n_ops})", target=target)
        elif op[0] == OP_SWITCH:
            mode_op = program[index - 1] if index else None
            if mode_op is None or mode_op[0] != OP_MODE \
                    or mode_op[4] != op[1] \
                    or len(mode_op[6]) != len(op[2]):
                malformed(index, f"switch at op {index} does not follow "
                                 f"the mode op of its machine with one "
                                 f"case per mode")
                continue
            try:
                regions = switch_regions(program, index)
            except ValueError as exc:
                malformed(index, str(exc))
                continue
            switches[index] = regions
            for _mode, start, stop in regions:
                spans.append((start, stop, index))
                if stop < op[3]:
                    exits.add(stop)
    for index, op in enumerate(program):
        if op[0] == OP_JUMP and index not in exits:
            malformed(index, f"jump at op {index} to {op[1]} does not "
                             f"close a switch region", target=op[1])
    # regions must nest: sweep by start, innermost last on the stack
    stack: List[Tuple[int, int, int]] = []
    for start, stop, owner in sorted(spans, key=lambda s: (s[0], -s[1])):
        while stack and stack[-1][1] <= start:
            stack.pop()
        if stack and stack[-1][1] < stop:
            malformed(owner, f"region ops {start}..{stop - 1} of op "
                             f"{owner} cross the region of op "
                             f"{stack[-1][2]}, which ends at "
                             f"{stack[-1][1]}")
            if program[owner][0] == OP_GATE:
                bad_gates.add(owner)
            else:
                switches.pop(owner, None)
            continue
        stack.append((start, stop, owner))
    return bad_gates, switches


def lint_flat_schedule(schedule: FlatSchedule,
                       subject: Optional[str] = None) -> LintReport:
    """Run every IR dataflow rule over *schedule* and report findings."""
    report = LintReport(subject or
                        f"flat schedule of {schedule.component.name!r}")
    program = schedule.program
    n_ops = len(program)
    input_slots = {slot for _name, slot in schedule.input_spec}
    output_slots = [slot for _name, slot in schedule.output_spec]

    # -- global write/read maps (gates ignored: may-execute) ---------------
    writes_by_slot: Dict[int, List[int]] = {}
    reads_by_slot: Dict[int, List[int]] = {}
    for index, op in enumerate(program):
        for kind, slot, _origin in _op_events(op, index):
            target = writes_by_slot if kind == "w" else reads_by_slot
            target.setdefault(slot, []).append(index)  # "r" and "cr" read
    for slot in output_slots:
        reads_by_slot.setdefault(slot, []).append(n_ops)

    # -- gate / switch structure + unreachable regions ---------------------
    bad_gates, switches = _check_jump_structure(schedule, report)
    for index, op in enumerate(program):
        if op[0] != OP_GATE:
            continue
        target = op[2]
        if index in bad_gates:
            continue
        clock = _gate_clock(op[1])
        if _clock_never_fires(clock):
            report.add(_finding(
                "ir-unreachable-op",
                f"ops {index + 1}..{target - 1} are unreachable: gate "
                f"clock {clock.expression()} never fires",
                element=f"op {index}",
                suggestion="remove the gated subtree or give its clock "
                           "at least one present tick",
                op=index, region=[index + 1, target - 1]))

    # -- abstract interpretation of the slot environment -------------------
    states = [_UNWRITTEN] * schedule.n_slots
    #: provenance of each slot's current value; distinct origins in a
    #: same-tick overwrite are a conflict, equal ones redundant forwarding
    origins: List[Any] = [None] * schedule.n_slots
    for name, slot in schedule.input_spec:
        states[slot] = _WRITTEN
        origins[slot] = ("input", name)
    read_since_write = [True] * schedule.n_slots
    last_write_op = [-1] * schedule.n_slots
    #: open regions, innermost last: ``["gate", target, snapshot]`` or
    #: ``["switch", end, later region starts, snapshot, branch results]``
    open_regions: List[List[Any]] = []

    read_before_write: Dict[int, int] = {}   # slot -> first offending op
    never_written: Dict[int, int] = {}
    maybe_absent: Dict[int, int] = {}
    write_write: Dict[int, Tuple[int, int]] = {}  # slot -> (op, earlier op)

    def snapshot() -> Tuple[List[int], List[Any], List[bool]]:
        return states[:], origins[:], read_since_write[:]

    def join(index: int, branches: List[Any], reads: List[bool]) -> None:
        """Merge alternative *branches* reaching op *index*: a slot whose
        state differs between them is maybe-written; *reads* becomes the
        read-since-write flags."""
        read_since_write[:] = reads
        for slot in range(schedule.n_slots):
            seen = [branch[0][slot] for branch in branches]
            states[slot] = seen[0] if seen.count(seen[0]) == len(seen) \
                else _MAYBE
            sources = [branch[1][slot] for branch in branches]
            if sources.count(sources[0]) != len(sources):
                origins[slot] = ("join", index, slot)
            else:
                origins[slot] = sources[0]

    def close_regions(index: int) -> None:
        """Join the gate regions and switch branches that end at *index*,
        innermost first; a later switch region restarts from the state
        before its switch."""
        while open_regions:
            top = open_regions[-1]
            if top[0] == "gate" and top[1] == index:
                open_regions.pop()
                join(index, [top[2], snapshot()], read_since_write[:])
            elif top[0] == "switch" and index in top[2]:
                top[2].discard(index)
                top[4].append(snapshot())
                states[:], origins[:], read_since_write[:] = \
                    (part[:] for part in top[3])
                return
            elif top[0] == "switch" and top[1] == index:
                open_regions.pop()
                branches = top[4] + [snapshot()]
                join(index, branches,
                     [all(reads) for reads
                      in zip(*(branch[2] for branch in branches))])
            else:
                return

    for index in range(n_ops):
        close_regions(index)
        op = program[index]
        if op[0] == OP_GATE:
            if index not in bad_gates:
                open_regions.append(["gate", op[2], snapshot()])
            continue
        if op[0] == OP_SWITCH:
            if index in switches:
                regions = switches[index]
                before = snapshot()
                # a behaviour-less mode is a branch that writes nothing
                open_regions.append([
                    "switch", op[3],
                    {start for _mode, start, _stop in regions[1:]}, before,
                    [before] if len(regions) < len(op[2]) else []])
            continue
        for kind, slot, origin in _op_events(op, index):
            if kind in ("r", "cr"):
                state = states[slot]
                if kind == "r" and state == _UNWRITTEN:
                    if writes_by_slot.get(slot):
                        read_before_write.setdefault(slot, index)
                    else:
                        never_written.setdefault(slot, index)
                elif kind == "r" and state == _MAYBE:
                    maybe_absent.setdefault(slot, index)
                read_since_write[slot] = True
            else:
                if origin[0] == "copy":
                    src = origin[1]
                    origin = origins[src] if origins[src] is not None \
                        else ("slot", src)
                if states[slot] == _WRITTEN \
                        and not read_since_write[slot] \
                        and origin != origins[slot]:
                    write_write.setdefault(slot,
                                           (index, last_write_op[slot]))
                states[slot] = _WRITTEN
                origins[slot] = origin
                read_since_write[slot] = False
                last_write_op[slot] = index
    close_regions(n_ops)
    for slot in output_slots:
        if states[slot] == _UNWRITTEN and not writes_by_slot.get(slot) \
                and slot not in input_slots:
            never_written.setdefault(slot, n_ops)

    for slot, index in sorted(read_before_write.items()):
        report.add(_finding(
            "ir-read-before-write",
            f"op {index} reads slot {slot} ({_slot_name(schedule, slot)}) "
            f"before its first writer, op {min(writes_by_slot[slot])}, "
            f"has run",
            element=_slot_name(schedule, slot),
            suggestion="the program is not topologically ordered; "
                       "recompile the schedule",
            op=index, slot=slot, first_writer=min(writes_by_slot[slot])))
    for slot, index in sorted(never_written.items()):
        where = ("the boundary output spec" if index == n_ops
                 else f"op {index}")
        report.add(_finding(
            "ir-never-written",
            f"{where} reads slot {slot} ({_slot_name(schedule, slot)}) "
            f"which no op and no boundary input ever writes: the value is "
            f"always absent",
            element=_slot_name(schedule, slot),
            suggestion="connect the port or drop it from the model",
            op=None if index == n_ops else index, slot=slot))
    for slot, (index, earlier) in sorted(write_write.items()):
        report.add(_finding(
            "ir-write-write",
            f"op {index} overwrites slot {slot} "
            f"({_slot_name(schedule, slot)}) already written by op "
            f"{earlier} in the same tick with no read in between",
            element=_slot_name(schedule, slot), op=index, slot=slot,
            earlier_writer=earlier))
    if maybe_absent:
        sample = [(_slot_name(schedule, slot), slot)
                  for slot in sorted(maybe_absent)[:8]]
        report.add(_finding(
            "ir-may-skip-read",
            f"{len(maybe_absent)} slot(s) are read after a gate region "
            f"that may skip their writer; generated code must initialize "
            f"every slot to ABSENT each tick "
            f"(e.g. {', '.join(name for name, _ in sample)})",
            element=report.subject,
            slots=sorted(maybe_absent), sample=sample))

    # -- dead stores (slot granularity, may-read over-approximated) --------
    for slot in sorted(writes_by_slot):
        if not reads_by_slot.get(slot):
            report.add(_finding(
                "ir-dead-store",
                f"slot {slot} ({_slot_name(schedule, slot)}) is written by "
                f"op(s) {writes_by_slot[slot]} but never read: the computed "
                f"value is unused",
                element=_slot_name(schedule, slot),
                slot=slot, writers=writes_by_slot[slot]))

    # -- correction barriers -----------------------------------------------
    report.extend(_check_corrections(schedule, writes_by_slot))

    # -- batch aliasing certification --------------------------------------
    cert = certify_batch(schedule)
    report.extend(cert.pop("findings"))
    if cert["safe"]:
        report.add(_finding(
            "ir-batch-certified",
            f"certified safe for (slot, scenario) vectorized sweeps: "
            f"{cert['copy_ops']} copy op(s), {cert['gatherable_ops']} "
            f"gatherable, {cert['order_dependent_ops']} order-dependent "
            f"(in-order pair execution required), 0 aliasing hazards",
            element=report.subject, **{k: v for k, v in cert.items()}))
    return report


def _check_corrections(schedule: FlatSchedule,
                       writes_by_slot: Dict[int, List[int]]) -> List[Finding]:
    """Verify correction-barrier coverage against the late-producer sets."""
    findings: List[Finding] = []
    program = schedule.program
    tracked: Dict[int, Tuple[int, int, Tuple[Tuple[str, int], ...]]] = {}
    covered: Set[int] = set()

    for index, op in enumerate(program):
        if op[0] == OP_RUN and op[6] >= 0:
            tracked[op[6]] = (index, op[1], op[3])

    def leaf_label(leaf_index: int) -> str:
        return schedule.leaves[leaf_index].path

    for index, op in enumerate(program):
        if op[0] != OP_CORRECT:
            continue
        for si, leaf_index, _fn, in_spec in op[1]:
            run = tracked.get(si)
            if run is None or run[0] > index or run[1] != leaf_index \
                    or run[2] != in_spec:
                reason = ("no run op tracks scratch slot "
                          f"{si}" if run is None else
                          "the tracked run op runs after the barrier"
                          if run[0] > index else
                          "the tracked run op is a different leaf"
                          if run[1] != leaf_index else
                          "the barrier re-reads a different input spec "
                          "than the run op consumed")
                findings.append(_finding(
                    "ir-correction-unmatched",
                    f"correction entry for leaf "
                    f"{leaf_label(leaf_index)} at op {index}: {reason}",
                    element=leaf_label(leaf_index),
                    op=index, scratch=si))
                continue
            covered.add(si)
            run_index = run[0]
            live = any(any(run_index < w < index
                           for w in writes_by_slot.get(slot, ()))
                       for _name, slot in in_spec)
            if not live:
                findings.append(_finding(
                    "ir-correction-dead",
                    f"correction entry for leaf {leaf_label(leaf_index)} "
                    f"at op {index} is vacuous: no op between the run "
                    f"(op {run_index}) and the barrier writes any of its "
                    f"input slots",
                    element=leaf_label(leaf_index),
                    op=index, scratch=si, run=run_index))

    for si, (run_index, leaf_index, _in_spec) in sorted(tracked.items()):
        if si not in covered:
            findings.append(_finding(
                "ir-correction-missing",
                f"run op {run_index} (leaf {leaf_label(leaf_index)}) "
                f"tracks scratch slot {si} but no correction barrier "
                f"covers it: late input changes are silently dropped",
                element=leaf_label(leaf_index),
                op=run_index, scratch=si))

    # untracked non-feedthrough leaves with late producers
    for index, op in enumerate(program):
        if op[0] != OP_RUN or op[6] >= 0:
            continue
        leaf = schedule.leaves[op[1]]
        deps = leaf.component.instantaneous_dependencies()
        if any(deps.values()):
            continue  # feedthrough leaves re-read nothing from tick-start
        late = sorted({w for _name, slot in op[3]
                       for w in writes_by_slot.get(slot, ()) if w > index})
        if late:
            findings.append(_finding(
                "ir-correction-missing",
                f"non-feedthrough leaf {leaf_label(op[1])} (run op {index}) "
                f"has late producers (op(s) {late}) writing its input "
                f"slots but is not correction-tracked: its state update "
                f"saw stale inputs",
                element=leaf_label(op[1]),
                op=index, late_writers=late))
    return findings


def certify_batch(schedule: FlatSchedule) -> Dict[str, Any]:
    """Certify *schedule* for ``(slot, scenario)`` vectorized batch sweeps.

    The batch backend executes copy pairs in order, row-assigning one slot
    across all scenario lanes at a time; a copy op is *gatherable* (safe to
    lower as one fancy-indexed gather, or to reorder/parallelize) iff its
    pairs are alias-free.  The flattener's copy fusion routinely produces
    chains (a pair reading an earlier pair's destination) and redundant
    duplicates (the same value forwarded to one slot twice) -- both are
    correct under in-order execution and only classify the op as
    *order-dependent*; a destination written twice from **different**
    sources is additionally reported (``ir-batch-alias``, info).  The only
    hazard that voids the certification is a self-copy pair whose slot an
    earlier pair already rewrote -- under any reordering or two-phase
    gather its value is ambiguous.

    Returns ``{"safe", "copy_ops", "gatherable_ops", "order_dependent_ops",
    "hazards", "findings"}``.
    """
    findings: List[Finding] = []
    copy_ops = gatherable = order_dependent = hazards = 0

    def classify(index: int, pairs: Tuple[Tuple[int, int], ...],
                 what: str) -> bool:
        nonlocal hazards
        ordered = False
        dst_sources: Dict[int, int] = {}
        rewritten: Set[int] = set()
        for pair_index, (src, dst) in enumerate(pairs):
            if src == dst and src in rewritten:
                hazards += 1
                findings.append(_finding(
                    "ir-batch-alias",
                    f"{what} {index} pair {pair_index} copies slot {src} "
                    f"({_slot_name(schedule, src)}) onto itself after an "
                    f"earlier pair rewrote it: ambiguous under any "
                    f"reordering or two-phase gather",
                    element=_slot_name(schedule, src),
                    op=index, pair=pair_index, slot=src))
            if dst in dst_sources:
                ordered = True
                if dst_sources[dst] != src:
                    findings.append(_finding(
                        "ir-batch-alias",
                        f"{what} {index} writes slot {dst} "
                        f"({_slot_name(schedule, dst)}) from two different "
                        f"sources; the last pair wins, so the op requires "
                        f"in-order pair execution and cannot be lowered "
                        f"as a parallel gather",
                        element=_slot_name(schedule, dst),
                        severity=Severity.INFO, op=index, slot=dst))
            dst_sources[dst] = src
            rewritten.add(dst)
            if any(src == earlier_dst
                   for _esrc, earlier_dst in pairs[:pair_index]):
                ordered = True
        return ordered

    for index, op in enumerate(schedule.program):
        if op[0] == OP_COPY:
            copy_ops += 1
            if classify(index, op[1], "copy op"):
                order_dependent += 1
            else:
                gatherable += 1
        elif op[0] in (OP_RUN, OP_EXPR):
            post = op[5] if op[0] == OP_RUN else op[4]
            if post:
                classify(index, tuple(post), "post-propagation of op")
    return {"safe": hazards == 0, "copy_ops": copy_ops,
            "gatherable_ops": gatherable,
            "order_dependent_ops": order_dependent,
            "hazards": hazards, "findings": findings}
