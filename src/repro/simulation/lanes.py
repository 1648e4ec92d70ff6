"""Tagged NumPy lanes: the batch backend's value plane and its kernels.

The batch backend (:mod:`repro.simulation.batch_ir`) runs a scenario
battery as one sweep, one lane per scenario.  Every slot of the flat
program holds one value per lane as a **tag row** plus a **float64
payload row** -- the ``(2, lanes)`` block ``plane[slot]`` of one float64
array -- so moving a slot (a channel copy, a delayed buffer) moves both
rows at once.  Tags, in the order the kernels rely on:

* :data:`TAG_BOOL` (1) -- a ``bool``, payload 0.0 or 1.0;
* :data:`TAG_INT` (2) -- an ``int`` held exactly as a double while
  ``|v| < 2**53`` (:data:`EXACT`); its payload is never ``-0.0``;
* :data:`TAG_FLOAT` (3) -- a ``float``, any double (signed zeros, NaN,
  infinities);
* :data:`TAG_OBJ` (4) -- anything else (larger ints, strings, enum
  members, subclasses of ``int``/``float``): the payload indexes the
  sweep's object side table, so opaque values *move* through the plane
  although only Python can compute with them;
* :data:`TAG_ABSENT` (5) -- :data:`~repro.core.values.ABSENT`;
* :data:`TAG_BAIL` (6) -- never stored: a kernel's result on a lane whose
  value it cannot compute exactly.

**Kernels.**  :func:`compile_lanes` lowers an expression to a closure
computing it on every lane at once with NumPy.  It accepts exactly the
expressions :func:`repro.ascet.c_expr.lowers` accepts -- the ones the
native backend's :class:`~repro.ascet.c_expr.TaggedEmitter` lowers to C
-- and dispatches on the same template names,
:attr:`Operator.lowering[0] <repro.core.ops.Operator.lowering>`
(``checked``, ``quotient``, ``modulo``, ``compare``, ``select``,
``clamp``, ``negating``, ``not``, ``short_circuit``), applying the row's
own :attr:`~repro.core.ops.Operator.apply` to the payload rows wherever
it is elementwise.  A kernel bails -- tags the lane :data:`TAG_BAIL`,
where the native template would ``goto`` its bail label -- on an opaque
operand, an int result with ``|v| >= 2**53``, a zero divisor and a float
``%``.  The invariant: on every lane that evaluates the expression, the
result is exactly Python's value *and type*, or the lane is flagged.

The tag order does most of the work.  An eager template's result kind is
a function of the largest operand tag: a bailed operand wins (Python
raised before the absence check), then an absent one (absence wins before
any row is consulted), then an opaque one (the template bails), then the
widest number (``bool`` and ``int`` make ints, ``float`` contaminates);
small lookup tables map it to the result tag.  Every node computes on all
lanes (the arithmetic cannot raise: the sweep ignores floating-point
status flags), but a bail counts only where the node is evaluated:
``and``/``or`` take their right operand's tag only on lanes the left one
does not settle, a conditional each branch's only where its condition
selects it, and the compiled expression reports its bails on the lanes
of its mask.  Subtrees without variables fold at compile time.

A flagged lane is the caller's to recompute -- the batch backend re-runs
the whole op for it through the flat schedule's scalar kernel, one lane at
a time, as native replays a bailed op on its trampoline.
"""

from __future__ import annotations

from itertools import repeat
from typing import (Any, Callable, Collection, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from ..ascet.c_expr import lowers
from ..core.errors import CodeGenError
from ..core.expr_compile import compile_expression
from ..core.expressions import (BinaryOp, Call, Conditional, Expression,
                                Present, UnaryOp, Variable)
from ..core.ops import (BINARY_OPERATORS, FUNCTIONS, UNARY_OPERATORS,
                        Operator, function_table)
from ..core.values import ABSENT

TAG_BOOL, TAG_INT, TAG_FLOAT, TAG_OBJ, TAG_ABSENT, TAG_BAIL = \
    1.0, 2.0, 3.0, 4.0, 5.0, 6.0

#: Ints are exact payloads while ``|v| < EXACT``.
EXACT = 2.0 ** 53

#: Tags by exact type; any other type is opaque.
_TAG_OF = {bool: TAG_BOOL, int: TAG_INT, float: TAG_FLOAT,
           type(ABSENT): TAG_ABSENT}

#: Result tags by (largest) operand tag -- index 0 is no tag and bails.
_B, _I, _F, _A, _X = TAG_BOOL, TAG_INT, TAG_FLOAT, TAG_ABSENT, TAG_BAIL
#: int-or-float results (``checked``, ``quotient``, ``negating``)
_NUMBER = np.array([_X, _I, _I, _F, _X, _A, _X])
#: bool results (``compare``, ``not``, ``and``/``or``, a guard's truth)
_TRUTH = np.array([_X, _B, _B, _B, _X, _A, _X])
#: ``%``: ints only
_MODULO = np.array([_X, _I, _I, _X, _X, _A, _X])
#: no claim on numbers (``select``, ``clamp`` keep their winner's tag)
_UNLESS_NUMBER = np.array([_X, 0.0, 0.0, 0.0, _X, _A, _X])

#: Rows of a value on every lane: a tag row and a payload row (arrays, or
#: NumPy scalars for a constant).
Rows = Any
#: What a kernel node computes: ``(tags, payloads)``.
Result = Tuple[Rows, Rows]
#: A kernel node over the environment ``name -> plane[slot]``.
Node = Callable[[Mapping[str, np.ndarray]], Result]
#: A compiled expression: ``(environment, mask) -> (tags, payloads,
#: bail)``, the bail mask holding the flagged lanes of *mask*.
LaneExpression = Callable[[Mapping[str, np.ndarray], np.ndarray],
                          Tuple[Rows, Rows, Optional[np.ndarray]]]


# -- the codec ----------------------------------------------------------------


class ObjectTable(list):
    """The side table of opaque values, indexed by their payloads.  An
    object is entered once (by identity), however often it is stored, so
    enum members and mode names moved every tick do not grow it.

    The *seed* objects sit at indexes ``0 .. len(seed) - 1`` exactly as
    given, duplicates included, so a caller may address them by position
    (the batch backend's mode names: two machines may share name
    objects); entering one of them again finds its first position."""

    __slots__ = ("_index",)

    def __init__(self, seed: Sequence[Any] = ()):
        super().__init__(seed)
        self._index: Dict[int, int] = {}
        for index, value in enumerate(seed):
            self._index.setdefault(id(value), index)

    def enter(self, value: Any) -> int:
        """The index of *value*, entered on first use."""
        index = self._index.get(id(value))
        if index is None:
            index = self._index[id(value)] = len(self)
            self.append(value)
        return index

    def enter_all(self, values: Sequence[Any]) -> List[int]:
        """The indexes of *values* (:meth:`enter` for each)."""
        known = list(map(self._index.get, map(id, values)))
        if None in known:
            return [self.enter(value) for value in values]
        return known


def encode_value(value: Any, objects: ObjectTable) -> Tuple[float, float]:
    """``(tag, payload)`` of one Python value; an opaque one is entered in
    the side table *objects*.  Dispatch is on the exact type, so
    subclasses (``IntEnum``, a float subclass) round-trip as objects."""
    kind = type(value)
    if kind is float:
        return TAG_FLOAT, value
    if kind is int and -EXACT < value < EXACT:
        return TAG_INT, float(value)
    if kind is bool:
        return TAG_BOOL, 1.0 if value else 0.0
    if value is ABSENT:
        return TAG_ABSENT, 0.0
    return TAG_OBJ, float(objects.enter(value))


def decode_value(tag: float, payload: float, objects: Sequence[Any]) -> Any:
    """The Python value of one ``(tag, payload)`` pair."""
    if tag == TAG_FLOAT:
        return float(payload)
    if tag == TAG_INT:
        return int(payload)
    if tag == TAG_ABSENT:
        return ABSENT
    if tag == TAG_BOOL:
        return bool(payload)
    return objects[int(payload)]


def encode_values(values: Sequence[Any], objects: ObjectTable
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Tag and payload rows of *values*, in bulk: the tags by exact type,
    the numbers converted in one NumPy call, each opaque value entered in
    the side table *objects*."""
    count = len(values)
    if set(map(type, values)) == {float}:
        return np.full(count, TAG_FLOAT), np.array(values, dtype=np.float64)
    tags = np.fromiter(map(_TAG_OF.get, map(type, values),
                           repeat(TAG_OBJ)), np.float64, count)
    payloads = np.zeros(count)
    numbers = np.flatnonzero(tags <= TAG_FLOAT).tolist()
    if len(numbers) == count:
        numbers = values
    elif numbers:
        numbers = [values[index] for index in numbers]
    try:
        payloads[tags <= TAG_FLOAT] = numbers
    except OverflowError:  # an int beyond the double range
        for index in np.flatnonzero(tags == TAG_INT).tolist():
            if abs(values[index]) >= EXACT:
                tags[index] = TAG_OBJ
        payloads[tags <= TAG_FLOAT] = [values[index] for index in
                                       np.flatnonzero(tags <= TAG_FLOAT)]
    tags[(tags == TAG_INT) & (np.abs(payloads) >= EXACT)] = TAG_OBJ
    opaque = np.flatnonzero(tags == TAG_OBJ).tolist()
    if opaque:
        payloads[opaque] = objects.enter_all(
            [values[index] for index in opaque])
    return tags, payloads


def decode_rows(tags: np.ndarray, payloads: np.ndarray,
                objects: Sequence[Any]) -> np.ndarray:
    """The Python values of tag/payload arrays of any shape, in bulk, as
    a new array: a float, int or bool array when every value has that
    type (``tolist`` gives Python values of it), else an object array."""
    if tags.size and tags.min() == tags.max():
        uniform = tags.flat[0]
        if uniform == TAG_FLOAT:
            return payloads.copy()
        if uniform == TAG_INT:
            return payloads.astype(np.int64)
        if uniform == TAG_BOOL:
            return payloads != 0
    out = payloads.astype(object)
    ints = tags == TAG_INT
    if ints.any():
        out[ints] = payloads[ints].astype(np.int64).astype(object)
    bools = tags == TAG_BOOL
    if bools.any():
        out[bools] = (payloads[bools] != 0).astype(object)
    out[tags == TAG_ABSENT] = ABSENT
    opaque = tags == TAG_OBJ
    if opaque.any():
        # element by element: a sequence-valued object must not broadcast
        indexes = payloads[opaque].astype(np.intp).tolist()
        picked = np.empty(len(indexes), dtype=object)
        for position, index in enumerate(indexes):
            picked[position] = objects[index]
        out[opaque] = picked
    return out


class LaneView:
    """One lane of a tagged plane, read and written like a list of Python
    values -- the ``values`` (or buffers) a scalar kernel sees when it
    runs one lane."""

    __slots__ = ("plane", "lane", "objects")

    def __init__(self, plane: np.ndarray, lane: int, objects: ObjectTable):
        self.plane = plane
        self.lane = lane
        self.objects = objects

    def __getitem__(self, index: int) -> Any:
        plane, lane = self.plane, self.lane
        return decode_value(plane[index, 0, lane], plane[index, 1, lane],
                            self.objects)

    def __setitem__(self, index: int, value: Any) -> None:
        plane, lane = self.plane, self.lane
        plane[index, 0, lane], plane[index, 1, lane] = encode_value(
            value, self.objects)

    def tolist(self) -> List[Any]:
        return [self[index] for index in range(len(self.plane))]


def guard_outcome(tags: Rows, payloads: Rows) -> Tuple[Any, Any]:
    """``(fires, bails)`` of a guard's rows: a guard fires where it is
    present and truthy; it bails where it is opaque (only its truth value
    is used, which Python alone can take) or flagged."""
    truth = _kind(_TRUTH, tags)
    return (truth == TAG_BOOL) & (payloads != 0), truth == TAG_BAIL


# -- the templates (named by the rows' ``lowering``) ----------------------------
#
# Each factory takes the row, its operand nodes and the template's
# parameters and returns the node.  Constant operands are NumPy scalars
# and broadcast; a node has at least one non-constant operand (constant
# subtrees fold), so its rows are fresh arrays it may update in place.


def _kind(table: np.ndarray, tags: Rows) -> Rows:
    """The result tags *table* assigns to operand tags *tags*."""
    return table[tags.astype(np.intp)]


def _checked(row: Operator, x: Node, y: Node, builtin: str) -> Node:
    # ints stay ints while exact; a result beyond 2**53 bails like int64
    # overflow in C.  Only a product of ints can be -0.0.
    apply = row.apply
    signed_zero = builtin == "mul"

    def checked(env):
        (tx, px), (ty, py) = x(env), y(env)
        tags = _kind(_NUMBER, np.maximum(tx, ty))
        raw = apply(px, py)
        ints = tags == TAG_INT
        if signed_zero:
            np.add(raw, 0.0, out=raw, where=ints)
        big = np.abs(raw) >= EXACT
        if big.any():
            tags[big & ints] = TAG_BAIL
        return tags, raw
    return checked


def _quotient(row: Operator, x: Node, y: Node) -> Node:
    # int-exact division: int / int stays an int when it divides exactly;
    # IEEE division of exact doubles rounds like Python's int / int
    def quotient(env):
        (tx, px), (ty, py) = x(env), y(env)
        tags = _kind(_NUMBER, np.maximum(tx, ty))
        raw = px / py
        ints = tags == TAG_INT
        tags[ints & (np.fmod(px, py) != 0)] = TAG_FLOAT
        np.add(raw, 0.0, out=raw, where=ints)
        tags[(py == 0) & (tags <= TAG_FLOAT)] = TAG_BAIL
        return tags, raw
    return quotient


def _modulo(row: Operator, x: Node, y: Node) -> Node:
    # Python modulo on exact ints (NumPy's remainder follows the divisor's
    # sign too); float operands and a zero divisor bail
    apply = row.apply

    def modulo(env):
        (tx, px), (ty, py) = x(env), y(env)
        tags = _kind(_MODULO, np.maximum(tx, ty))
        raw = np.add(apply(px, py), 0.0)
        tags[(py == 0) & (tags == TAG_INT)] = TAG_BAIL
        return tags, raw
    return modulo


def _compare(row: Operator, x: Node, y: Node) -> Node:
    # exact ints, bools and floats compare exactly as doubles
    apply = row.apply

    def compare(env):
        (tx, px), (ty, py) = x(env), y(env)
        return _kind(_TRUTH, np.maximum(tx, ty)), apply(px, py) + 0.0
    return compare


_ORDER = {"<": np.less, ">": np.greater}


def _select(row: Operator, x: Node, y: Node, order: str) -> Node:
    # min(a, b) keeps a unless b < a (max: unless b > a), with its type
    wins = _ORDER[order]

    def select(env):
        (tx, px), (ty, py) = x(env), y(env)
        take = wins(py, px)
        return (np.maximum(np.where(take, ty, tx),
                           _kind(_UNLESS_NUMBER, np.maximum(tx, ty))),
                np.where(take, py, px))
    return select


def _clamp(row: Operator, value: Node, low: Node, high: Node) -> Node:
    # limit(value, low, high) is max(low, min(high, value))
    def clamp(env):
        (tv, pv), (tl, pl), (th, ph) = value(env), low(env), high(env)
        below = pv < ph
        payloads = np.where(below, pv, ph)
        above = payloads > pl
        tags = np.where(above, np.where(below, tv, th), tl)
        return (np.maximum(tags, _kind(_UNLESS_NUMBER, np.maximum(
            np.maximum(tv, tl), th))), np.where(above, payloads, pl))
    return clamp


def _negating(row: Operator, x: Node, _on_float: str, _on_int: str) -> Node:
    # type-preserving, except that a bool negates to an int
    apply = row.apply

    def negating(env):
        tx, px = x(env)
        tags = _kind(_NUMBER, tx)
        raw = apply(px)
        np.add(raw, 0.0, out=raw, where=tags == TAG_INT)
        return tags, raw
    return negating


def _not(row: Operator, x: Node) -> Node:
    def negation(env):
        tx, px = x(env)
        return _kind(_TRUTH, tx), (px == 0) + 0.0
    return negation


def _short_circuit(row: Operator, x: Node, y: Node) -> Node:
    # the right operand counts only on lanes the left one does not settle
    settles = row.settles

    def short_circuit(env):
        tx, px = x(env)
        truthy = px != 0
        pending = (tx <= TAG_FLOAT) & (~truthy if settles else truthy)
        ty, py = y(env)
        tags = _kind(_TRUTH, np.where(pending, ty, tx))
        payloads = (truthy | (py != 0)) if settles else (truthy & (py != 0))
        return tags, payloads + 0.0
    return short_circuit


_TEMPLATES: Dict[str, Callable[..., Node]] = {
    "checked": _checked, "quotient": _quotient, "modulo": _modulo,
    "compare": _compare, "select": _select, "clamp": _clamp,
    "negating": _negating, "not": _not, "short_circuit": _short_circuit}


def _conditional(condition: Node, then_branch: Node, else_branch: Node
                 ) -> Node:
    def conditional(env):
        tc, pc = condition(env)
        then = pc != 0
        (tt, pt), (te, pe) = then_branch(env), else_branch(env)
        return (np.where(tc <= TAG_FLOAT, np.where(then, tt, te),
                         _kind(_TRUTH, tc)),
                np.where(then, pt, pe))
    return conditional


# -- compilation ----------------------------------------------------------------


def _constant(tags: float, payloads: float) -> Node:
    rows = np.float64(tags), np.float64(payloads)

    def constant(env):
        return rows
    return constant


def _children(node: Expression) -> Tuple[Expression, ...]:
    if isinstance(node, UnaryOp):
        return (node.operand,)
    if isinstance(node, BinaryOp):
        return node.left, node.right
    if isinstance(node, Conditional):
        return node.condition, node.then_branch, node.else_branch
    if isinstance(node, Call):
        return tuple(node.arguments)
    return ()


def _compile(node: Expression, names: Collection[str],
             functions: Mapping[str, Callable[..., Any]]) -> Node:
    """The node of *node*, or None when it reads no name of *names*."""
    if isinstance(node, Variable):
        name = node.name

        def variable(env):
            return env[name]
        return variable
    if isinstance(node, Present):
        if node.channel not in names:
            return None
        channel = node.channel
        tag = np.float64(TAG_BOOL)

        def present(env):
            return tag, (env[channel][0] != TAG_ABSENT) + 0.0
        return present
    operands = [_compile(child, names, functions)
                for child in _children(node)]
    if all(operand is None for operand in operands):
        return None
    operands = [_lowered(child, operand, functions)
                for child, operand in zip(_children(node), operands)]
    if isinstance(node, Conditional):
        return _conditional(*operands)
    if isinstance(node, UnaryOp):
        row = UNARY_OPERATORS[node.op]
    elif isinstance(node, BinaryOp):
        row = BINARY_OPERATORS[node.op]
    else:
        row = FUNCTIONS[node.function]
    template, *parameters = row.lowering
    return _TEMPLATES[template](row, *operands, *parameters)


def _lowered(node: Expression, compiled: Optional[Node],
             functions: Mapping[str, Callable[..., Any]]) -> Node:
    """*compiled*, or -- for a subtree reading no name -- the constant it
    folds to: its scalar value, or a bail wherever it is evaluated when
    that value raises or is opaque."""
    if compiled is not None:
        return compiled
    try:
        tags, payloads = encode_value(
            compile_expression(node, functions)({}), ObjectTable())
    except Exception:  # noqa: BLE001 - the scalar path reports it
        tags, payloads = TAG_BAIL, 0.0
    return _constant(TAG_BAIL if tags == TAG_OBJ else tags, payloads)


def compile_lanes(expression: Expression, names: Sequence[str],
                  functions: Optional[Mapping[str, Callable[..., Any]]]
                  = None) -> LaneExpression:
    """Lower *expression* over an environment binding *names* to a lane
    closure ``(environment, mask) -> (tags, payloads, bail)``.

    The environment maps each name to its ``(2, lanes)`` plane block; the
    bail mask holds the *mask* lanes whose value the templates cannot
    compute exactly (None when the expression is a constant that does
    not bail).  Tags and payloads are rows, or NumPy scalars when the
    expression is constant.  Raises
    :class:`~repro.core.errors.CodeGenError` for an expression
    :func:`~repro.ascet.c_expr.lowers` rejects.
    """
    if not lowers(expression, names, functions):
        raise CodeGenError(
            f"{expression.to_source()} has no tagged lowering")
    functions = function_table(functions)
    node = _lowered(expression, _compile(expression, names, functions),
                    functions)

    def lanes(environment: Mapping[str, np.ndarray], mask: np.ndarray):
        tags, payloads = node(environment)
        if np.ndim(tags) == 0 and tags != TAG_BAIL:
            return tags, payloads, None
        return tags, payloads, mask & (tags == TAG_BAIL)
    return lanes
