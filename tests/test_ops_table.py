"""One test per row of the operator table (repro.core.ops), on every backend.

Each row is applied to an operand grid chosen for the edges the backends
handle differently -- int64 bounds, the 2^53 limit of exact int/double
conversion, signed zero, infinities, bools, ABSENT and an opaque string --
and every backend must agree with the reference evaluator on the value
(with its concrete type) or on the exception type and message:

* the closure compiler, on the generic node and, for binary rows, on both
  literal-operand specialisations;
* one lane-masked row of tagged lanes (only the lane selected by the
  mask evaluates: it computes the reference value and type, or is flagged
  for the scalar path -- always when the reference raises, and only where
  the tagged templates cannot be exact), and the batch backend, whose
  per-lane scalar re-run reproduces the exact error;
* the native C backend when the row has a tagged lowering and a compiler
  exists; whether the emitter lowers the row -- and that the batch backend
  vectorizes exactly the ops native lowers -- is checked everywhere;
* the lint, whose constant folding, kind and interval transfer must be
  sound for the row on numeric operands.

The tests are generated from the table, so a new row without a backend
able to run it fails here.
"""

import inspect
import itertools
import math

import numpy as np
import pytest

from repro.analysis.lint.expr_check import AbstractValue, check_expression
from repro.ascet.c_expr import TaggedEmitter, lowers
from repro.core.errors import CodeGenError
from repro.core.components import ExpressionComponent
from repro.core.expr_compile import compile_expression
from repro.core.expr_eval import ExpressionEvaluator
from repro.core.expressions import (BinaryOp, Call, Conditional, Literal,
                                    Present, UnaryOp, Variable)
from repro.core.ops import BINARY_OPERATORS, FUNCTIONS, UNARY_OPERATORS
from repro.core.values import ABSENT, Stream
from repro.notations.dfd import DataFlowDiagram
from repro.simulation import compile_flat, compile_native, native_available
from repro.simulation.batch_ir import compile_batch
from repro.simulation.lanes import (ObjectTable, compile_lanes, decode_value,
                                   encode_values)
from repro.simulation.native import EMITTER_VERSION, lower_program

GRID = [0, 1, -1, -2 ** 63, 2 ** 63 - 1, 2 ** 53 - 1, 2 ** 53 + 1,
        -0.0, 0.5, math.inf, -math.inf, True, False, ABSENT, "x"]

NAMES = "abcde"

def _arity(row):
    """Operands a row takes: 1 or 2 for operators; required parameters
    for functions (2 for variadic ones such as ``min``)."""
    if row.symbol in UNARY_OPERATORS and UNARY_OPERATORS[row.symbol] is row:
        return 1
    if row.symbol in BINARY_OPERATORS and BINARY_OPERATORS[row.symbol] is row:
        return 2
    try:
        parameters = inspect.signature(row.apply).parameters.values()
    except ValueError:
        return 2
    return sum(1 for p in parameters if p.default is inspect.Parameter.empty)


def _cases(arity):
    """Operand tuples: the full grid for up to two operands; otherwise
    each position sweeps the grid while the others stay at 1."""
    if arity <= 2:
        return list(itertools.product(GRID, repeat=arity))
    cases = []
    for position in range(arity):
        for value in GRID:
            operands = [1] * arity
            operands[position] = value
            cases.append(tuple(operands))
    return cases


def _node(kind, row, operands):
    if kind == "unary":
        return UnaryOp(row.symbol, operands[0])
    if kind == "binary":
        return BinaryOp(row.symbol, *operands)
    return Call(row.symbol, tuple(operands))


ROWS = ([("unary", row) for row in UNARY_OPERATORS.values()]
        + [("binary", row) for row in BINARY_OPERATORS.values()]
        + [("function", row) for row in FUNCTIONS.values()])
ROW_IDS = [f"{kind}:{row.symbol}" for kind, row in ROWS]


def outcome(thunk):
    """A value with its concrete type (``repr`` tells -0.0 from 0.0), or
    the raised exception's type and message."""
    try:
        value = thunk()
    except Exception as exc:  # noqa: BLE001 - the comparison IS the test
        return ("error", type(exc).__name__, str(exc))
    return ("value", type(value).__name__, repr(value))


def _exact(value):
    """A value a tagged lane holds exactly (not an opaque object)."""
    return value is ABSENT or type(value) in (float, bool) or (
        type(value) is int and abs(value) < 2 ** 53)


def _tagged_exact(row, operands, want):
    """Whether the tagged templates must compute this case without a
    bail: exact operands, an exact result, no float ``%``."""
    if row.lowering[0] == "modulo" and float in map(type, operands):
        return False
    return all(map(_exact, operands)) and (
        want[1] != "int" or abs(int(want[2])) < 2 ** 53)


def _variables(arity):
    return [Variable(name) for name in NAMES[:arity]]


def _environment(operands):
    return dict(zip(NAMES, operands))


def _probe_model(expression, arity):
    """A flattenable wrapper around one expression block."""
    block = ExpressionComponent("Row", {"out": expression})
    dfd = DataFlowDiagram("RowProbe")
    for name in NAMES[:arity]:
        block.add_input(name)
        dfd.add_input(name)
    block.add_output("out")
    dfd.add_output("out")
    dfd.add_subcomponent(block)
    for name in NAMES[:arity]:
        dfd.connect(name, f"Row.{name}")
    dfd.connect("Row.out", "out")
    return dfd


@pytest.mark.parametrize("kind,row", ROWS, ids=ROW_IDS)
def test_row_agrees_on_every_backend(kind, row):
    arity = _arity(row)
    cases = _cases(arity)
    expression = _node(kind, row, _variables(arity))
    evaluator = ExpressionEvaluator()
    expected = [outcome(lambda: evaluator.evaluate(
        expression, _environment(operands))) for operands in cases]

    # closure compiler, generic node
    compiled = compile_expression(expression)
    for operands, want in zip(cases, expected):
        assert outcome(lambda: compiled(_environment(operands))) == want, \
            (row.symbol, operands)

    # closure compiler, literal-operand specialisations
    if kind == "binary":
        for operands in cases:
            for side in (0, 1):
                shape = _variables(2)
                shape[side] = Literal(operands[side])
                node = BinaryOp(row.symbol, *shape)
                environment = _environment(operands)
                assert outcome(lambda: compile_expression(node)(
                    environment)) == outcome(lambda: evaluator.evaluate(
                        node, environment)), (row.symbol, operands, side)

    # one lane-masked row of tagged lanes: only the selected lane is
    # evaluated; it is exact or flagged for the scalar path
    names = NAMES[:arity]
    assert lowers(expression, names) == bool(row.lowering), row.symbol
    if row.lowering:
        lanes = compile_lanes(expression, names)
        objects = ObjectTable()
        environment = {}
        for position, name in enumerate(names):
            environment[name] = np.array(encode_values(
                [operands[position] for operands in cases], objects))
        for lane, want in enumerate(expected):
            mask = np.zeros(len(cases), dtype=bool)
            mask[lane] = True
            with np.errstate(all="ignore"):
                tags, payloads, bail = lanes(environment, mask)
            flagged = np.zeros_like(mask) if bail is None \
                else np.broadcast_to(bail, mask.shape)
            assert not flagged[~mask].any(), (row.symbol, cases[lane])
            if flagged[lane]:
                assert want[0] == "error" or not _tagged_exact(
                    row, cases[lane], want), (row.symbol, cases[lane])
                continue
            got = outcome(lambda: decode_value(
                np.broadcast_to(tags, mask.shape)[lane],
                np.broadcast_to(payloads, mask.shape)[lane], objects))
            assert got == want, (row.symbol, cases[lane])

    # batch backend: per-lane scalar re-run gives the exact error
    model = _probe_model(expression, arity)
    battery = [(str(lane), {name: Stream([value]) for name, value
                            in _environment(operands).items()}, 1)
               for lane, operands in enumerate(cases)]
    for lane_outcome, want in zip(compile_batch(model).run_battery(battery),
                                  expected):
        if lane_outcome.exception is not None:
            exc = lane_outcome.exception
            got = ("error", type(exc).__name__, str(exc))
        else:
            value = lane_outcome.trace.outputs["out"].values()[0]
            got = ("value", type(value).__name__, repr(value))
        assert got == want, (row.symbol, lane_outcome.name)

    # native: the emitter lowers exactly the rows with a tagged template,
    # and batch vectorizes exactly the ops native lowers
    lowered = lower_program(compile_flat(model), EMITTER_VERSION)
    assert bool(lowered.lowered_ops) == bool(row.lowering), row.symbol
    assert compile_batch(model).vectorized_ops == lowered.lowered_ops, \
        row.symbol
    if row.lowering and native_available():
        step = compile_native(model).step
        for operands, want in zip(cases, expected):
            got = outcome(lambda: step(_environment(operands), None, 0)[0]
                          ["out"])
            assert got == want, (row.symbol, operands)


def _numeric(value):
    return type(value) in (int, float, bool)


def _family(kinds):
    return {"num" if kind == "bool" else kind for kind in kinds}


@pytest.mark.parametrize("kind,row", ROWS, ids=ROW_IDS)
def test_row_abstract_transfer_is_sound(kind, row):
    arity = _arity(row)
    evaluator = ExpressionEvaluator()
    variables = _node(kind, row, _variables(arity))
    for operands in _cases(arity):
        if not all(_numeric(value) for value in operands):
            continue
        try:
            result = evaluator.evaluate(variables, _environment(operands))
        except Exception:  # noqa: BLE001 - only values are transferred
            continue
        if isinstance(result, float) and math.isnan(result):
            continue
        # point intervals without constants exercise the interval transfer
        env = {name: AbstractValue(
                   kinds=frozenset({"bool" if type(v) is bool else "num"}),
                   low=v, high=v)
               for name, v in _environment(operands).items()}
        value, _ = check_expression(variables, env, row.symbol)
        assert _family({"bool" if type(result) is bool else "num"}) \
            <= _family(value.kinds), (row.symbol, operands)
        if value.low is not None:
            assert value.low <= result, (row.symbol, operands)
        if value.high is not None:
            assert result <= value.high, (row.symbol, operands)
        # literal operands fold to the evaluator's constant
        literals = _node(kind, row, [Literal(v) for v in operands])
        folded, _ = check_expression(literals, {}, row.symbol)
        assert (type(folded.const), folded.const) == (type(result), result), \
            (row.symbol, operands)


@pytest.mark.parametrize("row", [row for row in BINARY_OPERATORS.values()
                                 if row.divisor],
                         ids=lambda row: row.symbol)
def test_divisor_rows_flag_zero_divisors(row):
    for zero in (0, 0.0, False):
        node = BinaryOp(row.symbol, Variable("a"), Literal(zero))
        _, findings = check_expression(
            node, {"a": AbstractValue(kinds=frozenset({"num"}))}, "row")
        assert [(f.rule, f.severity.value) for f in findings] == \
            [("expr-div-by-zero", "error")], (row.symbol, zero)


_A, _B, _C = Variable("a"), Variable("b"), Variable("c")

#: Expressions at the edges of the tagged lowering: literal types and
#: ranges, unbound names, unknown and arity-mismatched rows, rows without
#: a template, custom and shadowed functions.
LOWERING_CASES = [
    Literal(1.5), Literal(True), Literal(2 ** 63 - 1), Literal(-2 ** 63),
    Literal(2 ** 63), Literal("x"), Literal(ABSENT), _A, Variable("zz"),
    Present("a"), Present("zz"), UnaryOp("-", _A), UnaryOp("~", _A),
    UnaryOp("not", Literal("x")), BinaryOp("and", _A, Variable("zz")),
    BinaryOp("**", _A, _B), BinaryOp("%", _A, Literal(2 ** 70)),
    Call("abs", (_A,)), Call("abs", (_A, _B)), Call("min", (_A,)),
    Call("limit", (_A, _B, _C)), Call("limit", (_A, _B)),
    Call("sqrt", (_A,)), Call("custom", (_A,)),
    Conditional(BinaryOp(">", _A, _B), _A, Literal(0)),
    Conditional(_A, _B, Literal("x")),
]


@pytest.mark.parametrize("shadowed", [False, True])
def test_lowering_predicate_matches_the_emitter(shadowed):
    """``lowers`` is the emitter's only rule -- the one by which batch
    vectorizes what native lowers: the emitter rejects exactly what it
    rejects, and emits every expression it accepts."""
    functions = {"custom": abs}
    if shadowed:
        functions["abs"] = lambda value: value
    names = "abc"
    for node in LOWERING_CASES:
        emitter = TaggedEmitter({name: f"V[{index}]" for index, name
                                 in enumerate(names)}, "bail", functions)
        try:
            emitter.emit(node)
        except CodeGenError:
            emitted = False
        else:
            emitted = True
        assert lowers(node, names, functions) == emitted, node
