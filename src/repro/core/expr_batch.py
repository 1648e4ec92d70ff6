"""Lane-masked batch compilation of base-language ASTs over NumPy rows.

The scalar compiler (:mod:`repro.core.expr_compile`) lowers an AST to a
closure ``environment -> value`` evaluated once per tick per scenario.
This module lowers the *same* AST to a closure
``(environment, mask) -> row`` that evaluates one tick of a whole scenario
battery at once: the environment maps names to ``(S,)`` object ndarrays
(one lane per scenario), *mask* is a boolean ``(S,)`` array selecting the
lanes to evaluate, and the result is an ``(S,)`` object ndarray.

**Why object dtype.**  Lanes hold ordinary Python objects -- unbounded
ints, genuine bools, floats, strings and the :data:`~repro.core.values.ABSENT`
singleton -- and the kernels are :func:`numpy.frompyfunc` liftings of the
rows of the operator table :mod:`repro.core.ops`, the same per-element
functions the scalar engines apply.  This sidesteps the classic
scalar-vs-array divergences by construction: no int64 wraparound, no
NumPy true division, no ``numpy.bool_`` leaking into traces.

**Lane discipline.**  Out-of-mask lanes are never evaluated: binary/call
kernels are applied through fancy indexing on the mask, ``and``/``or``
evaluate their right operand only on lanes whose left operand is present
and truthy/falsy (the short-circuit rule, vectorized), and conditionals
evaluate each branch only on the lanes its condition selects.  A lane that
would not raise under the scalar engine therefore cannot raise here; the
values of out-of-mask lanes in a returned row are unspecified.

**Error discipline.**  A compiled batch expression raises *whenever any
masked lane would raise* under the scalar engine (the kernels run the same
per-element code, so this holds by construction).  It makes no promise
about *which* lane's error surfaces or about exception chaining: the batch
backend treats any raise as "this tick needs the scalar path" and re-runs
the tick per lane through the scalar closures, which reproduces the exact
per-scenario exception, message and tick (see
:mod:`repro.simulation.batch_ir`).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

import numpy as np

from .errors import ExpressionEvalError
from .expressions import (BinaryOp, Call, Conditional, Expression, Literal,
                          Present, UnaryOp, Variable)
from .ops import BINARY_OPERATORS, UNARY_OPERATORS, function_table, unknown
from .values import ABSENT

#: A compiled batch expression: ``(environment, mask) -> row``.
BatchExpression = Callable[[Mapping[str, np.ndarray], np.ndarray], np.ndarray]

_PRESENT = np.frompyfunc(lambda value: value is not ABSENT, 1, 1)
_BOOL = np.frompyfunc(bool, 1, 1)


def _absent_row(size: int) -> np.ndarray:
    row = np.empty(size, dtype=object)
    row.fill(ABSENT)
    return row


def _present_on(row: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``mask & is_present(row)`` as a boolean array (never raises)."""
    return _PRESENT(row).astype(bool) & mask


def _truthy_on(row: np.ndarray, mask: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Truthiness of *row* on *mask* lanes only.

    Returns ``(bools, truthy)``: *bools* is an object row of genuine Python
    bools on the masked lanes (``False`` elsewhere), *truthy* the boolean
    mask of lanes that are masked and truthy.  ``bool()`` is called only on
    masked lanes -- exotic values on other lanes cannot raise spuriously.
    """
    if mask.all():
        bools = _BOOL(row)
        return bools, bools.astype(bool)
    out = np.empty(len(mask), dtype=object)
    out.fill(False)
    if mask.any():
        out[mask] = _BOOL(row[mask])
    return out, out.astype(bool)


def _lift_unary(operation: Callable[[Any], Any]) -> Callable:
    def kernel(value: Any) -> Any:
        if value is ABSENT:
            return ABSENT
        return operation(value)
    return np.frompyfunc(kernel, 1, 1)


def _lift_binary(operation: Callable[[Any, Any], Any]) -> Callable:
    def kernel(a: Any, b: Any) -> Any:
        if a is ABSENT or b is ABSENT:
            return ABSENT
        return operation(a, b)
    return np.frompyfunc(kernel, 2, 1)


# the row's raise only needs to *happen* here: the scalar fallback
# re-derives the exact ExpressionEvalError message per lane
_UNARY_KERNELS = {symbol: _lift_unary(row.apply)
                  for symbol, row in UNARY_OPERATORS.items()}
_BINARY_KERNELS = {symbol: _lift_binary(row.apply)
                   for symbol, row in BINARY_OPERATORS.items()
                   if row.settles is None}


def _apply_masked(kernel: Callable, mask: np.ndarray,
                  *rows: np.ndarray) -> np.ndarray:
    """Apply an n-ary kernel on the masked lanes only."""
    if mask.all():
        return kernel(*rows)
    out = _absent_row(len(mask))
    if mask.any():
        out[mask] = kernel(*(row[mask] for row in rows))
    return out


def compile_batch_expression(expression: Expression,
                             functions: Optional[Mapping[str, Callable[..., Any]]]
                             = None) -> BatchExpression:
    """Lower *expression* to a lane-masked closure ``(env, mask) -> row``.

    *functions* extends (and may override) the built-in function table,
    exactly like :func:`repro.core.expr_compile.compile_expression`.
    """
    return _compile(expression, function_table(functions))


def _compile(expression: Expression,
             functions: Mapping[str, Callable[..., Any]]) -> BatchExpression:
    if isinstance(expression, Literal):
        value = expression.value

        def run_literal(environment, mask):
            row = np.empty(len(mask), dtype=object)
            row.fill(value)
            return row
        return run_literal

    if isinstance(expression, Variable):
        name = expression.name
        message = (f"unknown name {name!r} in expression "
                   f"{expression.to_source()}")

        def run_variable(environment, mask):
            row = environment.get(name)
            if row is None:
                # only an evaluated lane may observe the unknown name
                if mask.any():
                    raise ExpressionEvalError(message)
                return _absent_row(len(mask))
            return row
        return run_variable

    if isinstance(expression, Present):
        channel = expression.channel

        def run_present(environment, mask):
            row = environment.get(channel)
            if row is None:
                out = np.empty(len(mask), dtype=object)
                out.fill(False)
                return out
            return _PRESENT(row)
        return run_present

    if isinstance(expression, UnaryOp):
        return _compile_unary(expression, functions)
    if isinstance(expression, BinaryOp):
        return _compile_binary(expression, functions)

    if isinstance(expression, Conditional):
        condition = _compile(expression.condition, functions)
        then_branch = _compile(expression.then_branch, functions)
        else_branch = _compile(expression.else_branch, functions)

        def run_conditional(environment, mask):
            value = condition(environment, mask)
            chosen = _present_on(value, mask)
            _, then_mask = _truthy_on(value, chosen)
            else_mask = chosen & ~then_mask
            out = _absent_row(len(mask))
            if then_mask.any():
                row = then_branch(environment, then_mask)
                out[then_mask] = row[then_mask]
            if else_mask.any():
                row = else_branch(environment, else_mask)
                out[else_mask] = row[else_mask]
            return out
        return run_conditional

    if isinstance(expression, Call):
        return _compile_call(expression, functions)

    raise ExpressionEvalError(f"unsupported expression node {expression!r}")


def _compile_unary(expression: UnaryOp,
                   functions: Mapping[str, Callable[..., Any]]
                   ) -> BatchExpression:
    operand = _compile(expression.operand, functions)
    kernel = _UNARY_KERNELS.get(expression.op)

    if kernel is None:
        op_name = expression.op

        def run_unknown_unary(environment, mask):
            value = operand(environment, mask)
            if _present_on(value, mask).any():
                raise unknown("unary operator", op_name)
            return _absent_row(len(mask))
        return run_unknown_unary

    def run_unary(environment, mask):
        return _apply_masked(kernel, mask, operand(environment, mask))
    return run_unary


def _compile_binary(expression: BinaryOp,
                    functions: Mapping[str, Callable[..., Any]]
                    ) -> BatchExpression:
    left = _compile(expression.left, functions)
    right = _compile(expression.right, functions)
    op_name = expression.op

    row = BINARY_OPERATORS.get(op_name)
    settles = None if row is None else row.settles
    if settles is not None:
        def run_short_circuit(environment, mask):
            # vectorized short-circuit: a lane settles on its left operand
            # when its truth value is the row's settling value; only the
            # remaining present lanes ever evaluate the right operand
            a = left(environment, mask)
            present_a = _present_on(a, mask)
            _, truthy_a = _truthy_on(a, present_a)
            settled = truthy_a if settles else present_a & ~truthy_a
            out = _absent_row(len(mask))
            out[settled] = settles
            right_mask = present_a & ~settled
            if right_mask.any():
                b = right(environment, right_mask)
                present_b = _present_on(b, right_mask)
                bools_b, _ = _truthy_on(b, present_b)
                out[present_b] = bools_b[present_b]
            return out
        return run_short_circuit

    kernel = _BINARY_KERNELS.get(op_name)
    if kernel is None:
        # unknown operator: both operands still evaluate first, so absence
        # wins on every lane before the lookup failure surfaces
        def run_unknown_binary(environment, mask):
            a = left(environment, mask)
            b = right(environment, mask)
            if (_present_on(a, mask) & _present_on(b, mask)).any():
                raise unknown("binary operator", op_name)
            return _absent_row(len(mask))
        return run_unknown_binary

    def run_binary(environment, mask):
        return _apply_masked(kernel, mask, left(environment, mask),
                             right(environment, mask))
    return run_binary


def _compile_call(expression: Call,
                  functions: Mapping[str, Callable[..., Any]]
                  ) -> BatchExpression:
    function_name = expression.function
    function = functions.get(function_name)
    if function is None:
        # the scalar engines look the function up before evaluating any
        # argument, so an unknown function beats argument errors
        def run_unknown_function(environment, mask):
            if mask.any():
                raise unknown("function", function_name)
            return _absent_row(len(mask))
        return run_unknown_function

    arguments = tuple(_compile(arg, functions) for arg in expression.arguments)
    arity = len(arguments)

    if arity == 0:
        def run_call_niladic(environment, mask):
            # one call per evaluated lane, matching per-scenario call counts
            out = _absent_row(len(mask))
            for index in np.nonzero(mask)[0]:
                out[index] = function()
            return out
        return run_call_niladic

    def call_kernel(*values: Any) -> Any:
        if any(value is ABSENT for value in values):
            return ABSENT
        return function(*values)
    kernel = np.frompyfunc(call_kernel, arity, 1)

    def run_call(environment, mask):
        rows = [argument(environment, mask) for argument in arguments]
        return _apply_masked(kernel, mask, *rows)
    return run_call
