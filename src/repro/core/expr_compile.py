"""Compilation of base-language ASTs to Python closures.

:class:`~repro.core.expr_eval.ExpressionEvaluator` walks the expression
tree for every evaluation -- one ``isinstance`` dispatch chain per node per
tick.  Guards, actions and output expressions are evaluated thousands of
times against different environments but never change shape, so the walk
can be done *once*: :func:`compile_expression` lowers an AST into nested
closures ``environment -> value`` where every dispatch decision, operator
lookup, function lookup and error-message string has been resolved at
compile time.  The compiled simulation engine
(:mod:`repro.simulation.compiled`) runs all of its expression hot paths --
expression-block outputs, MTD guard tables, STD guard/action/emission
tables -- through this module.

Semantics are exactly those of :meth:`ExpressionEvaluator.evaluate`: both
apply the rows of the operator table :mod:`repro.core.ops` and its
evaluation-order rules (ABSENT propagation, short-circuit ``and``/``or``,
error reporting), and a closure raises at evaluation time exactly when the
interpreter raises (an unknown operator with an absent operand still
yields ``ABSENT``, mirroring the interpreter's evaluation order).

The only divergence is *when* structural errors surface: an unsupported
expression node type is reported at compile time (the interpreter can only
notice it during evaluation).

Compiled closures capture resolved function objects and are therefore not
picklable in general; like compiled schedules, they are meant to be rebuilt
per process (the sharded scenario runner pickles the *model* and recompiles
in each worker).  Models stay picklable because nothing in this module is
stored on components.  Compilation snapshots the function table: functions
registered on an evaluator after :meth:`ExpressionEvaluator.compile` are
not seen by previously compiled closures (recompile instead).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

from .errors import ExpressionEvalError
from .expressions import (BinaryOp, Call, Conditional, Expression, Literal,
                          Present, UnaryOp, Variable)
from .ops import (BINARY_OPERATORS, UNARY_OPERATORS, call_failure,
                  function_table, unknown)
from .values import ABSENT, is_present

#: A compiled expression: ``environment -> value``.
CompiledExpression = Callable[[Mapping[str, Any]], Any]

#: Sentinel distinguishing "operand is not a constant" from any constant
#: value (including None).
_NO_CONST = object()


def _literal_constant(expression: Expression) -> Any:
    """The compile-time constant of a literal operand, or ``_NO_CONST``.

    Guards and actions are overwhelmingly ``variable op constant`` shaped
    (``n > 700``, ``ped / 400``), so binary nodes specialize on literal
    operands: the constant is baked into the closure, skipping one closure
    call and one absence check per evaluation.  A hand-built
    ``Literal(ABSENT)`` stays on the generic path so absence propagation is
    untouched.
    """
    if isinstance(expression, Literal) and expression.value is not ABSENT:
        return expression.value
    return _NO_CONST


def compile_expression(expression: Expression,
                       functions: Optional[Mapping[str, Callable[..., Any]]]
                       = None) -> CompiledExpression:
    """Lower *expression* to a closure ``environment -> value``.

    *functions* extends (and may override) the built-in function table,
    exactly like the :class:`ExpressionEvaluator` constructor argument.
    """
    return _compile(expression, function_table(functions))


def _compile(expression: Expression,
             functions: Mapping[str, Callable[..., Any]]) -> CompiledExpression:
    if isinstance(expression, Literal):
        value = expression.value

        def run_literal(environment: Mapping[str, Any]) -> Any:
            return value
        return run_literal

    if isinstance(expression, Variable):
        name = expression.name
        message = (f"unknown name {name!r} in expression "
                   f"{expression.to_source()}")

        def run_variable(environment: Mapping[str, Any]) -> Any:
            try:
                return environment[name]
            except KeyError:
                raise ExpressionEvalError(message) from None
        return run_variable

    if isinstance(expression, Present):
        channel = expression.channel

        def run_present(environment: Mapping[str, Any]) -> Any:
            return is_present(environment.get(channel, ABSENT))
        return run_present

    if isinstance(expression, UnaryOp):
        return _compile_unary(expression, functions)
    if isinstance(expression, BinaryOp):
        return _compile_binary(expression, functions)

    if isinstance(expression, Conditional):
        condition = _compile(expression.condition, functions)
        then_branch = _compile(expression.then_branch, functions)
        else_branch = _compile(expression.else_branch, functions)

        def run_conditional(environment: Mapping[str, Any]) -> Any:
            value = condition(environment)
            if value is ABSENT:
                return ABSENT
            if value:
                return then_branch(environment)
            return else_branch(environment)
        return run_conditional

    if isinstance(expression, Call):
        return _compile_call(expression, functions)

    raise ExpressionEvalError(f"unsupported expression node {expression!r}")


def _compile_unary(expression: UnaryOp,
                   functions: Mapping[str, Callable[..., Any]]
                   ) -> CompiledExpression:
    operand = _compile(expression.operand, functions)
    row = UNARY_OPERATORS.get(expression.op)

    if row is None:
        # The interpreter evaluates the operand (absence still wins) before
        # discovering the operator is unknown; mirror that order.
        op_name = expression.op

        def run_unknown_unary(environment: Mapping[str, Any]) -> Any:
            value = operand(environment)
            if value is ABSENT:
                return ABSENT
            raise unknown("unary operator", op_name)
        return run_unknown_unary

    operation = row.apply

    def run_unary(environment: Mapping[str, Any]) -> Any:
        value = operand(environment)
        if value is ABSENT:
            return ABSENT
        return operation(value)
    return run_unary


def _compile_binary(expression: BinaryOp,
                    functions: Mapping[str, Callable[..., Any]]
                    ) -> CompiledExpression:
    left = _compile(expression.left, functions)
    right = _compile(expression.right, functions)
    op_name = expression.op
    row = BINARY_OPERATORS.get(op_name)

    if row is None:
        # Unknown operator: the interpreter evaluates both operands first,
        # so absence still propagates before the lookup failure surfaces.
        def run_unknown_binary(environment: Mapping[str, Any]) -> Any:
            a = left(environment)
            b = right(environment)
            if a is ABSENT or b is ABSENT:
                return ABSENT
            raise unknown("binary operator", op_name)
        return run_unknown_binary

    settles = row.settles
    if settles is not None:
        def run_short_circuit(environment: Mapping[str, Any]) -> Any:
            a = left(environment)
            if a is ABSENT:
                return ABSENT
            if bool(a) is settles:
                return settles
            b = right(environment)
            return ABSENT if b is ABSENT else bool(b)
        return run_short_circuit

    operation, wraps, failure = row.apply, row.wraps, row.failure

    right_const = _literal_constant(expression.right)
    if right_const is not _NO_CONST:
        def run_binary_const_right(environment: Mapping[str, Any]) -> Any:
            a = left(environment)
            if a is ABSENT:
                return ABSENT
            try:
                return operation(a, right_const)
            except wraps as exc:
                raise failure(exc, a, right_const, expression) from exc
        return run_binary_const_right

    left_const = _literal_constant(expression.left)
    if left_const is not _NO_CONST:
        def run_binary_const_left(environment: Mapping[str, Any]) -> Any:
            b = right(environment)
            if b is ABSENT:
                return ABSENT
            try:
                return operation(left_const, b)
            except wraps as exc:
                raise failure(exc, left_const, b, expression) from exc
        return run_binary_const_left

    def run_binary(environment: Mapping[str, Any]) -> Any:
        a = left(environment)
        b = right(environment)
        if a is ABSENT or b is ABSENT:
            return ABSENT
        try:
            return operation(a, b)
        except wraps as exc:
            raise failure(exc, a, b, expression) from exc
    return run_binary


def _compile_call(expression: Call,
                  functions: Mapping[str, Callable[..., Any]]
                  ) -> CompiledExpression:
    function_name = expression.function
    function = functions.get(function_name)
    if function is None:
        # The interpreter looks the function up before evaluating any
        # argument, so an unknown function beats argument errors.
        def run_unknown_function(environment: Mapping[str, Any]) -> Any:
            raise unknown("function", function_name)
        return run_unknown_function

    arguments = tuple(_compile(arg, functions) for arg in expression.arguments)

    def run_call(environment: Mapping[str, Any]) -> Any:
        values = [argument(environment) for argument in arguments]
        if any(value is ABSENT for value in values):
            return ABSENT
        try:
            return function(*values)
        except Exception as exc:  # noqa: BLE001 - surface as evaluation error
            raise call_failure(function_name, exc) from exc
    return run_call
