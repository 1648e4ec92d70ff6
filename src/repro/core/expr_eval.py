"""Evaluator for the AutoMoDe base language.

Expressions are evaluated against an *environment* mapping channel/port
names to the values present at the current tick (possibly
:data:`~repro.core.values.ABSENT`).  Evaluation follows the synchronous
convention: an arithmetic or comparison operation whose operand is absent
yields an absent result, whereas ``present(ch)`` turns absence into an
ordinary boolean so that event-triggered behaviour can be expressed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from .errors import ExpressionEvalError
from .expressions import (BinaryOp, Call, Conditional, Expression, Literal,
                          Present, UnaryOp, Variable)
from .expr_compile import _compile
from .expr_parser import parse_expression
from .ops import (BINARY_OPERATORS, BUILTIN_FUNCTIONS, UNARY_OPERATORS,
                  call_failure, function_table, unknown)
from .values import ABSENT, is_absent, is_present


class ExpressionEvaluator:
    """Evaluates base-language ASTs against per-tick environments."""

    def __init__(self, functions: Optional[Mapping[str, Callable[..., Any]]] = None):
        self.functions: Dict[str, Callable[..., Any]] = \
            function_table(functions)

    # Only non-builtin functions travel when an evaluator is pickled (the
    # sharded scenario runner ships whole models to worker processes);
    # builtins are reattached on load, so models using only the base
    # vocabulary never depend on their picklability.
    def __getstate__(self) -> Dict[str, Any]:
        custom = {name: function for name, function in self.functions.items()
                  if BUILTIN_FUNCTIONS.get(name) is not function}
        return {"custom_functions": custom}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.functions = function_table(state.get("custom_functions"))

    def compile(self, expression: Expression) -> Callable[[Mapping[str, Any]], Any]:
        """Lower *expression* to a closure using this evaluator's functions.

        The returned closure ``environment -> value`` reproduces
        :meth:`evaluate` exactly (see :mod:`repro.core.expr_compile`); it
        captures resolved function objects, so it is a per-process artefact
        -- recompile after pickling rather than shipping closures.
        """
        # self.functions is already the complete table (built-ins plus
        # custom) and closures capture resolved functions, never the table:
        # compile against it directly instead of merging a copy per call
        return _compile(expression, self.functions)

    def evaluate(self, expression: Expression, environment: Mapping[str, Any]) -> Any:
        """Evaluate *expression*; absent operands make the result absent."""
        if isinstance(expression, Literal):
            return expression.value
        if isinstance(expression, Variable):
            if expression.name not in environment:
                raise ExpressionEvalError(
                    f"unknown name {expression.name!r} in expression "
                    f"{expression.to_source()}")
            return environment[expression.name]
        if isinstance(expression, Present):
            return is_present(environment.get(expression.channel, ABSENT))
        if isinstance(expression, UnaryOp):
            return self._evaluate_unary(expression, environment)
        if isinstance(expression, BinaryOp):
            return self._evaluate_binary(expression, environment)
        if isinstance(expression, Conditional):
            condition = self.evaluate(expression.condition, environment)
            if is_absent(condition):
                return ABSENT
            branch = expression.then_branch if condition else expression.else_branch
            return self.evaluate(branch, environment)
        if isinstance(expression, Call):
            return self._evaluate_call(expression, environment)
        raise ExpressionEvalError(f"unsupported expression node {expression!r}")

    # -- helpers -------------------------------------------------------------
    def _evaluate_unary(self, expression: UnaryOp, environment: Mapping[str, Any]) -> Any:
        operand = self.evaluate(expression.operand, environment)
        if is_absent(operand):
            return ABSENT
        row = UNARY_OPERATORS.get(expression.op)
        if row is None:
            raise unknown("unary operator", expression.op)
        return row.apply(operand)

    def _evaluate_binary(self, expression: BinaryOp, environment: Mapping[str, Any]) -> Any:
        row = BINARY_OPERATORS.get(expression.op)
        if row is not None and row.settles is not None:
            left = self.evaluate(expression.left, environment)
            if is_absent(left):
                return ABSENT
            if bool(left) is row.settles:
                return row.settles
            right = self.evaluate(expression.right, environment)
            return ABSENT if is_absent(right) else bool(right)

        left = self.evaluate(expression.left, environment)
        right = self.evaluate(expression.right, environment)
        if is_absent(left) or is_absent(right):
            return ABSENT
        if row is None:
            raise unknown("binary operator", expression.op)
        try:
            return row.apply(left, right)
        except row.wraps as exc:
            raise row.failure(exc, left, right, expression) from exc

    def _evaluate_call(self, expression: Call, environment: Mapping[str, Any]) -> Any:
        function = self.functions.get(expression.function)
        if function is None:
            raise unknown("function", expression.function)
        arguments = [self.evaluate(arg, environment) for arg in expression.arguments]
        if any(is_absent(arg) for arg in arguments):
            return ABSENT
        try:
            return function(*arguments)
        except Exception as exc:  # noqa: BLE001 - surface as evaluation error
            raise call_failure(expression.function, exc) from exc


_DEFAULT_EVALUATOR = ExpressionEvaluator()


def evaluate(expression, environment: Mapping[str, Any]) -> Any:
    """Convenience wrapper: evaluate an AST or source string."""
    if isinstance(expression, str):
        expression = parse_expression(expression)
    return _DEFAULT_EVALUATOR.evaluate(expression, environment)
