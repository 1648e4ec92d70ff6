"""Abstract interpretation of base-language expressions.

Expressions are analysed over an **interval x type x ABSENT** lattice: an
:class:`AbstractValue` tracks which abstract kinds a value may have
(boolean / numeric / enumeration / struct), numeric bounds when the port
types provide them, whether the value may be :data:`~repro.core.values.ABSENT`
at run time, and a constant when the expression is closed.  Every operator
and built-in function is transferred through its row of the operator table
:mod:`repro.core.ops` -- constants fold through the row's Python semantics,
kinds and bounds come from the row's abstract kind and interval transfer
-- so every claim ("this divisor may be zero", "this guard is constant")
is a statement about the real runtime semantics.

Rules discharged here:

* ``expr-unknown-name`` -- a variable not bound in the context environment
  (the static counterpart of the evaluator's ``unknown name`` error, which
  is exactly the failure class the IR verifier promises compiled schedules
  never hit);
* ``expr-unknown-function`` -- a call the evaluator's function table does
  not define;
* ``expr-div-by-zero`` -- a divisor of ``/`` or ``%`` that is provably
  zero (error) or whose bounded interval contains zero (warning);
  unbounded divisors are not flagged (too weak a claim to act on);
* ``expr-type-mismatch`` -- operators whose operand kinds cannot combine
  (arithmetic on enumerations, ordering enums against numbers);
* ``expr-output-type`` / ``expr-undeclared-output`` -- expression
  components whose inferred output kind contradicts the declared port
  type, or which define expressions for undeclared ports;
* ``expr-constant-guard`` -- reported by the machine layer from the
  constness this module computes (interval reasoning proves guards like
  ``speed < -5`` constant-false for ``speed: float[0..300]``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ...core.components import Component, ExpressionComponent
from ...core.expressions import (BinaryOp, Call, Conditional, Expression,
                                 Literal, Present, UnaryOp, Variable)
from ...core.ops import (BINARY_OPERATORS, BUILTIN_FUNCTIONS, FUNCTIONS,
                         UNARY_OPERATORS, Operator)
from ...core.types import (AnyType, BoolType, EnumType, FloatType, IntType,
                           StructType, Type)
from ...core.validation import Severity
from .findings import Finding
from .registry import get_rule

#: Sentinel: "no constant known" (any value incl. None may be a constant).
_NO_CONST = object()

_ALL_KINDS = frozenset({"bool", "num", "enum", "struct"})
_NUMERIC = frozenset({"bool", "num"})


@dataclass(frozen=True)
class AbstractValue:
    """One point of the interval x type x ABSENT lattice.

    ``kinds`` is the set of abstract kinds the (present) value may have;
    ``low``/``high`` bound numeric values when known; ``may_absent`` is
    True when the value can be ABSENT at run time; ``const`` is the value
    the expression always evaluates to *when present* (``_NO_CONST`` when
    unknown).
    """

    kinds: frozenset = _ALL_KINDS
    low: Optional[float] = None
    high: Optional[float] = None
    may_absent: bool = False
    const: Any = _NO_CONST

    @property
    def is_top(self) -> bool:
        return self.kinds == _ALL_KINDS

    def join(self, other: "AbstractValue") -> "AbstractValue":
        low = None if self.low is None or other.low is None \
            else min(self.low, other.low)
        high = None if self.high is None or other.high is None \
            else max(self.high, other.high)
        const = self.const if (self.const is not _NO_CONST
                               and other.const is not _NO_CONST
                               and self.const == other.const) else _NO_CONST
        return AbstractValue(self.kinds | other.kinds, low, high,
                             self.may_absent or other.may_absent, const)


TOP = AbstractValue(may_absent=True)
BOOL_VALUE = AbstractValue(kinds=frozenset({"bool"}), low=0, high=1)


def abstract_of_type(port_type: Type,
                     may_absent: bool = True) -> AbstractValue:
    """The abstract value of a port of the given declared type."""
    if isinstance(port_type, BoolType):
        return replace(BOOL_VALUE, may_absent=may_absent)
    if isinstance(port_type, (IntType, FloatType)):
        return AbstractValue(kinds=frozenset({"num"}), low=port_type.low,
                             high=port_type.high, may_absent=may_absent)
    if isinstance(port_type, EnumType):
        return AbstractValue(kinds=frozenset({"enum"}),
                             may_absent=may_absent)
    if isinstance(port_type, StructType):
        return AbstractValue(kinds=frozenset({"struct"}),
                             may_absent=may_absent)
    return replace(TOP, may_absent=may_absent)


def abstract_of_value(value: Any,
                      may_absent: bool = False) -> AbstractValue:
    """The abstract value of a concrete constant (e.g. an STD variable)."""
    if isinstance(value, bool):
        return AbstractValue(kinds=frozenset({"bool"}), low=int(value),
                             high=int(value), may_absent=may_absent,
                             const=value)
    if isinstance(value, (int, float)):
        return AbstractValue(kinds=frozenset({"num"}), low=value,
                             high=value, may_absent=may_absent, const=value)
    if isinstance(value, str):
        return AbstractValue(kinds=frozenset({"enum"}),
                             may_absent=may_absent, const=value)
    if isinstance(value, dict):
        return AbstractValue(kinds=frozenset({"struct"}),
                             may_absent=may_absent)
    return replace(TOP, may_absent=may_absent)


def environment_of_ports(component: Component) -> Dict[str, AbstractValue]:
    """Input environment of a component: declared types, possibly absent."""
    return {port.name: abstract_of_type(port.port_type, may_absent=True)
            for port in component.input_ports()}


def _finding(rule_id: str, message: str, element: str,
             severity: Optional[Severity] = None,
             suggestion: str = "", **location: Any) -> Finding:
    rule = get_rule(rule_id)
    if severity is None:
        severity = rule.default_severity if rule else Severity.WARNING
    return Finding(rule=rule_id, severity=severity, message=message,
                   element=element, suggestion=suggestion,
                   location={k: v for k, v in location.items()
                             if v is not None})


class _Analyzer:
    """One abstract-interpretation pass over a single expression."""

    def __init__(self, env: Mapping[str, AbstractValue],
                 functions: Optional[Mapping[str, Any]], element: str):
        self.env = env
        self.functions = functions if functions is not None \
            else BUILTIN_FUNCTIONS
        self.element = element
        self.findings: List[Finding] = []

    # -- helpers -----------------------------------------------------------

    def _warn(self, rule_id: str, message: str, **location: Any) -> None:
        self.findings.append(_finding(rule_id, message, self.element,
                                      **location))

    def _error(self, rule_id: str, message: str, **location: Any) -> None:
        self.findings.append(_finding(rule_id, message, self.element,
                                      severity=Severity.ERROR, **location))

    # -- the transfer functions --------------------------------------------

    def visit(self, expression: Expression) -> AbstractValue:
        if isinstance(expression, Literal):
            return abstract_of_value(expression.value)
        if isinstance(expression, Variable):
            value = self.env.get(expression.name)
            if value is None:
                self._error(
                    "expr-unknown-name",
                    f"expression {expression.to_source()} reads "
                    f"{expression.name!r} which is not bound in this "
                    f"context (known: {sorted(self.env)})",
                    name=expression.name)
                return TOP
            return value
        if isinstance(expression, Present):
            # present() turns absence into an ordinary boolean
            return BOOL_VALUE
        if isinstance(expression, UnaryOp):
            return self._visit_unary(expression)
        if isinstance(expression, BinaryOp):
            return self._visit_binary(expression)
        if isinstance(expression, Conditional):
            condition = self.visit(expression.condition)
            then_value = self.visit(expression.then_branch)
            else_value = self.visit(expression.else_branch)
            if condition.const is True:
                result = then_value
            elif condition.const is False:
                result = else_value
            else:
                result = then_value.join(else_value)
            if condition.may_absent:
                result = replace(result, may_absent=True,
                                 const=result.const)
            return result
        if isinstance(expression, Call):
            return self._visit_call(expression)
        return TOP

    def _visit_unary(self, expression: UnaryOp) -> AbstractValue:
        operand = self.visit(expression.operand)
        row = UNARY_OPERATORS.get(expression.op)
        if row is None:
            return replace(TOP, may_absent=operand.may_absent)
        return self._apply(row, expression, [operand])

    def _visit_binary(self, expression: BinaryOp) -> AbstractValue:
        left = self.visit(expression.left)
        right = self.visit(expression.right)
        row = BINARY_OPERATORS.get(expression.op)
        if row is None:
            return replace(TOP, may_absent=left.may_absent
                           or right.may_absent)
        if row.settles is not None and left.const is not _NO_CONST \
                and bool(left.const) is row.settles:
            # the left operand settles the result; the right one never runs
            return replace(abstract_of_value(row.settles),
                           may_absent=left.may_absent or right.may_absent)
        return self._apply(row, expression, [left, right])

    def _visit_call(self, expression: Call) -> AbstractValue:
        arguments = [self.visit(arg) for arg in expression.arguments]
        may_absent = any(arg.may_absent for arg in arguments)
        function = self.functions.get(expression.function)
        if function is None:
            self._error(
                "expr-unknown-function",
                f"call of unknown function {expression.function!r} in "
                f"{expression.to_source()} (known: "
                f"{sorted(self.functions)})",
                function=expression.function)
            return replace(TOP, may_absent=may_absent)
        row = FUNCTIONS.get(expression.function)
        if row is None or function is not row.apply:
            # a custom function: nothing is known about its result
            return replace(TOP, may_absent=may_absent)
        return self._apply(row, expression, arguments)

    def _apply(self, row: Operator, expression: Expression,
               operands: List[AbstractValue]) -> AbstractValue:
        """Transfer *operands* through one operator-table row."""
        self._check_operands(row, expression, operands)
        if row.divisor:
            self._check_divisor(expression, operands[1])
        low, high = row.interval(*operands) if row.interval else (None, None)
        const = _NO_CONST
        if all(x.const is not _NO_CONST for x in operands):
            try:
                const = row.apply(*[x.const for x in operands])
            except Exception:  # noqa: BLE001 - stay abstract on failure
                const = _NO_CONST
        if const is _NO_CONST and row.kind == BOOL_VALUE.kinds \
                and low is not None and low == high:
            const = bool(low)  # the interval transfer decided the test
        if isinstance(const, (int, float)):
            low = high = const
        return AbstractValue(row.kind, low, high,
                             any(x.may_absent for x in operands), const)

    def _check_operands(self, row: Operator, expression: Expression,
                        operands: List[AbstractValue]) -> None:
        if row.operands == "ordered":
            if not _orderable(*operands):
                self._warn(
                    "expr-type-mismatch",
                    f"ordering {row.symbol!r} between incomparable operand "
                    f"types in {expression.to_source()} (raises at "
                    f"evaluation time when both operands are present)")
            return
        if row.operands != "numeric":
            return
        sides = ("operand",) if len(operands) == 1 \
            else ("left operand", "right operand")
        for side, name in zip(operands, sides):
            if not side.is_top and not (side.kinds & _NUMERIC):
                self._warn(
                    "expr-type-mismatch",
                    f"{row.symbol!r} applied to a non-numeric {name} in "
                    f"{expression.to_source()}")

    def _check_divisor(self, expression: Expression,
                       divisor: AbstractValue) -> None:
        if divisor.const is not _NO_CONST \
                and isinstance(divisor.const, (int, float)) \
                and divisor.const == 0:
            self._error(
                "expr-div-by-zero",
                f"division by zero: the divisor of "
                f"{expression.to_source()} is constant 0",
                divisor=repr(divisor.const))
        elif divisor.const is _NO_CONST and divisor.low is not None \
                and divisor.high is not None \
                and divisor.low <= 0 <= divisor.high:
            self._warn(
                "expr-div-by-zero",
                f"possible division by zero in {expression.to_source()}: "
                f"the divisor ranges over [{divisor.low}..{divisor.high}] "
                f"which contains 0",
                low=divisor.low, high=divisor.high)


def _orderable(left: AbstractValue, right: AbstractValue) -> bool:
    if (left.kinds & _NUMERIC) and (right.kinds & _NUMERIC):
        return True
    return bool("enum" in left.kinds and "enum" in right.kinds)


def check_expression(expression: Expression,
                     env: Mapping[str, AbstractValue],
                     element: str,
                     functions: Optional[Mapping[str, Any]] = None
                     ) -> Tuple[AbstractValue, List[Finding]]:
    """Analyse one expression; returns its abstract value and findings."""
    analyzer = _Analyzer(env, functions, element)
    value = analyzer.visit(expression)
    return value, analyzer.findings


def lint_expression_component(component: ExpressionComponent,
                              path: Optional[str] = None) -> List[Finding]:
    """All expression-layer findings of one expression component."""
    path = path or component.name
    env = environment_of_ports(component)
    functions = component._evaluator.functions  # noqa: SLF001
    findings: List[Finding] = []
    declared = set(component.output_names())
    for name, expression in component.output_expressions.items():
        element = f"{path}.{name}"
        value, expr_findings = check_expression(expression, env, element,
                                                functions)
        findings.extend(expr_findings)
        if name not in declared:
            findings.append(_finding(
                "expr-undeclared-output",
                f"expression for {name!r} has no matching declared output "
                f"port on {component.name!r} (it is evaluated every tick "
                f"but its value is dropped)",
                element, suggestion=f"declare an output port {name!r} or "
                                    f"remove the expression"))
            continue
        port_type = component.port(name).port_type
        if not _kind_compatible(value, port_type):
            findings.append(_finding(
                "expr-output-type",
                f"expression for output {name!r} has inferred kind(s) "
                f"{sorted(value.kinds)} incompatible with the declared "
                f"port type {port_type!r}",
                element, kinds=sorted(value.kinds),
                declared=repr(port_type)))
    return findings


def _kind_compatible(value: AbstractValue, port_type: Type) -> bool:
    if value.is_top or isinstance(port_type, (AnyType, StructType)):
        return True
    if isinstance(port_type, BoolType):
        return "bool" in value.kinds
    if isinstance(port_type, (IntType, FloatType)):
        return bool(value.kinds & _NUMERIC)
    if isinstance(port_type, EnumType):
        return "enum" in value.kinds
    return True
