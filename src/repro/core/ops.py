"""The operator table of the AutoMoDe base language.

Every unary operator, binary operator and built-in function of the base
language (paper Sec. 3.2) is one :class:`Operator` row below; this module
is the only place an operator's meaning is defined.  The backends derive
from the rows instead of restating them:

* the reference evaluator (:mod:`repro.core.expr_eval`) and the closure
  compiler (:mod:`repro.core.expr_compile`) call :attr:`Operator.apply` on
  present operands and report the exceptions listed in
  :attr:`Operator.errors` through :meth:`Operator.failure`;
* the batch compiler (:mod:`repro.core.expr_batch`) lifts
  :attr:`Operator.apply` into lane kernels;
* the C translators (:mod:`repro.ascet.c_expr`) spell a row with
  :attr:`Operator.c` in deployed code and lower it to exact tagged C with
  the template named by :attr:`Operator.lowering`;
* the lint (:mod:`repro.analysis.lint.expr_check`) checks operands against
  :attr:`Operator.operands` and :attr:`Operator.divisor` and derives the
  abstract result from :attr:`Operator.kind` and :attr:`Operator.interval`.

Evaluation-order rules are not rows; each backend applies them around the
table: an absent operand makes the result absent before any row is
consulted, ``and``/``or`` evaluate their right operand only when the left
one does not settle the result (:attr:`Operator.settles`), and any
exception a called function raises is reported by :func:`call_failure`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from .errors import ExpressionEvalError

_NUM = frozenset({"num"})
_BOOL = frozenset({"bool"})

#: Result bounds of an interval transfer: ``(low, high)``, None = unknown.
Bounds = Tuple[Optional[float], Optional[float]]


@dataclass(frozen=True)
class Operator:
    """One row of the operator table.

    ``apply`` is the Python semantics on present operands, ``c`` the
    deployed-C spelling and ``lowering`` the
    :class:`~repro.ascet.c_expr.TaggedEmitter` template: its name, then
    its parameters (empty: no exact C lowering).  ``interval`` maps the
    abstract operands (objects with ``low``, ``high`` and ``kinds``) to
    the result bounds, ``kind`` is the set of abstract kinds of the
    result, ``operands`` the lint's precondition on operand kinds
    (``"any"``, ``"numeric"`` or ``"ordered"``) and ``divisor`` marks rows
    whose right operand must not be zero.  ``errors`` maps the exception
    types a binary row reports as
    :class:`~repro.core.errors.ExpressionEvalError` to message templates
    (fields ``op``, ``left``, ``right`` and ``source``); other exceptions,
    and those of unary rows, propagate raw.  ``settles`` is set on the
    short-circuit rows only: the result when the left operand's truth
    value equals it.
    """

    symbol: str
    apply: Callable[..., Any]
    c: str
    lowering: Tuple[str, ...] = ()
    interval: Optional[Callable[..., Bounds]] = None
    kind: frozenset = _NUM
    operands: str = "any"
    divisor: bool = False
    errors: Mapping[type, str] = field(default_factory=dict)
    settles: Optional[bool] = None

    @property
    def wraps(self) -> Tuple[type, ...]:
        """The exception types :meth:`failure` reports, for ``except``."""
        return tuple(self.errors)

    def failure(self, exc: BaseException, left: Any, right: Any,
                expression: Any) -> ExpressionEvalError:
        """The error reporting *exc*, raised by applying this row to
        *left* and *right* while evaluating the AST node *expression*."""
        template = next(template for kind, template in self.errors.items()
                        if isinstance(exc, kind))
        return ExpressionEvalError(template.format(
            op=self.symbol, left=left, right=right,
            source=expression.to_source()))


def call_failure(name: str, exc: BaseException) -> ExpressionEvalError:
    """The error reporting an exception raised by the called *name*."""
    return ExpressionEvalError(f"error calling {name}: {exc}")


def unknown(what: str, name: str) -> ExpressionEvalError:
    """The error for an operator or function without a row."""
    return ExpressionEvalError(f"unknown {what} {name!r}")


# --------------------------------------------------------------------------
# Python semantics
# --------------------------------------------------------------------------


def exact_quotient(a: Any, b: Any) -> Any:
    """Int-exact division: ``6 / 3 == 2`` stays an int, ``7 / 2 == 3.5``.

    A zero divisor raises :class:`ZeroDivisionError` before the operand
    types are looked at, so ``'x' / 0`` is a division by zero.
    """
    if b == 0:
        raise ZeroDivisionError("division by zero")
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    return a / b


def _conjunction(a: Any, b: Any) -> bool:
    return bool(a and b)


def _disjunction(a: Any, b: Any) -> bool:
    return bool(a or b)


def _limit(value, low, high):
    """Clamp *value* into [low, high] (the LIMIT block primitive)."""
    return max(low, min(high, value))


def _interpolate(x, x0, y0, x1, y1):
    """Linear interpolation primitive used by lookup-table style blocks."""
    if x1 == x0:
        return y0
    alpha = (x - x0) / (x1 - x0)
    return y0 + alpha * (y1 - y0)


def _sign(x):
    """Sign primitive: -1, 0 or 1 (named so evaluators stay picklable)."""
    return (x > 0) - (x < 0)


# --------------------------------------------------------------------------
# interval transfer
# --------------------------------------------------------------------------


def _truth(value: Optional[bool]) -> Bounds:
    """Bounds of a boolean result, decided (True/False) or not (None)."""
    return (0, 1) if value is None else (int(value), int(value))


def _negated(x) -> Bounds:
    return (None if x.high is None else -x.high,
            None if x.low is None else -x.low)


def _sum(x, y) -> Bounds:
    return (None if x.low is None or y.low is None else x.low + y.low,
            None if x.high is None or y.high is None else x.high + y.high)


def _difference(x, y) -> Bounds:
    return (None if x.low is None or y.high is None else x.low - y.high,
            None if x.high is None or y.low is None else x.high - y.low)


def _product(x, y) -> Bounds:
    if None in (x.low, x.high, y.low, y.high):
        return None, None
    products = [x.low * y.low, x.low * y.high, x.high * y.low,
                x.high * y.high]
    return min(products), max(products)


def _ordering(holds: Callable[[Any, Any], bool],
              ascending: bool) -> Callable[..., Bounds]:
    """Transfer of ``<``/``<=`` (*ascending*) and ``>``/``>=``: decided
    when the relation holds at the operands' worst pair of ends, or fails
    at their best pair."""
    def transfer(x, y) -> Bounds:
        worst, best = (x.high, y.low), (x.low, y.high)
        if not ascending:
            worst, best = best, worst
        if None not in worst and holds(*worst):
            return _truth(True)
        if None not in best and not holds(*best):
            return _truth(False)
        return _truth(None)
    return transfer


def _equality(equal: bool) -> Callable[..., Bounds]:
    """Transfer of ``==``/``!=``: operands of disjoint kinds are never
    equal (bools count as numbers, since ``True == 1``)."""
    def family(kinds) -> frozenset:
        return frozenset("num" if kind == "bool" else kind for kind in kinds)

    def transfer(x, y) -> Bounds:
        if family(x.kinds) & family(y.kinds):
            return _truth(None)
        return _truth(not equal)
    return transfer


def _undecided(*operands) -> Bounds:
    return _truth(None)


def _nonnegative(*operands) -> Bounds:
    return 0, None


def _extremum(choose: Callable[[Sequence[Any]], Any]
              ) -> Callable[..., Bounds]:
    """Transfer of ``min``/``max``: *choose* over the operand ends."""
    def transfer(*operands) -> Bounds:
        ends = ([x.low for x in operands], [x.high for x in operands])
        return tuple(None if not bounds or None in bounds else choose(bounds)
                     for bounds in ends)
    return transfer


# --------------------------------------------------------------------------
# the table
# --------------------------------------------------------------------------

_TYPE_CLASH = {TypeError: "cannot apply {op!r} to {left!r} and {right!r}"}


def _arithmetic(symbol: str, apply: Callable[[Any, Any], Any],
                checked: str, interval: Callable[..., Bounds]) -> Operator:
    return Operator(symbol, apply, c=symbol, lowering=("checked", checked),
                    errors=_TYPE_CLASH, operands="numeric",
                    interval=interval)


def _comparison(symbol: str, apply: Callable[[Any, Any], bool],
                operands: str, interval: Callable[..., Bounds]) -> Operator:
    return Operator(symbol, apply, c=symbol, lowering=("compare",),
                    errors=_TYPE_CLASH, operands=operands, kind=_BOOL,
                    interval=interval)


def _rows(*rows: Operator) -> Dict[str, Operator]:
    return {row.symbol: row for row in rows}


UNARY_OPERATORS: Dict[str, Operator] = _rows(
    Operator("-", operator.neg, c="-",
             lowering=("negating", "-{x}_f", "-{x}_i"),
             operands="numeric", interval=_negated),
    Operator("not", operator.not_, c="!", lowering=("not",), kind=_BOOL,
             interval=_undecided),
)

BINARY_OPERATORS: Dict[str, Operator] = _rows(
    Operator("and", _conjunction, c="&&", lowering=("short_circuit",),
             kind=_BOOL, interval=_undecided, settles=False),
    Operator("or", _disjunction, c="||", lowering=("short_circuit",),
             kind=_BOOL, interval=_undecided, settles=True),
    _arithmetic("+", operator.add, "add", _sum),
    _arithmetic("-", operator.sub, "sub", _difference),
    _arithmetic("*", operator.mul, "mul", _product),
    # Python modulo: the sign follows the divisor, and a zero divisor
    # raises the host language's raw ZeroDivisionError
    Operator("%", operator.mod, c="%", lowering=("modulo",),
             errors=_TYPE_CLASH, operands="numeric", divisor=True),
    Operator("/", exact_quotient, c="/", lowering=("quotient",),
             errors={ZeroDivisionError: "division by zero in {source}",
                     **_TYPE_CLASH},
             operands="numeric", divisor=True),
    _comparison("==", operator.eq, "any", _equality(True)),
    _comparison("!=", operator.ne, "any", _equality(False)),
    _comparison("<", operator.lt, "ordered", _ordering(operator.lt, True)),
    _comparison("<=", operator.le, "ordered", _ordering(operator.le, True)),
    _comparison(">", operator.gt, "ordered", _ordering(operator.gt, False)),
    _comparison(">=", operator.ge, "ordered",
                _ordering(operator.ge, False)),
)

FUNCTIONS: Dict[str, Operator] = _rows(
    Operator("abs", abs, "automode_abs",
             ("negating", "fabs({x}_f)", "({x}_i < 0 ? -{x}_i : {x}_i)"),
             _nonnegative),
    Operator("min", min, "automode_min", ("select", "<"), _extremum(min)),
    Operator("max", max, "automode_max", ("select", ">"), _extremum(max)),
    Operator("limit", _limit, "automode_limit"),
    Operator("interpolate", _interpolate, "automode_interp"),
    Operator("sqrt", math.sqrt, "sqrtf"),
    Operator("floor", math.floor, "floorf"),
    Operator("ceil", math.ceil, "ceilf"),
    Operator("round", round, "roundf"),
    Operator("sign", _sign, "automode_sign"),
)

#: Built-in functions callable from base-language expressions.
BUILTIN_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    name: row.apply for name, row in FUNCTIONS.items()}


def function_table(custom: Optional[Mapping[str, Callable[..., Any]]] = None
                   ) -> Dict[str, Callable[..., Any]]:
    """The built-in functions, extended (and possibly shadowed) by
    *custom* -- the lookup table of every evaluator and compiler."""
    table = dict(BUILTIN_FUNCTIONS)
    if custom:
        table.update(custom)
    return table
