"""Expression-to-C translation shared by the OA generator and native backend.

Two consumers, two fidelity levels:

* :func:`expression_to_c` -- the ASCET-SD project generator's translation
  (:mod:`repro.ascet.codegen`): one base-language expression becomes one C
  expression over implementation-typed signals.  This is deliberately the
  *deployed-semantics* view of the paper's Sec. 3.4 pipeline: float32
  arithmetic, no ABSENT, enum literals as symbolic constants.

* :class:`TaggedEmitter` -- the native simulation backend's translation
  (:mod:`repro.simulation.native`): one expression becomes a C *statement
  sequence* over tagged values (ABSENT / int64 / double / bool / opaque
  object) that replicates the Python semantics **exactly** or jumps to a
  caller-supplied bail label, where the caller re-runs the op through the
  original Python closures.  Expressions it cannot lower at all raise
  :class:`~repro.core.errors.CodeGenError` at emission time.

Both read the operator table :mod:`repro.core.ops`: a row's
:attr:`~repro.core.ops.Operator.c` is its deployed spelling and its
:attr:`~repro.core.ops.Operator.lowering` names the tagged template below.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import CodeGenError
from ..core.expressions import (BinaryOp, Call, Conditional, Expression,
                                Literal, Present, UnaryOp, Variable)
from ..core.impl_types import (BOOL8, FixedPointType, ImplementationType,
                               ImplEnumType, MachineIntType)
from ..core.ops import (BINARY_OPERATORS, FUNCTIONS, UNARY_OPERATORS,
                        Operator, function_table)
from ..core.types import BoolType, EnumType, FloatType, IntType, Type

# --------------------------------------------------------------------------
# deployed-semantics translation (ASCET-SD generator)
# --------------------------------------------------------------------------

def expression_to_c(expression: Expression) -> str:
    """Translate a base-language expression to C source."""
    if isinstance(expression, Literal):
        value = expression.value
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, str):
            return f"E_{value.upper()}"
        if isinstance(value, float):
            return f"{value!r}f"
        return repr(value)
    if isinstance(expression, Variable):
        return expression.name
    if isinstance(expression, Present):
        return f"msg_present({expression.channel})"
    if isinstance(expression, UnaryOp):
        operator = _c_operator(UNARY_OPERATORS, expression.op)
        return f"({operator}{expression_to_c(expression.operand)})"
    if isinstance(expression, BinaryOp):
        operator = _c_operator(BINARY_OPERATORS, expression.op)
        return (f"({expression_to_c(expression.left)} {operator} "
                f"{expression_to_c(expression.right)})")
    if isinstance(expression, Conditional):
        return (f"({expression_to_c(expression.condition)} ? "
                f"{expression_to_c(expression.then_branch)} : "
                f"{expression_to_c(expression.else_branch)})")
    if isinstance(expression, Call):
        row = FUNCTIONS.get(expression.function)
        function = expression.function if row is None else row.c
        arguments = ", ".join(expression_to_c(arg) for arg in expression.arguments)
        return f"{function}({arguments})"
    raise CodeGenError(f"cannot translate expression node {expression!r}")


def _c_operator(table: Mapping[str, Operator], symbol: str) -> str:
    try:
        return table[symbol].c
    except KeyError:
        raise CodeGenError(f"no C operator for {symbol!r}") from None


def c_type_of(impl_type: Optional[ImplementationType], abstract: Type) -> str:
    """Pick the C type name for a signal."""
    if isinstance(impl_type, MachineIntType):
        prefix = "sint" if impl_type.signed else "uint"
        return f"{prefix}{impl_type.bits}"
    if isinstance(impl_type, FixedPointType):
        return f"sint{impl_type.bits}"
    if isinstance(impl_type, ImplEnumType):
        return f"uint{impl_type.bits}"
    if impl_type is BOOL8 or isinstance(abstract, BoolType):
        return "boolean"
    if isinstance(abstract, IntType):
        return "sint32"
    if isinstance(abstract, (FloatType,)):
        return "float32"
    if isinstance(abstract, EnumType):
        return "uint8"
    return "float32"


# --------------------------------------------------------------------------
# exact-semantics tagged translation (native simulation backend)
# --------------------------------------------------------------------------

#: Value tags of the native backend's slot plane.  ABSENT is 0 so one
#: ``memset`` re-establishes the all-absent tick invariant the IR verifier's
#: ``ir-may-skip-read`` codegen obligation requires.
TAG_ABSENT, TAG_INT, TAG_FLOAT, TAG_BOOL, TAG_OBJ = 0, 1, 2, 3, 4

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1
#: Largest magnitude at which int64 -> double conversion is exact; mixed
#: int/float comparisons beyond it must bail out (Python compares exactly,
#: a converted double would not).
_EXACT_DOUBLE = 2 ** 53

#: C spelling of INT64_MIN (the plain literal overflows in C).
_C_INT64_MIN = "(-9223372036854775807LL - 1LL)"


def c_double_literal(value: float) -> str:
    """A C literal reproducing *value* bit-exactly (hex float form)."""
    if math.isnan(value):
        return "NAN"
    if math.isinf(value):
        return "INFINITY" if value > 0 else "-INFINITY"
    return value.hex()


class TaggedEmitter:
    """Emit C statements computing expressions over tagged values.

    One emitter serves one op block: *inputs* maps environment names to C
    temp prefixes (``<p>_t`` / ``<p>_i`` / ``<p>_f`` hold tag, int64
    payload and double payload), *bail_label* is the ``goto`` target for
    every run-time situation the C fast path cannot replicate exactly
    (the caller re-runs the whole op through the Python closures there,
    so partial results must never have been committed -- the emitter only
    writes temps, never slots).  *functions* is the owning evaluator's
    function table: a call lowers only when it resolves to the built-in
    row, not to a same-named custom function.

    :meth:`emit` returns the temp prefix holding the expression's tagged
    result; declarations accumulate in :attr:`decls` and must be placed
    ahead of :attr:`lines` in the enclosing block.  It raises
    :class:`~repro.core.errors.CodeGenError` for anything it cannot lower
    exactly: an operator or built-in without a tagged template, a wrong
    arity, a shadowed built-in, a literal outside int64/double/bool or a
    name *inputs* does not bind.
    """

    def __init__(self, inputs: Mapping[str, str], bail_label: str,
                 functions: Optional[Mapping[str, Callable[..., Any]]]
                 = None):
        self.inputs = dict(inputs)
        self.bail = bail_label
        self.functions = function_table(functions)
        self.decls: List[str] = []
        self.lines: List[str] = []
        self._count = 0

    # -- small helpers -----------------------------------------------------

    def _temp(self) -> str:
        prefix = f"t{self._count}"
        self._count += 1
        self.decls.append(f"unsigned char {prefix}_t = 0; "
                          f"long long {prefix}_i = 0; "
                          f"double {prefix}_f = 0.0;")
        return prefix

    @staticmethod
    def _truthy(p: str) -> str:
        # valid for INT/FLOAT/BOOL tags only; callers bail on OBJ first
        return f"({p}_t == 2 ? ({p}_f != 0.0) : ({p}_i != 0))"

    @staticmethod
    def _num(p: str) -> str:
        return f"({p}_t == 2 ? {p}_f : (double){p}_i)"

    @staticmethod
    def _assign(dst: str, src: str) -> str:
        return (f"{dst}_t = {src}_t; {dst}_i = {src}_i; "
                f"{dst}_f = {src}_f;")

    @staticmethod
    def _beyond_exact_double(value: str) -> str:
        return (f"{value} > {_EXACT_DOUBLE}LL || "
                f"{value} < -{_EXACT_DOUBLE}LL")

    def _sub_block(self, node: Expression) -> Tuple[str, List[str]]:
        """Emit *node* into a detached statement list (lazy evaluation)."""
        saved = self.lines
        self.lines = []
        prefix = self.emit(node)
        block = self.lines
        self.lines = saved
        return prefix, block

    def _operands(self, row: Operator, operands: Sequence[Expression],
                  count: int) -> List[str]:
        """Emit *count* eager operands, then the result temp."""
        if len(operands) != count:
            raise CodeGenError(
                f"cannot lower {row.symbol!r} with {len(operands)} "
                f"operand(s); its tagged template takes {count}")
        prefixes = [self.emit(operand) for operand in operands]
        return prefixes + [self._temp()]

    def _absent_or_bail(self, *prefixes: str) -> List[str]:
        """The guard opening every eager template: an absent operand makes
        the result absent, an opaque one bails."""
        *operands, r = prefixes
        return [
            f"if ({' || '.join(f'{p}_t == 0' for p in operands)}) "
            f"{{ {r}_t = 0; }}",
            f"else if ({' || '.join(f'{p}_t == 4' for p in operands)}) "
            f"goto {self.bail};",
        ]

    # -- emission ----------------------------------------------------------

    def emit(self, node: Expression) -> str:
        out = self.lines
        bail = self.bail

        if isinstance(node, Literal):
            value = node.value
            r = self._temp()
            if type(value) is bool:
                out.append(f"{r}_t = 3; {r}_i = {1 if value else 0};")
            elif type(value) is int and _INT64_MIN <= value <= _INT64_MAX:
                literal = (_C_INT64_MIN if value == _INT64_MIN
                           else f"{value}LL")
                out.append(f"{r}_t = 1; {r}_i = {literal};")
            elif type(value) is float:
                out.append(f"{r}_t = 2; {r}_f = {c_double_literal(value)};")
            else:
                raise CodeGenError(
                    f"cannot lower literal {value!r} to tagged C")
            return r

        if isinstance(node, Variable):
            try:
                return self.inputs[node.name]
            except KeyError:
                raise CodeGenError(
                    f"variable {node.name!r} not in the op environment"
                    ) from None

        if isinstance(node, Present):
            r = self._temp()
            source = self.inputs.get(node.channel)
            if source is None:
                # absent channel name: environment.get(...) is ABSENT
                out.append(f"{r}_t = 3; {r}_i = 0;")
            else:
                out.append(f"{r}_t = 3; {r}_i = ({source}_t != 0);")
            return r

        if isinstance(node, UnaryOp):
            return self._lower(UNARY_OPERATORS.get(node.op), node.op,
                               (node.operand,))

        if isinstance(node, BinaryOp):
            return self._lower(BINARY_OPERATORS.get(node.op), node.op,
                               (node.left, node.right))

        if isinstance(node, Conditional):
            c = self.emit(node.condition)
            r = self._temp()
            tp, tblock = self._sub_block(node.then_branch)
            ep, eblock = self._sub_block(node.else_branch)
            out.append(f"if ({c}_t == 0) {{ {r}_t = 0; }}")
            out.append(f"else if ({c}_t == 4) goto {bail};")
            out.append(f"else if ({self._truthy(c)}) {{")
            out.extend(f"    {line}" for line in tblock)
            out.append(f"    {self._assign(r, tp)}")
            out.append("} else {")
            out.extend(f"    {line}" for line in eblock)
            out.append(f"    {self._assign(r, ep)}")
            out.append("}")
            return r

        if isinstance(node, Call):
            row = FUNCTIONS.get(node.function)
            if row is not None \
                    and self.functions.get(node.function) is not row.apply:
                raise CodeGenError(
                    f"built-in {node.function!r} is shadowed by a custom "
                    f"function")
            return self._lower(row, node.function, node.arguments)

        raise CodeGenError(f"cannot lower expression node {node!r}")

    def _lower(self, row: Optional[Operator], symbol: str,
               operands: Sequence[Expression]) -> str:
        if row is None or not row.lowering:
            raise CodeGenError(f"no tagged C template for {symbol!r}")
        template, *parameters = row.lowering
        return getattr(self, f"_lower_{template}")(row, operands,
                                                   *parameters)

    # -- templates (named by the rows' ``lowering``) -------------------------

    def _lower_negating(self, row: Operator, operands: Sequence[Expression],
                        on_float: str, on_int: str) -> str:
        # one operand, type-preserving; negating INT64_MIN overflows int64
        # (Python ints are unbounded), so it takes the fallback path
        x, r = self._operands(row, operands, 1)
        self.lines.extend([
            f"if ({x}_t == 0) {{ {r}_t = 0; }}",
            f"else if ({x}_t == 4) goto {self.bail};",
            f"else if ({x}_t == 2) {{ {r}_t = 2; "
            f"{r}_f = {on_float.format(x=x)}; }}",
            f"else {{",
            f"    if ({x}_i == {_C_INT64_MIN}) goto {self.bail};",
            f"    {r}_t = 1; {r}_i = {on_int.format(x=x)};",
            f"}}",
        ])
        return r

    def _lower_not(self, row: Operator,
                   operands: Sequence[Expression]) -> str:
        x, r = self._operands(row, operands, 1)
        self.lines.extend([
            f"if ({x}_t == 0) {{ {r}_t = 0; }}",
            f"else if ({x}_t == 4) goto {self.bail};",
            f"else {{ {r}_t = 3; {r}_i = !{self._truthy(x)}; }}",
        ])
        return r

    def _lower_short_circuit(self, row: Operator,
                             operands: Sequence[Expression]) -> str:
        # the right operand is a lazy sub-block, entered only on lanes the
        # left operand does not settle
        left, right = operands
        out = self.lines
        bail = self.bail
        x = self.emit(left)
        r = self._temp()
        yp, yblock = self._sub_block(right)
        test = self._truthy(x) if row.settles else f"!{self._truthy(x)}"
        out.append(f"if ({x}_t == 0) {{ {r}_t = 0; }}")
        out.append(f"else if ({x}_t == 4) goto {bail};")
        out.append(f"else if ({test}) {{ {r}_t = 3; "
                   f"{r}_i = {int(row.settles)}; }}")
        out.append("else {")
        out.extend(f"    {line}" for line in yblock)
        out.append(f"    if ({yp}_t == 0) {{ {r}_t = 0; }}")
        out.append(f"    else if ({yp}_t == 4) goto {bail};")
        out.append(f"    else {{ {r}_t = 3; "
                   f"{r}_i = {self._truthy(yp)}; }}")
        out.append("}")
        return r

    def _lower_checked(self, row: Operator, operands: Sequence[Expression],
                       builtin: str) -> str:
        # int64 arithmetic through the overflow builtins; an overflowing
        # result (Python ints are unbounded) takes the fallback path
        x, y, r = self._operands(row, operands, 2)
        self.lines.extend(self._absent_or_bail(x, y, r))
        self.lines.extend([
            f"else if ({x}_t != 2 && {y}_t != 2) {{",
            f"    long long {r}_o;",
            f"    if (__builtin_{builtin}_overflow({x}_i, {y}_i, "
            f"&{r}_o)) goto {self.bail};",
            f"    {r}_t = 1; {r}_i = {r}_o;",
            f"}} else {{",
            f"    {r}_t = 2; "
            f"{r}_f = {self._num(x)} {row.c} {self._num(y)};",
            f"}}",
        ])
        return r

    def _lower_modulo(self, row: Operator,
                      operands: Sequence[Expression]) -> str:
        # Python modulo: sign follows the divisor.  Float operands and a
        # zero divisor (ZeroDivisionError) take the fallback path.
        x, y, r = self._operands(row, operands, 2)
        self.lines.extend(self._absent_or_bail(x, y, r))
        self.lines.extend([
            f"else if ({x}_t == 2 || {y}_t == 2) goto {self.bail};",
            f"else {{",
            f"    if ({y}_i == 0) goto {self.bail};",
            f"    if ({x}_i == {_C_INT64_MIN} && {y}_i == -1LL) "
            f"{{ {r}_t = 1; {r}_i = 0; }}",
            f"    else {{",
            f"        long long {r}_m = {x}_i % {y}_i;",
            f"        if ({r}_m != 0 && (({r}_m < 0) != ({y}_i < 0))) "
            f"{r}_m += {y}_i;",
            f"        {r}_t = 1; {r}_i = {r}_m;",
            f"    }}",
            f"}}",
        ])
        return r

    def _lower_quotient(self, row: Operator,
                      operands: Sequence[Expression]) -> str:
        # int-exact division; inexact int/int decays to double only when
        # both operands convert exactly (|v| <= 2^53); a zero divisor
        # raises ExpressionEvalError on the fallback path.
        x, y, r = self._operands(row, operands, 2)
        self.lines.extend(self._absent_or_bail(x, y, r))
        self.lines.extend([
            f"else if ({x}_t != 2 && {y}_t != 2) {{",
            f"    if ({y}_i == 0) goto {self.bail};",
            f"    if ({x}_i == {_C_INT64_MIN} && {y}_i == -1LL) "
            f"goto {self.bail};",
            f"    if ({x}_i % {y}_i == 0) "
            f"{{ {r}_t = 1; {r}_i = {x}_i / {y}_i; }}",
            f"    else {{",
            f"        if ({self._beyond_exact_double(f'{x}_i')} || "
            f"{self._beyond_exact_double(f'{y}_i')}) goto {self.bail};",
            f"        {r}_t = 2; "
            f"{r}_f = (double){x}_i / (double){y}_i;",
            f"    }}",
            f"}} else {{",
            f"    double {r}_d = {self._num(y)};",
            f"    if ({r}_d == 0.0) goto {self.bail};",
            f"    {r}_t = 2; {r}_f = {self._num(x)} / {r}_d;",
            f"}}",
        ])
        return r

    def _lower_compare(self, row: Operator,
                       operands: Sequence[Expression]) -> str:
        # mixed int/float comparisons convert exactly only up to 2^53
        x, y, r = self._operands(row, operands, 2)
        cop = row.c
        self.lines.extend(self._absent_or_bail(x, y, r))
        self.lines.extend([
            f"else if ({x}_t != 2 && {y}_t != 2) "
            f"{{ {r}_t = 3; {r}_i = ({x}_i {cop} {y}_i); }}",
            f"else if ({x}_t == 2 && {y}_t == 2) "
            f"{{ {r}_t = 3; {r}_i = ({x}_f {cop} {y}_f); }}",
            f"else {{",
            f"    long long {r}_z = ({x}_t == 2) ? {y}_i : {x}_i;",
            f"    if ({self._beyond_exact_double(f'{r}_z')}) "
            f"goto {self.bail};",
            f"    {r}_t = 3; "
            f"{r}_i = ({self._num(x)} {cop} {self._num(y)});",
            f"}}",
        ])
        return r

    def _lower_select(self, row: Operator, operands: Sequence[Expression],
                      cop: str) -> str:
        # Python min(a, b) keeps a unless b < a (max: unless b > a) -- the
        # winning *operand* is returned with its original type.
        x, y, r = self._operands(row, operands, 2)
        self.lines.extend(self._absent_or_bail(x, y, r))
        self.lines.extend([
            f"else {{",
            f"    int {r}_c;",
            f"    if ({x}_t != 2 && {y}_t != 2) "
            f"{r}_c = ({y}_i {cop} {x}_i);",
            f"    else if ({x}_t == 2 && {y}_t == 2) "
            f"{r}_c = ({y}_f {cop} {x}_f);",
            f"    else {{",
            f"        long long {r}_z = ({x}_t == 2) ? {y}_i : {x}_i;",
            f"        if ({self._beyond_exact_double(f'{r}_z')}) "
            f"goto {self.bail};",
            f"        {r}_c = ({self._num(y)} {cop} {self._num(x)});",
            f"    }}",
            f"    if ({r}_c) {{ {self._assign(r, y)} }}",
            f"    else {{ {self._assign(r, x)} }}",
            f"}}",
        ])
        return r
