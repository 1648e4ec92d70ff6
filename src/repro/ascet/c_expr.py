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
  original Python closures.  Which expressions it lowers at all is
  decided by :func:`lowers` alone; it raises
  :class:`~repro.core.errors.CodeGenError` for the others.

Both read the operator table :mod:`repro.core.ops`: a row's
:attr:`~repro.core.ops.Operator.c` is its deployed spelling and its
:attr:`~repro.core.ops.Operator.lowering` names the tagged template below.
"""

from __future__ import annotations

import inspect
import math
from typing import (Any, Callable, Collection, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

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

#: The C type of one tagged value: tag, int64 payload, double payload.
TAGGED_VALUE = ("typedef struct { unsigned char t; long long i; double f; } "
                "tv;")

#: C spelling of INT64_MIN (the plain literal overflows in C).
_C_INT64_MIN = "(-9223372036854775807LL - 1LL)"


def c_double_literal(value: float) -> str:
    """A C literal reproducing *value* bit-exactly (hex float form; the
    compiler builtins for NaN and infinity need no ``math.h``)."""
    if math.isnan(value):
        return "__builtin_nan(\"\")"
    if math.isinf(value):
        return "__builtin_inf()" if value > 0 else "-__builtin_inf()"
    return value.hex()


def lowers(node: Expression, names: Collection[str],
           functions: Optional[Mapping[str, Callable[..., Any]]] = None
           ) -> bool:
    """True when :class:`TaggedEmitter` lowers *node* over an op
    environment binding *names* with the evaluator functions *functions*
    -- decided from the AST alone, without emitting C.

    This is the one place the rule lives: every operator and call has a
    row with a tagged template of its arity and no custom function
    shadows a called built-in, every literal is an int64, a double or a
    bool, and every variable is bound.  The emitter checks it once per
    expression and the batch backend vectorizes exactly the expressions
    it accepts (:mod:`repro.simulation.lanes`).
    """
    table = function_table(functions)

    def fits(row: Optional[Operator], operands: Sequence[Expression]
             ) -> bool:
        return (row is not None and bool(row.lowering)
                and TaggedEmitter.arity(row) == len(operands)
                and all(walk(operand) for operand in operands))

    def walk(node: Expression) -> bool:
        if isinstance(node, Literal):
            value = node.value
            return type(value) in (bool, float) or (
                type(value) is int and _INT64_MIN <= value <= _INT64_MAX)
        if isinstance(node, Variable):
            return node.name in names
        if isinstance(node, Present):
            return True
        if isinstance(node, UnaryOp):
            return fits(UNARY_OPERATORS.get(node.op), (node.operand,))
        if isinstance(node, BinaryOp):
            return fits(BINARY_OPERATORS.get(node.op), (node.left, node.right))
        if isinstance(node, Conditional):
            return all(walk(part) for part in (node.condition,
                                               node.then_branch,
                                               node.else_branch))
        if isinstance(node, Call):
            row = FUNCTIONS.get(node.function)
            return (row is not None and table.get(node.function) is row.apply
                    and fits(row, node.arguments))
        return False

    return walk(node)


#: Template operand counts by :attr:`Operator.lowering` (memoized
#: :meth:`TaggedEmitter.arity`).
_ARITY: Dict[Tuple[str, ...], int] = {}


class TaggedEmitter:
    """Emit C statements computing expressions over tagged values.

    One emitter serves one op block: *inputs* maps environment names to C
    lvalues of the tagged value type :data:`TAGGED_VALUE` (``<p>.t`` /
    ``<p>.i`` / ``<p>.f`` hold tag, int64 payload and double payload),
    *bail_label* is the ``goto`` target for
    every run-time situation the C fast path cannot replicate exactly
    (the caller re-runs the whole op through the Python closures there,
    so partial results must never have been committed -- the emitter only
    writes temps, never slots).  *functions* is the owning evaluator's
    function table: a call lowers only when it resolves to the built-in
    row, not to a same-named custom function.

    :meth:`emit` returns the lvalue holding the expression's tagged
    result, an element of the temp array ``T`` that :attr:`decls` declares
    ahead of :attr:`lines` in the enclosing block.  Eager templates are
    calls of static helper functions collected in :attr:`helpers`, which
    the caller places once per translation unit ahead of the code using
    them (:meth:`_helper`).  :meth:`emit` and :meth:`emit_block` raise
    :class:`~repro.core.errors.CodeGenError` for an expression
    :func:`lowers` rejects over the names *inputs* binds.
    """

    def __init__(self, inputs: Mapping[str, str], bail_label: str,
                 functions: Optional[Mapping[str, Callable[..., Any]]]
                 = None,
                 helpers: Optional[Mapping[Tuple[str, ...],
                                           Tuple[str, str]]] = None):
        self.inputs = dict(inputs)
        self.bail = bail_label
        self.functions = function_table(functions)
        self.lines: List[str] = []
        #: helper key -> (C name, C definition) for the eager templates of
        #: the translation unit: *helpers* (the ones already defined) plus
        #: the ones this emitter added (see :meth:`_helper`)
        self.helpers: Dict[Tuple[str, ...], Tuple[str, str]] = \
            dict(helpers or {})
        self._count = 0

    @property
    def decls(self) -> List[str]:
        """The declaration of the temp array (none when unused)."""
        if not self._count:
            return []
        return [f"tv T[{self._count}] = {{{{0, 0, 0.0}}}};"]

    # -- small helpers -----------------------------------------------------

    def _temp(self) -> str:
        prefix = f"T[{self._count}]"
        self._count += 1
        return prefix

    @staticmethod
    def truthy(p: str) -> str:
        # valid for INT/FLOAT/BOOL tags only; callers bail on OBJ first
        return f"({p}.t == 2 ? ({p}.f != 0.0) : ({p}.i != 0))"

    @staticmethod
    def _num(p: str) -> str:
        return f"({p}.t == 2 ? {p}.f : (double){p}.i)"

    @staticmethod
    def _assign(dst: str, src: str) -> str:
        return (f"{dst}.t = {src}.t; {dst}.i = {src}.i; "
                f"{dst}.f = {src}.f;")

    @staticmethod
    def _beyond_exact_double(value: str) -> str:
        return (f"{value} > {_EXACT_DOUBLE}LL || "
                f"{value} < -{_EXACT_DOUBLE}LL")

    def emit(self, node: Expression) -> str:
        """Emit *node*; returns the lvalue holding its tagged result."""
        self._check(node)
        return self._emit(node)

    def emit_block(self, node: Expression) -> Tuple[str, List[str]]:
        """Emit *node* into a detached statement list (lazy evaluation)."""
        self._check(node)
        return self._emit_block(node)

    def _check(self, node: Expression) -> None:
        if not lowers(node, self.inputs, self.functions):
            raise CodeGenError(
                f"cannot lower {node.to_source()} to tagged C")

    def _emit_block(self, node: Expression) -> Tuple[str, List[str]]:
        saved = self.lines
        self.lines = []
        prefix = self._emit(node)
        block = self.lines
        self.lines = saved
        return prefix, block

    def _operands(self, operands: Sequence[Expression]) -> List[str]:
        """Emit the eager operands, then the result temp."""
        return [self._emit(operand) for operand in operands] + [self._temp()]

    @staticmethod
    def _absent_or_bail(*prefixes: str) -> List[str]:
        """The guard opening every eager template body: an absent operand
        makes the result absent, an opaque one bails."""
        *operands, r = prefixes
        return [
            f"if ({' || '.join(f'{p}.t == 0' for p in operands)}) "
            f"{{ {r}.t = 0; }}",
            f"else if ({' || '.join(f'{p}.t == 4' for p in operands)}) "
            f"goto fail;",
        ]

    # -- emission ----------------------------------------------------------
    #
    # ``_emit`` lowers a node :func:`lowers` accepted, so it meets only
    # bound names, lowerable literals and rows with a template of their
    # arity.

    def _emit(self, node: Expression) -> str:
        out = self.lines
        bail = self.bail

        if isinstance(node, Literal):
            value = node.value
            r = self._temp()
            if type(value) is bool:
                out.append(f"{r}.t = 3; {r}.i = {1 if value else 0};")
            elif type(value) is int:
                literal = (_C_INT64_MIN if value == _INT64_MIN
                           else f"{value}LL")
                out.append(f"{r}.t = 1; {r}.i = {literal};")
            else:
                out.append(f"{r}.t = 2; {r}.f = {c_double_literal(value)};")
            return r

        if isinstance(node, Variable):
            return self.inputs[node.name]

        if isinstance(node, Present):
            r = self._temp()
            source = self.inputs.get(node.channel)
            if source is None:
                # absent channel name: environment.get(...) is ABSENT
                out.append(f"{r}.t = 3; {r}.i = 0;")
            else:
                out.append(f"{r}.t = 3; {r}.i = ({source}.t != 0);")
            return r

        if isinstance(node, UnaryOp):
            return self._lower(UNARY_OPERATORS[node.op], (node.operand,))

        if isinstance(node, BinaryOp):
            return self._lower(BINARY_OPERATORS[node.op],
                               (node.left, node.right))

        if isinstance(node, Conditional):
            c = self._emit(node.condition)
            r = self._temp()
            tp, tblock = self._emit_block(node.then_branch)
            ep, eblock = self._emit_block(node.else_branch)
            out.append(f"if ({c}.t == 0) {{ {r}.t = 0; }}")
            out.append(f"else if ({c}.t == 4) goto {bail};")
            out.append(f"else if ({self.truthy(c)}) {{")
            out.extend(f"    {line}" for line in tblock)
            out.append(f"    {self._assign(r, tp)}")
            out.append("} else {")
            out.extend(f"    {line}" for line in eblock)
            out.append(f"    {self._assign(r, ep)}")
            out.append("}")
            return r

        return self._lower(FUNCTIONS[node.function], node.arguments)

    @classmethod
    def arity(cls, row: Operator) -> int:
        """The operand count of *row*'s tagged template: an eager body's
        signature ``(row, operands..., r, parameters...)`` fixes it; the
        lazy ``short_circuit`` template takes two."""
        count = _ARITY.get(row.lowering)
        if count is None:
            template, *parameters = row.lowering
            body = getattr(cls, f"_body_{template}", None)
            count = _ARITY[row.lowering] = 2 if body is None else len(
                inspect.signature(body).parameters) - 3 - len(parameters)
        return count

    def _lower(self, row: Operator, operands: Sequence[Expression]) -> str:
        template, *parameters = row.lowering
        if not hasattr(self, f"_body_{template}"):  # lazy, emitted inline
            return getattr(self, f"_lower_{template}")(row, operands,
                                                       *parameters)
        # eager: every operand is evaluated first
        *arguments, r = self._operands(operands)
        name = self._helper(row, template, parameters, len(arguments))
        pointers = ", ".join(f"&{p}" for p in arguments)
        self.lines.append(f"if ({name}(&{r}, {pointers})) goto {self.bail};")
        return r

    def _helper(self, row: Operator, template: str,
                parameters: Sequence[str], count: int) -> str:
        """The name of the C helper function computing *template* for
        *row*, defined in :attr:`helpers` on first use.

        An eager template is emitted once per translation unit as a static
        function returning nonzero to bail, and each use is one call: the
        generated step stays a compact sequence of calls, which keeps the
        C compiler's time low.
        """
        key = (template, row.c, *parameters)
        if key not in self.helpers:
            name = f"rp_{template}_{len(self.helpers)}"
            operands = ["x", "y", "z"][:count]
            body = getattr(self, f"_body_{template}")(
                row, *(f"(*{p})" for p in operands), "r", *parameters)
            signature = ", ".join(f"const tv *{p}" for p in operands)
            self.helpers[key] = name, "\n".join([
                f"static int {name}(tv *out, {signature})",
                "{",
                "    tv r = {0, 0, 0.0};",
                *(f"    {line}" for line in body),
                "    *out = r;",
                "    return 0;",
                "fail:",
                "    return 1;",
                "}",
            ])
        return self.helpers[key][0]

    # -- templates (named by the rows' ``lowering``) -------------------------
    #
    # ``_body_*`` return the statements of an eager template's helper over
    # the operand prefixes and the result prefix ``r``; ``goto fail`` bails.

    def _body_negating(self, row: Operator, x: str, r: str, on_float: str,
                       on_int: str) -> List[str]:
        # one operand, type-preserving; negating INT64_MIN overflows int64
        # (Python ints are unbounded), so it takes the fallback path
        return [
            f"if ({x}.t == 0) {{ {r}.t = 0; }}",
            f"else if ({x}.t == 4) goto fail;",
            f"else if ({x}.t == 2) {{ {r}.t = 2; "
            f"{r}.f = {on_float.format(x=x)}; }}",
            f"else {{",
            f"    if ({x}.i == {_C_INT64_MIN}) goto fail;",
            f"    {r}.t = 1; {r}.i = {on_int.format(x=x)};",
            f"}}",
        ]

    def _body_not(self, row: Operator, x: str, r: str) -> List[str]:
        return [
            f"if ({x}.t == 0) {{ {r}.t = 0; }}",
            f"else if ({x}.t == 4) goto fail;",
            f"else {{ {r}.t = 3; {r}.i = !{self.truthy(x)}; }}",
        ]

    def _lower_short_circuit(self, row: Operator,
                             operands: Sequence[Expression]) -> str:
        # the right operand is a lazy sub-block, entered only on lanes the
        # left operand does not settle
        left, right = operands
        out = self.lines
        bail = self.bail
        x = self._emit(left)
        r = self._temp()
        yp, yblock = self._emit_block(right)
        test = self.truthy(x) if row.settles else f"!{self.truthy(x)}"
        out.append(f"if ({x}.t == 0) {{ {r}.t = 0; }}")
        out.append(f"else if ({x}.t == 4) goto {bail};")
        out.append(f"else if ({test}) {{ {r}.t = 3; "
                   f"{r}.i = {int(row.settles)}; }}")
        out.append("else {")
        out.extend(f"    {line}" for line in yblock)
        out.append(f"    if ({yp}.t == 0) {{ {r}.t = 0; }}")
        out.append(f"    else if ({yp}.t == 4) goto {bail};")
        out.append(f"    else {{ {r}.t = 3; "
                   f"{r}.i = {self.truthy(yp)}; }}")
        out.append("}")
        return r

    def _body_checked(self, row: Operator, x: str, y: str, r: str,
                      builtin: str) -> List[str]:
        # int64 arithmetic through the overflow builtins; an overflowing
        # result (Python ints are unbounded) takes the fallback path
        return self._absent_or_bail(x, y, r) + [
            f"else if ({x}.t != 2 && {y}.t != 2) {{",
            f"    long long {r}_o;",
            f"    if (__builtin_{builtin}_overflow({x}.i, {y}.i, "
            f"&{r}_o)) goto fail;",
            f"    {r}.t = 1; {r}.i = {r}_o;",
            f"}} else {{",
            f"    {r}.t = 2; "
            f"{r}.f = {self._num(x)} {row.c} {self._num(y)};",
            f"}}",
        ]

    def _body_modulo(self, row: Operator, x: str, y: str,
                     r: str) -> List[str]:
        # Python modulo: sign follows the divisor.  Float operands and a
        # zero divisor (ZeroDivisionError) take the fallback path.
        return self._absent_or_bail(x, y, r) + [
            f"else if ({x}.t == 2 || {y}.t == 2) goto fail;",
            f"else {{",
            f"    if ({y}.i == 0) goto fail;",
            f"    if ({x}.i == {_C_INT64_MIN} && {y}.i == -1LL) "
            f"{{ {r}.t = 1; {r}.i = 0; }}",
            f"    else {{",
            f"        long long {r}_m = {x}.i % {y}.i;",
            f"        if ({r}_m != 0 && (({r}_m < 0) != ({y}.i < 0))) "
            f"{r}_m += {y}.i;",
            f"        {r}.t = 1; {r}.i = {r}_m;",
            f"    }}",
            f"}}",
        ]

    def _body_quotient(self, row: Operator, x: str, y: str,
                       r: str) -> List[str]:
        # int-exact division; inexact int/int decays to double only when
        # both operands convert exactly (|v| <= 2^53); a zero divisor
        # raises ExpressionEvalError on the fallback path.
        return self._absent_or_bail(x, y, r) + [
            f"else if ({x}.t != 2 && {y}.t != 2) {{",
            f"    if ({y}.i == 0) goto fail;",
            f"    if ({x}.i == {_C_INT64_MIN} && {y}.i == -1LL) "
            f"goto fail;",
            f"    if ({x}.i % {y}.i == 0) "
            f"{{ {r}.t = 1; {r}.i = {x}.i / {y}.i; }}",
            f"    else {{",
            f"        if ({self._beyond_exact_double(f'{x}.i')} || "
            f"{self._beyond_exact_double(f'{y}.i')}) goto fail;",
            f"        {r}.t = 2; "
            f"{r}.f = (double){x}.i / (double){y}.i;",
            f"    }}",
            f"}} else {{",
            f"    double {r}_d = {self._num(y)};",
            f"    if ({r}_d == 0.0) goto fail;",
            f"    {r}.t = 2; {r}.f = {self._num(x)} / {r}_d;",
            f"}}",
        ]

    def _body_compare(self, row: Operator, x: str, y: str,
                      r: str) -> List[str]:
        # mixed int/float comparisons convert exactly only up to 2^53
        cop = row.c
        return self._absent_or_bail(x, y, r) + [
            f"else if ({x}.t != 2 && {y}.t != 2) "
            f"{{ {r}.t = 3; {r}.i = ({x}.i {cop} {y}.i); }}",
            f"else if ({x}.t == 2 && {y}.t == 2) "
            f"{{ {r}.t = 3; {r}.i = ({x}.f {cop} {y}.f); }}",
            f"else {{",
            f"    long long {r}_z = ({x}.t == 2) ? {y}.i : {x}.i;",
            f"    if ({self._beyond_exact_double(f'{r}_z')}) goto fail;",
            f"    {r}.t = 3; "
            f"{r}.i = ({self._num(x)} {cop} {self._num(y)});",
            f"}}",
        ]

    def _select(self, x: str, y: str, r: str, cop: str) -> List[str]:
        # Python min(a, b) keeps a unless b < a (max: unless b > a) -- the
        # winning *operand* is returned with its original type.
        return [
            f"int {r}_c;",
            f"if ({x}.t != 2 && {y}.t != 2) {r}_c = ({y}.i {cop} {x}.i);",
            f"else if ({x}.t == 2 && {y}.t == 2) "
            f"{r}_c = ({y}.f {cop} {x}.f);",
            f"else {{",
            f"    long long {r}_z = ({x}.t == 2) ? {y}.i : {x}.i;",
            f"    if ({self._beyond_exact_double(f'{r}_z')}) goto fail;",
            f"    {r}_c = ({self._num(y)} {cop} {self._num(x)});",
            f"}}",
            f"if ({r}_c) {{ {self._assign(r, y)} }}",
            f"else {{ {self._assign(r, x)} }}",
        ]

    def _body_select(self, row: Operator, x: str, y: str, r: str,
                     cop: str) -> List[str]:
        return self._absent_or_bail(x, y, r) + [
            "else {", *(f"    {line}" for line in self._select(x, y, r, cop)),
            "}"]

    def _body_clamp(self, row: Operator, value: str, low: str, high: str,
                    r: str) -> List[str]:
        # limit(value, low, high) is max(low, min(high, value)): two
        # selects, each keeping its winning operand's type
        return ["tv m = {0, 0, 0.0};"] \
            + self._absent_or_bail(value, low, high, r) + [
                "else {", *(f"    {line}" for line
                            in self._select(high, value, "m", "<")
                            + self._select(low, "m", r, ">")),
                "}"]
