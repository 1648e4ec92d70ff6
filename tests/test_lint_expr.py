"""Expression abstract interpretation: unit tests per rule.

``check_expression`` is exercised directly with hand-built environments so
each rule's firing condition (and its deliberate silences) is pinned
independently of any model plumbing.
"""

import pytest

from repro.analysis.lint.expr_check import (AbstractValue, _NO_CONST,
                                            abstract_of_type,
                                            abstract_of_value,
                                            check_expression,
                                            environment_of_ports,
                                            lint_expression_component)
from repro.core.components import ExpressionComponent
from repro.core.expr_eval import ExpressionEvaluator
from repro.core.expr_parser import parse_expression
from repro.core.types import BoolType, EnumType, FloatType, IntType
from repro.core.validation import Severity


def _check(source, env=None, functions=None):
    return check_expression(parse_expression(source), env or {}, "t",
                            functions=functions)


def _rules(findings):
    return [f.rule for f in findings]


# -- environments -----------------------------------------------------------


def test_abstract_of_type_carries_declared_bounds():
    value = abstract_of_type(FloatType(0.0, 300.0))
    assert value.kinds == frozenset({"num"})
    assert (value.low, value.high) == (0.0, 300.0)
    assert value.may_absent


def test_abstract_of_value_is_a_constant():
    value = abstract_of_value(7)
    assert value.const == 7 and (value.low, value.high) == (7, 7)
    assert abstract_of_value("Idle").kinds == frozenset({"enum"})
    assert abstract_of_value(True).kinds == frozenset({"bool"})


def test_environment_of_ports_uses_declared_types():
    comp = ExpressionComponent("C", {"out": "x"})
    comp.add_input("x", IntType(0, 10))
    comp.add_output("out", IntType())
    env = environment_of_ports(comp)
    assert env["x"].high == 10 and env["x"].may_absent


# -- unknown names / functions ----------------------------------------------


def test_unknown_name_is_an_error():
    value, findings = _check("x + ghost", {"x": abstract_of_value(1)})
    assert _rules(findings) == ["expr-unknown-name"]
    assert findings[0].severity is Severity.ERROR
    assert "ghost" in findings[0].message


def test_known_names_are_silent():
    _, findings = _check("x + y", {"x": abstract_of_value(1),
                                   "y": abstract_of_value(2)})
    assert not findings


def test_unknown_function_is_an_error():
    _, findings = _check("frobnicate(1)")
    assert _rules(findings) == ["expr-unknown-function"]
    assert findings[0].severity is Severity.ERROR


def test_builtin_function_is_known():
    value, findings = _check("abs(-3)")
    assert not findings
    assert value.const == 3


# -- division ----------------------------------------------------------------


def test_division_by_constant_zero_is_an_error():
    _, findings = _check("1 / 0")
    assert _rules(findings) == ["expr-div-by-zero"]
    assert findings[0].severity is Severity.ERROR


def test_division_by_interval_containing_zero_warns():
    env = {"d": abstract_of_type(IntType(-5, 5), may_absent=False)}
    _, findings = _check("10 / d", env)
    assert _rules(findings) == ["expr-div-by-zero"]
    assert findings[0].severity is Severity.WARNING


def test_division_by_nonzero_interval_is_silent():
    env = {"d": abstract_of_type(IntType(1, 5), may_absent=False)}
    _, findings = _check("10 / d", env)
    assert not findings


def test_modulo_by_constant_zero_is_an_error():
    _, findings = _check("a % 0", {"a": abstract_of_type(IntType())})
    assert _rules(findings) == ["expr-div-by-zero"]
    assert findings[0].severity is Severity.ERROR


def test_modulo_by_interval_containing_zero_warns():
    env = {"d": abstract_of_type(IntType(-5, 5), may_absent=False)}
    _, findings = _check("10 % d", env)
    assert _rules(findings) == ["expr-div-by-zero"]
    assert findings[0].severity is Severity.WARNING


def test_division_by_unbounded_value_is_silent():
    env = {"d": abstract_of_type(IntType(), may_absent=False)}
    _, findings = _check("10 / d", env)
    assert not findings


# -- type mismatches ---------------------------------------------------------


def test_arithmetic_on_enum_is_a_mismatch():
    env = {"gear": abstract_of_type(EnumType("Gear", ("P", "D")))}
    _, findings = _check("gear + 1", env)
    assert "expr-type-mismatch" in _rules(findings)


def test_ordering_enum_against_number_is_a_mismatch():
    env = {"gear": abstract_of_type(EnumType("Gear", ("P", "D")))}
    _, findings = _check("gear < 3", env)
    assert "expr-type-mismatch" in _rules(findings)


# -- interval reasoning ------------------------------------------------------


def test_disjoint_intervals_decide_comparisons():
    env = {"speed": abstract_of_type(FloatType(0.0, 300.0),
                                     may_absent=False)}
    value, findings = _check("speed < -5", env)
    assert not findings
    assert value.const is False


def test_overlapping_intervals_stay_unknown():
    env = {"speed": abstract_of_type(FloatType(0.0, 300.0),
                                     may_absent=False)}
    value, _ = _check("speed < 100", env)
    assert value.const is _NO_CONST


def test_constant_folding_through_conditional():
    value, findings = _check("if 2 > 1 then 1 else x",
                             {"x": abstract_of_value(9)})
    assert not findings
    assert value.const == 1


def test_arithmetic_bounds_propagate():
    env = {"a": abstract_of_type(IntType(0, 10), may_absent=False),
           "b": abstract_of_type(IntType(1, 2), may_absent=False)}
    value, _ = _check("a + b", env)
    assert (value.low, value.high) == (1, 12)


def test_join_widens_across_conditional():
    env = {"p": AbstractValue(kinds=frozenset({"bool"}), low=0, high=1),
           "a": abstract_of_value(1), "b": abstract_of_value(10)}
    value, _ = _check("if p then a else b", env)
    assert (value.low, value.high) == (1, 10)
    assert value.const is _NO_CONST


# -- component-level wiring --------------------------------------------------


def test_undeclared_output_expression_warns():
    comp = ExpressionComponent("C", {"out": "x", "phantom": "x + 1"})
    comp.add_input("x", IntType())
    comp.add_output("out", IntType())
    findings = lint_expression_component(comp)
    assert "expr-undeclared-output" in _rules(findings)


def test_output_type_mismatch_warns():
    comp = ExpressionComponent("C", {"flag": "x + 1"})
    comp.add_input("x", IntType())
    comp.add_output("flag", BoolType())
    findings = lint_expression_component(comp)
    mismatch = [f for f in findings if f.rule == "expr-output-type"]
    assert mismatch and mismatch[0].severity is Severity.WARNING


def test_compatible_output_type_is_silent():
    comp = ExpressionComponent("C", {"out": "x * 2"})
    comp.add_input("x", IntType(0, 5))
    comp.add_output("out", IntType())
    assert not lint_expression_component(comp)


def test_custom_function_outputs_are_not_assumed_numeric():
    levels = EnumType("Level", ("LOW", "HIGH"))
    evaluator = ExpressionEvaluator(
        {"classify": lambda x: "HIGH" if x > 5 else "LOW",
         "is_hot": lambda x: x > 90})
    comp = ExpressionComponent("C", {"level": "classify(x)",
                                     "hot": "is_hot(x)"},
                               evaluator=evaluator)
    comp.add_input("x", IntType())
    comp.add_output("level", levels)
    comp.add_output("hot", BoolType())
    assert not lint_expression_component(comp)


def test_builtin_call_result_kind_still_checked():
    comp = ExpressionComponent("C", {"flag": "abs(x)"})
    comp.add_input("x", IntType())
    comp.add_output("flag", EnumType("Level", ("LOW", "HIGH")))
    assert _rules(lint_expression_component(comp)) == ["expr-output-type"]


def test_unknown_name_in_component_names_known_ports():
    comp = ExpressionComponent("C", {"out": "speeed"})
    comp.add_input("speed", FloatType())
    comp.add_output("out", FloatType())
    findings = lint_expression_component(comp)
    assert _rules(findings) == ["expr-unknown-name"]
    assert "speed" in findings[0].message
