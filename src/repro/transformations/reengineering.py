"""Reengineering transformations (paper Sec. 4 and 5).

"Reengineering is seen as the step to extract the relevant information from a
system description on the implementation level in order to describe the
system on a more abstract level (FAA or FDA).  Two classes of reengineering
steps are considered":

* **white-box reengineering** works on complete software implementations
  (ASCET-SD models).  Here it lifts an :class:`~repro.ascet.model.AscetModule`
  to an FDA-level component: processes with If-Then-Else control flow are
  turned into :class:`ModeTransitionDiagram` components whose implicit modes
  have become explicit (the ThrottleRateOfChange example of Fig. 8), plain
  processes become expression blocks.

* **black-box reengineering** works on E/E architecture representations such
  as communication matrices and produces a *partial* FAA-level model: one
  component per function with the ports and channels implied by the signals.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.components import Component, ExpressionComponent
from ..core.errors import TransformationError
from ..core.expressions import (BinaryOp, Call, Conditional, Expression,
                                Literal, Present, UnaryOp, Variable)
from ..core.model import AbstractionLevel
from ..core.types import FLOAT
from ..notations.mtd import ModeTransitionDiagram
from ..notations.ssd import SSDComponent
from ..ascet.comm_matrix import CommunicationMatrix
from ..ascet.importer import find_implicit_modes
from ..ascet.model import (AscetModule, AscetProcess, AscetProject, Assignment,
                           IfThenElse, Statement)
from .base import Transformation, TransformationKind


# --------------------------------------------------------------------------
# expression manipulation helpers
# --------------------------------------------------------------------------

def substitute(expression: Expression,
               bindings: Mapping[str, Expression]) -> Expression:
    """Replace free variables of *expression* by the bound expressions."""
    if isinstance(expression, Variable):
        return bindings.get(expression.name, expression)
    if isinstance(expression, Literal):
        return expression
    if isinstance(expression, Present):
        return expression
    if isinstance(expression, UnaryOp):
        return UnaryOp(expression.op, substitute(expression.operand, bindings))
    if isinstance(expression, BinaryOp):
        return BinaryOp(expression.op,
                        substitute(expression.left, bindings),
                        substitute(expression.right, bindings))
    if isinstance(expression, Conditional):
        return Conditional(substitute(expression.condition, bindings),
                           substitute(expression.then_branch, bindings),
                           substitute(expression.else_branch, bindings))
    if isinstance(expression, Call):
        return Call(expression.function,
                    tuple(substitute(arg, bindings) for arg in expression.arguments))
    raise TransformationError(f"cannot substitute in node {expression!r}")


def literal_bindings(values: Mapping[str, Any]) -> Dict[str, Expression]:
    """Turn a parameter dictionary into literal substitution bindings."""
    return {name: Literal(value) for name, value in values.items()}


def statements_to_expressions(statements: Sequence[Statement],
                              bindings: Optional[Dict[str, Expression]] = None
                              ) -> Dict[str, Expression]:
    """Convert sequential statements into a map ``target -> expression``.

    Assignments are inlined left to right; nested If-Then-Else statements
    become conditional expressions.  A branch that leaves a target unassigned
    while the other branch assigns it is only supported when the target was
    already assigned before (the previous value is used), otherwise the
    conversion is rejected -- such a process retains state across activations
    and must be reengineered into a stateful block instead.
    """
    environment: Dict[str, Expression] = dict(bindings or {})
    assigned: Dict[str, Expression] = {}

    def run(block: Sequence[Statement]) -> None:
        for statement in block:
            if isinstance(statement, Assignment):
                value = substitute(statement.expression, environment)
                environment[statement.target] = value
                assigned[statement.target] = value
            elif isinstance(statement, IfThenElse):
                condition = substitute(statement.condition, environment)
                then_env = dict(environment)
                else_env = dict(environment)
                then_assigned = _branch(statement.then_branch, then_env)
                else_assigned = _branch(statement.else_branch, else_env)
                for target in sorted(set(then_assigned) | set(else_assigned)):
                    then_value = then_assigned.get(target)
                    else_value = else_assigned.get(target)
                    if then_value is None or else_value is None:
                        previous = environment.get(target)
                        if previous is None:
                            raise TransformationError(
                                f"target {target!r} is assigned in only one "
                                "branch and has no previous value; the process "
                                "is stateful and cannot be converted to a "
                                "stateless expression")
                        then_value = then_value if then_value is not None else previous
                        else_value = else_value if else_value is not None else previous
                    merged = Conditional(condition, then_value, else_value)
                    environment[target] = merged
                    assigned[target] = merged
            else:  # pragma: no cover - only two statement kinds exist
                raise TransformationError(
                    f"unsupported statement {type(statement).__name__}")

    def _branch(block: Sequence[Statement],
                env: Dict[str, Expression]) -> Dict[str, Expression]:
        saved_environment = dict(environment)
        saved_assigned = dict(assigned)
        environment.clear()
        environment.update(env)
        assigned.clear()
        run(block)
        branch_assigned = dict(assigned)
        environment.clear()
        environment.update(saved_environment)
        assigned.clear()
        assigned.update(saved_assigned)
        return branch_assigned

    run(statements)
    return assigned


# --------------------------------------------------------------------------
# white-box reengineering
# --------------------------------------------------------------------------

def reengineer_process(module: AscetModule, process: AscetProcess,
                       mode_names: Optional[Sequence[str]] = None,
                       component_name: Optional[str] = None) -> Component:
    """Lift one ASCET process to an FDA-level component.

    A process with top-level If-Then-Else control flow becomes an MTD whose
    modes correspond to the implicit modes of the process; a straight-line
    process becomes a single expression block.  Calibration parameters are
    inlined as literals.
    """
    name = component_name or f"{module.name}_{process.name}"
    parameter_bindings = literal_bindings(module.parameters)
    inputs = sorted(module.receive_messages)
    outputs = sorted(module.send_messages)

    top_level_ifs = [statement for statement in process.statements
                     if isinstance(statement, IfThenElse)]
    if not top_level_ifs:
        expressions = statements_to_expressions(process.statements,
                                                parameter_bindings)
        sent = {target: expression for target, expression in expressions.items()
                if target in module.send_messages}
        component = ExpressionComponent(name, sent,
                                        description=f"reengineered from ASCET "
                                                    f"process {process.name!r}")
        for input_name in inputs:
            if any(input_name in expr.variables() for expr in sent.values()):
                component.add_input(input_name)
        for output_name in sent:
            component.add_output(output_name)
        component.annotate("reengineered_from", f"{module.name}.{process.name}")
        return component

    if len(top_level_ifs) > 1:
        raise TransformationError(
            f"process {process.name!r} has {len(top_level_ifs)} top-level "
            "If-Then-Else statements; reengineer them one at a time (split the "
            "process) or nest them explicitly")

    implicit_modes = find_implicit_modes(process, mode_names)
    mtd = ModeTransitionDiagram(name,
                                description=f"explicit modes of ASCET process "
                                            f"{process.name!r} (white-box "
                                            "reengineering)")
    mode_expressions: Dict[str, Dict[str, Expression]] = {}
    for implicit in implicit_modes:
        expressions = statements_to_expressions(implicit.statements,
                                                parameter_bindings)
        sent = {target: expression for target, expression in expressions.items()
                if target in module.send_messages}
        mode_expressions[implicit.name] = sent

    produced_outputs = sorted({target for sent in mode_expressions.values()
                               for target in sent})
    parameter_names = set(module.parameters)
    used_inputs: List[str] = []

    def note_input(variable: str) -> None:
        if (variable not in parameter_names and variable not in produced_outputs
                and variable not in used_inputs):
            used_inputs.append(variable)

    for sent in mode_expressions.values():
        for expression in sent.values():
            for variable in expression.variables():
                note_input(variable)
    for implicit in implicit_modes:
        if implicit.condition is None:
            continue
        for variable in substitute(implicit.condition,
                                   parameter_bindings).variables():
            note_input(variable)

    for input_name in sorted(used_inputs):
        mtd.add_input(input_name)
    for output_name in produced_outputs:
        mtd.add_output(output_name)
    mtd.add_output(ModeTransitionDiagram.MODE_PORT)

    for index, implicit in enumerate(implicit_modes):
        behavior = ExpressionComponent(f"{implicit.name}_behavior",
                                       mode_expressions[implicit.name])
        for expression in mode_expressions[implicit.name].values():
            for variable in sorted(expression.variables()):
                if variable in used_inputs and not behavior.has_port(variable):
                    behavior.add_input(variable)
        for output_name in mode_expressions[implicit.name]:
            behavior.add_output(output_name)
        mtd.add_mode(implicit.name, behavior, initial=(index == 0),
                     description=f"implicit mode of {process.name!r}")

    # Transitions: a mode is entered whenever its condition holds (the ASCET
    # process re-evaluates the condition on every activation).
    for source in implicit_modes:
        for target in implicit_modes:
            if source.name == target.name or target.condition is None:
                continue
            guard = substitute(target.condition, parameter_bindings) \
                if parameter_names & set(target.condition.variables()) \
                else target.condition
            mtd.add_transition(source.name, target.name, guard,
                               description=f"condition of {target.name}")
    mtd.annotate("reengineered_from", f"{module.name}.{process.name}")
    return mtd


def reengineer_module(module: AscetModule,
                      mode_names: Optional[Dict[str, Sequence[str]]] = None,
                      name: Optional[str] = None) -> Component:
    """Lift a whole ASCET module to an FDA-level component.

    Single-process modules yield the reengineered process component directly
    (renamed after the module); multi-process modules yield an SSD containing
    one reengineered component per process, with the module's messages as
    boundary ports.
    """
    processes = module.process_list()
    if not processes:
        raise TransformationError(f"module {module.name!r} has no processes")
    mode_names = mode_names or {}
    if len(processes) == 1:
        return reengineer_process(module, processes[0],
                                  mode_names.get(processes[0].name),
                                  component_name=name or module.name)

    container = SSDComponent(name or module.name,
                             description=f"reengineered ASCET module "
                                         f"{module.name!r}")
    for message in sorted(module.receive_messages):
        container.add_typed_input(message, FLOAT)
    for message in sorted(module.send_messages):
        container.add_typed_output(message, FLOAT)
    for process in processes:
        component = reengineer_process(module, process,
                                       mode_names.get(process.name))
        container.add_subcomponent(component)
        for input_name in component.input_names():
            if input_name in module.receive_messages:
                container.connect(input_name, f"{component.name}.{input_name}",
                                  delayed=False)
        for output_name in component.output_names():
            if output_name in module.send_messages:
                container.connect(f"{component.name}.{output_name}", output_name,
                                  delayed=False)
    container.annotate("reengineered_from", module.name)
    return container


def reengineer_project(project: AscetProject,
                       mode_names: Optional[Dict[str, Dict[str, Sequence[str]]]] = None,
                       name: Optional[str] = None) -> SSDComponent:
    """Lift an ASCET project to an FDA-level SSD.

    One reengineered component per module; channels are created wherever one
    module sends a message that another module receives (same message name).
    Unmatched messages become boundary ports of the SSD.
    """
    mode_names = mode_names or {}
    ssd = SSDComponent(name or f"{project.name}_FDA",
                       description=f"white-box reengineering of ASCET project "
                                   f"{project.name!r}")
    components: Dict[str, Component] = {}
    for module in project.module_list():
        component = reengineer_module(module, mode_names.get(module.name))
        components[module.name] = component
        ssd.add_subcomponent(component)

    senders: Dict[str, Tuple[str, str]] = {}
    for module in project.module_list():
        component = components[module.name]
        for message in module.send_messages:
            if component.has_port(message):
                senders[message] = (component.name, message)

    connected_inputs = set()
    for module in project.module_list():
        component = components[module.name]
        for message in module.receive_messages:
            if not component.has_port(message):
                continue
            if message in senders:
                source_component, source_port = senders[message]
                ssd.connect(f"{source_component}.{source_port}",
                            f"{component.name}.{message}", delayed=True)
                connected_inputs.add((component.name, message))
            else:
                if not ssd.has_port(message):
                    ssd.add_typed_input(message, FLOAT)
                ssd.connect(message, f"{component.name}.{message}")
    for message, (component_name, port_name) in sorted(senders.items()):
        if not ssd.has_port(message):
            ssd.add_typed_output(message, FLOAT)
            ssd.connect(f"{component_name}.{port_name}", message)
    ssd.annotate("reengineered_from", project.name)
    return ssd


# --------------------------------------------------------------------------
# black-box reengineering
# --------------------------------------------------------------------------

def blackbox_reengineer(matrix: CommunicationMatrix,
                        name: Optional[str] = None) -> SSDComponent:
    """Build a partial FAA-level SSD from a communication matrix.

    Every function named in the matrix becomes a structure-only component;
    every signal becomes a typed output port of its sender, input ports of
    its receivers, and one channel per receiver.  Behaviour stays
    unspecified, which is legal on the FAA level.
    """
    ssd = SSDComponent(name or f"{matrix.name}_FAA",
                       description=f"partial FAA model derived from "
                                   f"communication matrix {matrix.name!r} "
                                   "(black-box reengineering)")
    components: Dict[str, Component] = {}
    for function in matrix.functions():
        component = Component(function,
                              description="function recovered from the "
                                          "communication matrix")
        component.annotate("reengineered_from", matrix.name)
        components[function] = component
        ssd.add_subcomponent(component)
    for entry in matrix.entries():
        sender = components[entry.sender]
        if not sender.has_port(entry.signal):
            sender.add_output(entry.signal, FLOAT)
        for receiver_name in entry.receivers:
            receiver = components[receiver_name]
            port_name = entry.signal
            if not receiver.has_port(port_name):
                receiver.add_input(port_name, FLOAT)
            ssd.connect(f"{entry.sender}.{entry.signal}",
                        f"{receiver_name}.{port_name}", delayed=True)
    return ssd


# --------------------------------------------------------------------------
# transformation-step wrappers
# --------------------------------------------------------------------------

class WhiteBoxReengineering(Transformation):
    """ASCET module/project -> FDA component (Sec. 4, validated in Sec. 5)."""

    name = "white-box-reengineering"
    kind = TransformationKind.REENGINEERING
    source_level = AbstractionLevel.OA
    target_level = AbstractionLevel.FDA

    def check_applicable(self, subject):
        report = super().check_applicable(subject)
        if not isinstance(subject, (AscetModule, AscetProject)):
            report.error(self.name, "subject must be an ASCET module or project")
        return report

    def _transform(self, subject, **options):
        mode_names = options.get("mode_names")
        if isinstance(subject, AscetProject):
            output = reengineer_project(subject, mode_names)
            details = {"modules": len(subject.module_list())}
        else:
            output = reengineer_module(subject, mode_names)
            details = {"processes": len(subject.process_list()),
                       "implicit_if_then_else": subject.if_then_else_count()}
        return output, details


class BlackBoxReengineering(Transformation):
    """Communication matrix -> partial FAA model (Sec. 4)."""

    name = "black-box-reengineering"
    kind = TransformationKind.REENGINEERING
    source_level = AbstractionLevel.TA
    target_level = AbstractionLevel.FAA

    def check_applicable(self, subject):
        report = super().check_applicable(subject)
        if not isinstance(subject, CommunicationMatrix):
            report.error(self.name, "subject must be a communication matrix")
        elif len(subject) == 0:
            report.error(self.name, "the communication matrix is empty")
        return report

    def _transform(self, subject: CommunicationMatrix, **options):
        output = blackbox_reengineer(subject)
        details = {"functions": len(subject.functions()),
                   "signals": len(subject)}
        return output, details
