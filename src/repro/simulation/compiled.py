"""The compiled simulation engine: compile once, run many.

The reference :class:`~repro.simulation.engine.Simulator` is a tree-walking
interpreter: every tick of every composite re-derives the topological
evaluation order, the instantaneous-dependency information and the channel
routing from the model structure.  That is the right reference semantics --
simple, always in sync with the model -- but it makes simulation the
bottleneck of FAA/FDA validation (paper Sec. 3.1), where one functional
concept is exercised against many scenarios.

This module splits execution into two phases.

**Compile** (:func:`compile_component`): composites, clock gates and
mode-transition diagrams -- at the root and inside a hierarchy -- are
lowered onto the flat schedule IR of :mod:`repro.simulation.schedule_ir`
(one global step program over slot-based environments).  What remains
here are the **leaf compilers** (:func:`compile_leaf`), which turn one
leaf into a step closure with every decision precomputed; the flat IR runs
them as single ops, and a leaf root compiles to its leaf step directly:

* each state-transition diagram gets per-state sorted transition tables
  with compiled guards, actions and emissions (guards lowered to closures
  via :mod:`repro.core.expr_compile`);
* each expression block gets its output expressions lowered to closures;
* every other component (function/stateful blocks, custom ``react``
  subclasses...) is already a single ``react`` call and is executed
  directly.

**Run** (:class:`CompiledSimulator` / :class:`ScenarioSuite`): the compiled
schedule is a pure function of ``(inputs, state, tick)`` and can therefore
be reused across any number of simulation runs.  :class:`ScenarioSuite`
exploits this for scenario sweeps: one compile, many stimulus sets, with
:meth:`ScenarioSuite.verify_against_reference` as the built-in differential
check against the interpreter.

The schedule is compiled from a snapshot of the model: structural changes
made to the model after compilation are not picked up (recompile instead).
Observable behaviour -- traces, including ``mode_history`` -- is
tick-for-tick identical to the reference engine; the differential suite in
``tests/test_compiled_equivalence.py`` and the golden traces in
``tests/test_golden_traces.py`` enforce this.
"""

from __future__ import annotations

import warnings
from typing import (Any, Callable, Dict, List, Mapping, Optional, Tuple)

from ..core.components import Component, ExpressionComponent
from ..core.errors import ModelError, SimulationError
from ..core.values import ABSENT, is_present
from ..obs.context import active as _obs_active
from ..obs.context import maybe_span
from ..notations.ccd import ClusterCommunicationDiagram
from ..notations.std import StateTransitionDiagram
from .engine import Simulator, StimulusSpec, build_gated_ccd, run_stepped
from .trace import SimulationTrace, first_difference

#: A compiled step: ``(inputs, state, tick) -> (outputs, next_state)``.
StepFunction = Callable[[Mapping[str, Any], Any, int], Tuple[Dict[str, Any], Any]]


class CompiledSchedule:
    """A leaf component compiled into an executable step.

    ``step`` is the executable form; ``kind`` names the leaf compiler
    (``"std"`` or ``"atomic"``), so tests and tools can inspect what the
    compiler produced.
    """

    __slots__ = ("component", "kind", "step")

    #: leaf roots record ``mode_history`` from their state dicts
    root_mode = None

    def __init__(self, component: Component, kind: str, step: StepFunction):
        self.component = component
        self.kind = kind
        self.step = step

    def initial_state(self) -> Any:
        return self.component.initial_state()

    def linear_steps(self, prefix: str = "") -> List[Tuple[str, str]]:
        """The schedule: ``(hierarchical path, kind)`` of the leaf."""
        path = f"{prefix}/{self.component.name}" if prefix else self.component.name
        return [(path, self.kind)]

    def describe(self) -> str:
        """Human-readable rendering of the schedule."""
        return "\n".join(f"{kind:>10}  {path}"
                         for path, kind in self.linear_steps())

    def __repr__(self) -> str:
        return (f"CompiledSchedule({self.component.name!r}, "
                f"kind={self.kind!r})")


def compile_component(component: Component, verify: bool = False):
    """Compile *component* into a reusable execution schedule.

    Composites, clock gates and mode-transition diagrams with the default
    ``react`` compile to the flat schedule IR
    (:class:`~repro.simulation.schedule_ir.FlatSchedule`): one global,
    topologically ordered step program over slot-based environments, with
    gating predicates, mode switches and correction barriers preserving
    the reference semantics exactly.  Leaf roots -- STDs, expression and
    atomic blocks, subclasses with a custom ``react`` -- compile to their
    leaf step (:func:`compile_leaf`).  Both schedule kinds share the
    ``(inputs, state, tick) -> (outputs, state)`` step contract and the
    ``linear_steps()`` / ``describe()`` naming contract.

    With ``verify=True`` the static-analysis engine
    (:mod:`repro.analysis.lint`) runs first -- model-level lint of the
    hierarchy plus, on the flat path, IR dataflow verification of the
    compiled program -- and any error finding raises
    :class:`~repro.core.errors.ValidationError` before a schedule is
    returned.
    """
    from .schedule_ir import compile_flat, is_flattenable
    if verify:
        from ..analysis.lint import lint_component, lint_flat_schedule
        lint_component(component).raise_on_errors()
    if is_flattenable(component):
        schedule = compile_flat(component)
        if verify:
            lint_flat_schedule(schedule).raise_on_errors()
        return schedule
    return compile_leaf(component)


def compile_leaf(component: Component) -> CompiledSchedule:
    """Compile a leaf -- an STD, an expression block or any component with
    its own ``react`` -- into its step closure.  The flat IR runs these as
    single ops; composites, gates and machines never reach here except as
    custom-``react`` subclasses, which are leaves too."""
    if isinstance(component, StateTransitionDiagram) \
            and type(component).react is StateTransitionDiagram.react:
        return _compile_std(component)
    if isinstance(component, ExpressionComponent) \
            and type(component).react is ExpressionComponent.react:
        return _compile_expression(component)
    return _compile_atomic(component)


def _compile_atomic(component: Component) -> CompiledSchedule:
    """A component with its own ``react`` is already a single step."""
    return CompiledSchedule(component, "atomic", component.react)


def _compile_expression(component: ExpressionComponent) -> CompiledSchedule:
    """Specialized atomic step for expression blocks.

    The reference ``react`` copies the inputs into a fresh environment dict
    every tick; the evaluator never mutates its environment, and the input
    dicts built by the flat program's ``run`` op (or the simulator loop)
    are fresh per tick, so evaluating against *inputs* directly is
    observationally identical and saves one dict copy per block per tick.
    On top of that, the output expressions are lowered to closures
    (:mod:`repro.core.expr_compile`), removing the per-tick AST walk.
    """
    compiler = component._evaluator.compile  # noqa: SLF001 - same evaluator
    items = tuple((name, compiler(expression))
                  for name, expression in component.output_expressions.items())

    def step(inputs: Mapping[str, Any], state: Any,
             tick: int) -> Tuple[Dict[str, Any], Any]:
        return {name: compiled(inputs) for name, compiled in items}, state

    return CompiledSchedule(component, "atomic", step)


#: Action-target classification for compiled STD transitions.
_ASSIGN_VARIABLE, _ASSIGN_OUTPUT, _ASSIGN_INVALID = 0, 1, 2


def _compile_std(component: StateTransitionDiagram) -> CompiledSchedule:
    """Precompute per-state sorted transition tables with compiled guards,
    actions and emissions.

    Tick-for-tick identical to :meth:`StateTransitionDiagram.react`,
    including the invalid-action-target :class:`ModelError` path (classified
    at compile time, raised when the offending transition fires) and the
    ``state``-port emission precedence (explicit actions beat state
    emissions beat the automatic state-name emission).
    """
    if not component.states():
        raise ModelError(f"STD {component.name!r} has no states")
    compiler = component._evaluator.compile  # noqa: SLF001 - same evaluator
    component_name = component.name
    output_names = tuple(component.output_names())
    output_set = frozenset(output_names)
    variable_names = frozenset(component.variables())
    has_variables = bool(variable_names)
    state_port = (component.STATE_PORT if component.STATE_PORT in output_set
                  else None)

    transition_table: Dict[str, Tuple[Any, ...]] = {}
    emission_table: Dict[str, Tuple[Tuple[str, Any], ...]] = {}
    for std_state in component.states():
        rows = []
        for transition in component.transitions_from(std_state.name):
            actions = []
            for target_name, expression in transition.actions.items():
                if target_name in variable_names:
                    kind = _ASSIGN_VARIABLE
                elif target_name in output_set:
                    kind = _ASSIGN_OUTPUT
                else:
                    kind = _ASSIGN_INVALID
                actions.append((kind, target_name, compiler(expression)))
            rows.append((compiler(transition.guard), transition.target,
                         tuple(actions)))
        transition_table[std_state.name] = tuple(rows)
        # react() skips emissions to non-output names; filter at compile time
        emission_table[std_state.name] = tuple(
            (port_name, compiler(expression))
            for port_name, expression in std_state.emissions.items()
            if port_name in output_set)

    initial_state_name = component.initial_state_name
    initial_state = component.initial_state

    def step(inputs: Mapping[str, Any], state: Any,
             tick: int) -> Tuple[Dict[str, Any], Any]:
        if state is None:
            state = initial_state()
        current = state["state"] or initial_state_name
        variables = state["vars"]
        if has_variables:
            variables = dict(variables)
            environment = dict(variables)
            environment.update(inputs)
        else:
            # No local variables: guards/actions/emissions see the inputs
            # only, and the (empty) vars dict is never mutated.
            environment = inputs
        outputs: Dict[str, Any] = {name: ABSENT for name in output_names}

        fired = None
        for guard, target, actions in transition_table[current]:
            value = guard(environment)
            if is_present(value) and bool(value):
                fired = (target, actions)
                break

        variables_changed = False
        if fired is not None:
            target, actions = fired
            for kind, target_name, compiled in actions:
                result = compiled(environment)
                if kind == _ASSIGN_VARIABLE:
                    variables[target_name] = result
                    variables_changed = True
                elif kind == _ASSIGN_OUTPUT:
                    outputs[target_name] = result
                else:
                    raise ModelError(
                        f"action target {target_name!r} of STD "
                        f"{component_name!r} is neither a local variable nor "
                        "an output port")
            current = target

        if variables_changed:
            emission_environment = dict(variables)
            emission_environment.update(inputs)
        else:
            emission_environment = environment
        for port_name, compiled in emission_table[current]:
            if outputs[port_name] is ABSENT:
                outputs[port_name] = compiled(emission_environment)

        if state_port is not None and outputs[state_port] is ABSENT:
            outputs[state_port] = current

        return outputs, {"state": current, "vars": variables}

    return CompiledSchedule(component, "std", step)


#: Schedule backends accepted by :class:`CompiledSimulator` (sorted).
_BACKENDS = ("auto", "batch", "flat", "native")


class CompiledSimulator:
    """Drop-in replacement for :class:`Simulator` backed by a compiled schedule.

    The schedule is built once in the constructor; :meth:`run` may be called
    any number of times with different stimuli, which is what makes scenario
    sweeps cheap.  Semantics, including every error path, match the
    reference engine.

    *backend* selects the compilation strategy: ``"auto"`` (default) is
    :func:`compile_component` -- the flat schedule IR for composite, gated
    and MTD roots, the leaf step for leaf roots; ``"flat"`` forces the
    flat IR (and raises :class:`SimulationError` for leaf roots).
    ``"batch"`` additionally lowers the flat program onto the vectorized
    battery backend (:mod:`repro.simulation.batch_ir`, requires NumPy and a
    flattenable root): single runs go through a one-lane sweep, and batch-
    aware callers (:class:`ScenarioSuite`,
    :func:`repro.scenarios.runner.run_sharded`) execute whole batteries as
    single sweeps via :attr:`batch_schedule`.  ``"native"`` compiles the
    flat program to a C function driven through ctypes, one call per
    scenario (:mod:`repro.simulation.native`, requires a flattenable root
    and a C compiler); hosts without a compiler degrade to the flat interpreter
    with a warning.
    """

    def __init__(self, component: Component, check_types: bool = False,
                 backend: str = "auto"):
        if backend not in _BACKENDS:
            raise SimulationError(
                f"unknown schedule backend {backend!r} "
                f"(choose from {_BACKENDS})")
        if not component.has_behavior():
            raise SimulationError(
                f"component {component.name!r} has no executable behaviour and "
                "cannot be simulated (FAA components may be structure-only)")
        self.component = component
        self.check_types = check_types
        self.backend = backend
        self.batch_schedule = None
        with maybe_span("compile.component", component=component.name,
                        backend=backend) as span:
            if backend == "auto":
                self.schedule = compile_component(component)
            elif backend == "flat":
                from .schedule_ir import compile_flat
                self.schedule = compile_flat(component)
            elif backend == "batch":
                from .schedule_ir import compile_flat
                try:
                    from .batch_ir import BatchSchedule
                except ImportError as exc:
                    raise SimulationError(
                        "backend 'batch' requires numpy, which is not "
                        "installed") from exc
                self.schedule = compile_flat(component)
                self.batch_schedule = BatchSchedule(self.schedule)
            else:
                from .schedule_ir import compile_flat
                from .native import compile_native, native_available
                flat_schedule = compile_flat(component)
                if native_available():
                    self.schedule = compile_native(flat_schedule)
                else:
                    warnings.warn(
                        "backend 'native' requires a C compiler (cc/gcc/"
                        "clang); falling back to the flat interpreter",
                        RuntimeWarning, stacklevel=2)
                    self.schedule = flat_schedule
            if span is not None:
                span.attributes["kind"] = self.schedule.kind

    def run(self, stimuli: Optional[Mapping[str, StimulusSpec]] = None,
            ticks: int = 10) -> SimulationTrace:
        """Simulate for *ticks* ticks and return the recorded trace.

        A flat or native schedule driving its own step without type checks
        runs the whole horizon at once (:meth:`runs_horizon`): the flat
        schedule draws the stimuli once, loops its kernels over the ticks
        and builds the trace from columns; the native one makes one
        foreign call.  Any other step -- a wrapper installed as
        ``schedule.step``, a swapped-in telemetry variant -- and every
        ``check_types`` run go tick by tick through
        :func:`~repro.simulation.engine.run_stepped`, calling the step
        exactly once per tick.  Traces and errors are identical either way.

        With observability enabled (:mod:`repro.obs`) the run is wrapped in
        a tracing span, and -- when the session asked for ``profile_ops``
        or ``flight_recording`` and the schedule is a flat program --
        executed through a swapped-in step variant (op-profiling or
        flight-recording; recording wins when both are on).  Flight
        recording also overrides the vectorized batch backend: forensics
        needs per-tick slot environments, so recorded runs take the flat
        stepped path even when ``backend="batch"``.  The default path is
        untouched: ``schedule.step`` is the same closure whether or not
        :mod:`repro.obs` was ever enabled.
        """
        telemetry = _obs_active()
        recording = (telemetry is not None and telemetry.flight_recording
                     and hasattr(self.schedule, "recording_step"))
        if self.batch_schedule is not None and not recording:
            return self.batch_schedule.run_one(stimuli, ticks,
                                               self.check_types)
        schedule = self.schedule
        if telemetry is None:
            return self._drive(schedule.step, stimuli, ticks)
        step = telemetry.step_for(schedule) or schedule.step
        with telemetry.tracer.span("run", component=self.component.name,
                                   backend=self.backend, ticks=ticks,
                                   kind=schedule.kind):
            return self._drive(step, stimuli, ticks)

    def runs_horizon(self, step: StepFunction) -> bool:
        """True when driving *step* means the schedule's whole-horizon run
        (``run_horizon``): *step* is the flat or native schedule's own step
        and no type checks interleave.  A substituted step -- a wrapper,
        an observing or swapped-in telemetry variant -- and every
        ``check_types`` run go tick by tick instead."""
        return not self.check_types \
            and step is getattr(self.schedule, "own_step", None)

    def _drive(self, step: StepFunction,
               stimuli: Optional[Mapping[str, StimulusSpec]],
               ticks: int) -> SimulationTrace:
        """Run *step* over the horizon: in one whole-horizon run when
        :meth:`runs_horizon` says so, else tick by tick -- a substituted
        step is called exactly once per tick."""
        schedule = self.schedule
        if self.runs_horizon(step):
            return schedule.run_horizon(stimuli, ticks)
        return run_stepped(self.component, step, stimuli, ticks,
                           self.check_types,
                           initial_state=schedule.initial_state(),
                           mode_of=schedule.root_mode)


def simulate_compiled(component: Component,
                      stimuli: Optional[Mapping[str, StimulusSpec]] = None,
                      ticks: int = 10,
                      check_types: bool = False) -> SimulationTrace:
    """Convenience wrapper: compile *component*, run once, return the trace."""
    return CompiledSimulator(component, check_types=check_types).run(stimuli,
                                                                     ticks)


def compile_ccd(ccd: ClusterCommunicationDiagram,
                check_types: bool = False) -> CompiledSimulator:
    """Compile the gated execution view of a CCD (cluster-rate gating)."""
    return CompiledSimulator(build_gated_ccd(ccd), check_types=check_types)


def simulate_ccd_compiled(ccd: ClusterCommunicationDiagram,
                          stimuli: Optional[Mapping[str, StimulusSpec]] = None,
                          ticks: int = 20,
                          check_types: bool = False) -> SimulationTrace:
    """Compiled counterpart of :func:`~repro.simulation.engine.simulate_ccd`."""
    return compile_ccd(ccd, check_types=check_types).run(stimuli, ticks)


class ScenarioSuite:
    """A batch of scenarios sharing one compiled schedule.

    This is the scenario-diversity axis of validation: sweep engine-mode
    sequences, event storms or randomized stimulus sets against the same
    model while paying the compilation cost once.

    *backend* is forwarded to :class:`CompiledSimulator`; with
    ``backend="batch"`` :meth:`run_all` executes the whole suite as one
    vectorized sweep instead of one run per scenario (identical traces,
    identical first-error propagation).
    """

    def __init__(self, component: Component, check_types: bool = False,
                 backend: str = "auto"):
        self.simulator = CompiledSimulator(component, check_types=check_types,
                                           backend=backend)
        self._scenarios: List[Tuple[str, Optional[Mapping[str, StimulusSpec]],
                                    int]] = []

    def add(self, name: str,
            stimuli: Optional[Mapping[str, StimulusSpec]] = None,
            ticks: int = 10) -> "ScenarioSuite":
        """Register a scenario; returns ``self`` for chaining."""
        if any(existing == name for existing, _, _ in self._scenarios):
            raise SimulationError(
                f"scenario suite already has a scenario {name!r}")
        if not isinstance(ticks, int) or isinstance(ticks, bool) or ticks <= 0:
            raise SimulationError(
                f"scenario {name!r} must run for a positive integer number "
                f"of ticks, got {ticks!r}")
        self._scenarios.append((name, stimuli, ticks))
        return self

    def names(self) -> List[str]:
        return [name for name, _, _ in self._scenarios]

    def scenarios(self) -> List[Any]:
        """The registered scenarios as :class:`repro.scenarios.Scenario`
        records (the batch format of the sharded runner)."""
        from ..scenarios.generators import Scenario
        return [Scenario(name, dict(stimuli or {}), ticks)
                for name, stimuli, ticks in self._scenarios]

    def __len__(self) -> int:
        return len(self._scenarios)

    def run_all(self) -> Dict[str, SimulationTrace]:
        """Run every scenario against the compiled schedule.

        With the batch backend the whole suite is one vectorized sweep; the
        first failing scenario (in registration order) re-raises its
        original exception, mirroring the serial loop.
        """
        if self.simulator.batch_schedule is not None:
            traces: Dict[str, SimulationTrace] = {}
            for outcome in self.simulator.batch_schedule.run_battery(
                    self._scenarios, check_types=self.simulator.check_types):
                if outcome.exception is not None:
                    raise outcome.exception
                traces[outcome.name] = outcome.trace
            return traces
        return {name: self.simulator.run(stimuli, ticks)
                for name, stimuli, ticks in self._scenarios}

    def run_parallel(self, max_workers: Optional[int] = None,
                     executor: str = "process") -> Dict[str, SimulationTrace]:
        """Shard the batch across a worker pool (same traces as
        :meth:`run_all`, in the same order).

        Delegates to :func:`repro.scenarios.runner.run_sharded`: worker
        processes receive the pickled *model* and recompile the schedule
        once each, so stimuli must be picklable for ``executor="process"``
        (the generators of :mod:`repro.scenarios.generators` are).  A
        failing scenario raises :class:`SimulationError` here, mirroring
        :meth:`run_all`'s behaviour of propagating the first error.
        """
        from ..scenarios.runner import run_sharded
        results = run_sharded(self.simulator.component, self.scenarios(),
                              max_workers=max_workers, executor=executor,
                              check_types=self.simulator.check_types,
                              backend=self.simulator.backend)
        traces: Dict[str, SimulationTrace] = {}
        for result in results:
            if result.error is not None:
                raise SimulationError(
                    f"scenario {result.name!r} failed during sharded run: "
                    f"{result.error}")
            traces[result.name] = result.trace
        return traces

    def verify_against_reference(self) -> Dict[str, Optional[Dict[str, Any]]]:
        """Differential check: compiled vs interpreter, per scenario.

        Returns the :func:`~repro.simulation.trace.first_difference` result
        for every scenario -- ``None`` everywhere means the engines agree
        tick-for-tick on all scenarios.
        """
        reference = Simulator(self.simulator.component,
                              check_types=self.simulator.check_types)
        differences: Dict[str, Optional[Dict[str, Any]]] = {}
        for name, stimuli, ticks in self._scenarios:
            compiled_trace = self.simulator.run(stimuli, ticks)
            reference_trace = reference.run(stimuli, ticks)
            difference = first_difference(reference_trace, compiled_trace)
            if difference is None \
                    and reference_trace.mode_history != compiled_trace.mode_history:
                difference = {"signal": "mode_history", "tick": None,
                              "first": reference_trace.mode_history,
                              "second": compiled_trace.mode_history}
            differences[name] = difference
        return differences
