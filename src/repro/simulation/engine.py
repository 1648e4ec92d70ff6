"""The synchronous simulation engine.

Model simulation is one of the means the FAA/FDA levels offer for validating
functional concepts (paper Sec. 3.1).  The engine executes any component --
atomic block, DFD, SSD, MTD, STD, cluster or CCD -- against input stimuli on
the global discrete time base and records a :class:`SimulationTrace`.

Stimuli are given per input port as

* a :class:`~repro.core.values.Stream` (explicit per-tick values),
* a plain sequence (treated as present at every tick),
* a scalar (constant, present at every tick),
* a callable ``tick -> value`` for programmatic stimuli, or
* a stimulus generator (any object with a ``materialize(ticks)`` method,
  e.g. from :mod:`repro.scenarios.generators`), which is materialized once
  for the simulation horizon so the per-tick hot path is a list index.

Rate gating: a :class:`ClockGatedComponent` wrapper restricts a component's
reaction to the ticks of an abstract clock -- the LA-level view in which a
cluster of rate ``every(n, true)`` only exchanges messages every *n*-th tick.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..core.clocks import Clock
from ..core.components import Component, register_transparent_wrapper
from ..core.errors import SimulationError
from ..core.types import check_value
from ..core.values import ABSENT, Stream, is_absent
from ..notations.ccd import Cluster, ClusterCommunicationDiagram
from .trace import SimulationTrace

StimulusSpec = Union[Stream, Sequence[Any], Callable[[int], Any], int, float, bool, str]


class _Column:
    """A materialized feed: ``tick -> value`` over an explicit value list,
    absent beyond its end.  :func:`draw_stimuli` slices the list whole."""

    __slots__ = ("values",)

    def __init__(self, values: List[Any]):
        self.values = values

    def __call__(self, tick: int) -> Any:
        values = self.values
        return values[tick] if 0 <= tick < len(values) else ABSENT


class _Constant:
    """A scalar feed: the same value at every tick."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __call__(self, tick: int) -> Any:
        return self.value


def normalize_stimulus(spec: StimulusSpec, ticks: int) -> Callable[[int], Any]:
    """Turn any accepted stimulus specification into a ``tick -> value`` map.

    Sequences (and materialized generators) shorter than the simulation
    horizon are absent beyond their end.  Generator materialization is the
    normalization shared by both engines: reference and compiled runs see
    the exact same per-tick values for the same generator.
    """
    if isinstance(spec, Stream):
        return _Column(spec.values())
    materialize = getattr(spec, "materialize", None)
    if materialize is not None and not isinstance(spec, (list, tuple)):
        return _Column(list(materialize(ticks)))
    if callable(spec):
        return spec  # type: ignore[return-value]
    if isinstance(spec, (list, tuple)):
        return _Column(list(spec))
    return _Constant(spec)


def prepare_feeds(component: Component,
                  stimuli: Optional[Mapping[str, StimulusSpec]],
                  ticks: int) -> "tuple[tuple[str, Optional[Callable[[int], Any]]], ...]":
    """Validate *ticks*/*stimuli* against *component* and normalize feeds.

    The entry validation of :func:`run_stepped`, shared with the batch
    backend (:mod:`repro.simulation.batch_ir`) so every engine rejects bad
    tick counts and unknown stimulus ports with identical messages and
    materializes generators identically.  Returns one
    ``(port name, tick -> value | None)`` pair per input port, in
    ``input_names()`` order.
    """
    # bool is an int subclass: ticks=True would silently mean one tick, so
    # reject it the way ScenarioSuite.add does -- every entry point (run,
    # run_stepped, compiled runs, scenario batches) agrees on validation.
    if isinstance(ticks, bool) or not isinstance(ticks, int):
        raise SimulationError(
            f"tick count must be an integer number of ticks, got {ticks!r}")
    if ticks < 0:
        raise SimulationError("tick count must be non-negative")
    stimuli = dict(stimuli or {})
    input_names = component.input_names()
    unknown = set(stimuli) - set(input_names)
    if unknown:
        raise SimulationError(
            f"stimuli refer to unknown input ports {sorted(unknown)} of "
            f"component {component.name!r}")
    generators = {name: normalize_stimulus(spec, ticks)
                  for name, spec in stimuli.items()}
    return tuple((name, generators.get(name)) for name in input_names)


def draw_stimuli(
        feeds: "tuple[tuple[str, Optional[Callable[[int], Any]]], ...]",
        ticks: int,
        check: Optional[Callable[[int, int, Any], None]] = None
        ) -> "tuple[List[List[Any]], int, Optional[Exception]]":
    """Draw *feeds* (from :func:`prepare_feeds`) over a whole horizon.

    Returns ``(columns, horizon, failure)``: one value list per feed, in
    feed order.  Materialized feeds (streams, sequences, generators) and
    constants are sliced into their column whole; only the remaining
    callables are drawn tick by tick, tick-major in feed order among
    themselves -- the draw order of :func:`run_stepped`.  When a draw
    raises at tick *k*, drawing stops there: every column is cut to
    ``horizon == k`` and the exception is *failure*; the whole-horizon
    drivers hold it until ticks ``0 .. k-1`` have run, so an earlier step
    error still wins.

    With *check* -- ``(feed index, tick, value) -> None``, raising to
    reject a value -- every value is checked right after it is drawn, in
    :func:`run_stepped`'s tick-major, port-inner order, and a rejection
    ends the horizon exactly like a failing draw.
    """
    columns: List[List[Any]] = []
    drawn: List[Tuple[int, Callable[[int], Any]]] = []
    for index, (_name, feed) in enumerate(feeds):
        kind = type(feed)
        if feed is None:
            columns.append([ABSENT] * ticks)
        elif kind is _Column:
            column = feed.values[:ticks]
            column += [ABSENT] * (ticks - len(column))
            columns.append(column)
        elif kind is _Constant:
            columns.append([feed.value] * ticks)
        else:
            columns.append([])
            drawn.append((index, feed))
    if check is None:
        draws = [(columns[index].append, feed) for index, feed in drawn]
        for tick in range(ticks):
            try:
                for append, draw in draws:
                    append(draw(tick))
            except Exception as exc:  # noqa: BLE001 - held: see docstring
                return [column[:tick] for column in columns], tick, exc
        return columns, ticks, None
    feed_of = dict(drawn)
    for tick in range(ticks):
        try:
            for index, column in enumerate(columns):
                draw = feed_of.get(index)
                if draw is not None:
                    column.append(draw(tick))
                check(index, tick, column[tick])
        except Exception as exc:  # noqa: BLE001 - held: see docstring
            return [column[:tick] for column in columns], tick, exc
    return columns, ticks, None


def run_stepped(component: Component,
                step: Callable[[Mapping[str, Any], Any, int],
                               "tuple[Dict[str, Any], Any]"],
                stimuli: Optional[Mapping[str, StimulusSpec]],
                ticks: int, check_types: bool,
                initial_state: Any = None,
                mode_of: Optional[Callable[[Any], Any]] = None
                ) -> SimulationTrace:
    """The driver loop shared by the reference and the compiled engine.

    Validates the stimuli against *component*'s interface, then repeatedly
    applies *step* -- ``component.react`` for the interpreter, a compiled
    schedule for :class:`~repro.simulation.compiled.CompiledSimulator` --
    recording a trace (and mode history for mode-carrying states).  Keeping
    one loop guarantees both engines agree on stimulus handling, type
    checking and trace bookkeeping by construction.

    *initial_state* overrides ``component.initial_state()`` as the state
    fed to the first step.  Compiled schedules pass their own
    representation here (the flat engine's slot-based state); this also
    keeps very deep hierarchies runnable, where the recursive
    ``initial_state()`` walk would hit the Python recursion limit.

    The mode history records an MTD root's mode after every tick: read by
    *mode_of* from the step's state when given (a flat schedule's
    ``root_mode``), else from the ``mode`` entry of a state dict.
    """
    feeds = prepare_feeds(component, stimuli, ticks)

    trace = SimulationTrace(component.name)
    state = component.initial_state() if initial_state is None else initial_state
    mode_history = trace.mode_history
    for tick in range(ticks):
        inputs: Dict[str, Any] = {}
        for name, generator in feeds:
            value = generator(tick) if generator is not None else ABSENT
            if check_types and not is_absent(value):
                check_value(value, component.port(name).port_type,
                            context=f"{component.name}.{name}@t{tick}")
            inputs[name] = value
        outputs, state = step(inputs, state, tick)
        if check_types:
            for name, value in outputs.items():
                if component.has_port(name) and not is_absent(value):
                    check_value(value, component.port(name).port_type,
                                context=f"{component.name}.{name}@t{tick}")
        trace.record_tick(inputs, outputs)
        if mode_of is not None:
            mode_history.append(mode_of(state))
        elif isinstance(state, dict) and "mode" in state:
            mode_history.append(state["mode"])
    return trace


class Simulator:
    """Runs a component over a finite number of ticks of the base clock."""

    def __init__(self, component: Component, check_types: bool = False):
        if not component.has_behavior():
            raise SimulationError(
                f"component {component.name!r} has no executable behaviour and "
                "cannot be simulated (FAA components may be structure-only)")
        self.component = component
        self.check_types = check_types

    def run(self, stimuli: Optional[Mapping[str, StimulusSpec]] = None,
            ticks: int = 10) -> SimulationTrace:
        """Simulate for *ticks* ticks and return the recorded trace."""
        return run_stepped(self.component, self.component.react, stimuli,
                           ticks, self.check_types)


def simulate(component: Component,
             stimuli: Optional[Mapping[str, StimulusSpec]] = None,
             ticks: int = 10, check_types: bool = False) -> SimulationTrace:
    """Convenience wrapper: simulate *component* and return the trace."""
    return Simulator(component, check_types=check_types).run(stimuli, ticks)


class ClockGatedComponent(Component):
    """Restricts a component's reactions to the ticks of an abstract clock.

    At present ticks of the gate clock the wrapped component reacts normally;
    at all other ticks it is not activated, its outputs are absent and its
    state is unchanged.  This is the LA-level execution view of a cluster
    with an explicit rate.
    """

    def __init__(self, inner: Component, clock: Clock,
                 name: Optional[str] = None):
        super().__init__(name or f"{inner.name}_gated",
                         description=f"{inner.name} gated by {clock.expression()}")
        self.inner = inner
        self.clock = clock
        for port in inner.input_ports():
            self.add_input(port.name, port.port_type, clock, port.description)
        for port in inner.output_ports():
            self.add_output(port.name, port.port_type, clock, port.description)

    def has_behavior(self) -> bool:
        return self.inner.has_behavior()

    def initial_state(self) -> Any:
        return {"inner": self.inner.initial_state(), "pattern_cache": None}

    def react(self, inputs, state, tick):
        if state is None:
            state = self.initial_state()
        # The presence pattern is materialized incrementally and kept in the
        # state's pattern_cache slot, so an n-tick simulation queries the
        # clock O(log n) times instead of rebuilding pattern(tick + 1) per
        # tick (which made gated simulation O(ticks^2)).
        cache = state.get("pattern_cache")
        if getattr(cache, "clock", None) is not self.clock:
            cache = self.clock.cached()
        if not cache.at(tick):
            outputs = {name: ABSENT for name in self.output_names()}
            return outputs, {"inner": state["inner"], "pattern_cache": cache}
        inner_outputs, inner_state = self.inner.react(inputs, state["inner"], tick)
        return dict(inner_outputs), {"inner": inner_state,
                                     "pattern_cache": cache}

    def instantaneous_dependencies(self):
        return self.inner.instantaneous_dependencies()

    def structure_token(self):
        # The wrapped component lives in self.inner, not in _subcomponents;
        # recurse so enclosing composites' cached plans see its mutations.
        return (self._structure_version, self.inner.structure_token())


# The gate forwards the hierarchy queries 1:1 to the wrapped component
# (mirrored ports, has_behavior/instantaneous_dependencies delegation,
# (version, inner token) structure tokens); registering it lets the
# iterative worklist walks in repro.core.components unwrap gated nesting
# instead of recursing through it, keeping arbitrarily deep
# composite/gate chains compilable under the Python recursion limit.
register_transparent_wrapper(ClockGatedComponent, "inner")


def build_gated_ccd(ccd: ClusterCommunicationDiagram
                    ) -> ClusterCommunicationDiagram:
    """Build the gated execution view of a CCD (shared by both engines).

    A gated copy of the diagram is built so that each cluster only reacts at
    the ticks of its rate clock; the structure (channels, boundary ports) is
    preserved.  The original CCD is not modified.
    """
    gated = ClusterCommunicationDiagram(f"{ccd.name}_gated", ccd.description)
    for port in ccd.input_ports():
        gated.add_input(port.name, port.port_type, port.clock, port.description)
    for port in ccd.output_ports():
        gated.add_output(port.name, port.port_type, port.clock, port.description)

    wrappers: Dict[str, ClockGatedComponent] = {}
    for component in ccd.subcomponents():
        if isinstance(component, Cluster):
            wrapper = ClockGatedComponent(component, component.rate,
                                          name=component.name)
        else:  # non-cluster elements run on the base clock
            wrapper = ClockGatedComponent(component, component.port(
                component.input_names()[0]).clock if component.input_names()
                else ccd.port(ccd.input_names()[0]).clock, name=component.name)
        wrappers[component.name] = wrapper
        # bypass add_cluster type restriction: wrappers stand in for clusters
        super(ClusterCommunicationDiagram, gated).add_subcomponent(wrapper)

    for channel in ccd.channels():
        gated.connect(
            channel.source.port if channel.source.is_boundary()
            else f"{channel.source.component}.{channel.source.port}",
            channel.destination.port if channel.destination.is_boundary()
            else f"{channel.destination.component}.{channel.destination.port}",
            name=channel.name, delayed=channel.delayed,
            initial_value=channel.initial_value)

    return gated


def simulate_ccd(ccd: ClusterCommunicationDiagram,
                 stimuli: Optional[Mapping[str, StimulusSpec]] = None,
                 ticks: int = 20, check_types: bool = False) -> SimulationTrace:
    """Simulate a CCD with every cluster gated by its explicit rate clock."""
    return simulate(build_gated_ccd(ccd), stimuli, ticks, check_types)
