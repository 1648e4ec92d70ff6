"""The stimulus-generator DSL: determinism, composition, batch expansion."""

import pickle

import pytest

from repro.core.errors import SimulationError
from repro.core.values import Stream, is_absent
from repro.scenarios import (Constant, Dropout, EventStorm, ModeSequence,
                             OutOfRange, RandomWalk, Ramp, Scenario, SineWave,
                             SquareWave, StepChange, StuckAt, UniformNoise,
                             mode_sequence_sweep, sample_spec, scenario_grid)
from repro.simulation import normalize_stimulus, simulate


# -- deterministic waveforms -----------------------------------------------


def test_ramp_and_step_and_constant():
    ramp = Ramp(start=10.0, slope=2.0, high=16.0)
    assert ramp.materialize(5) == [10.0, 12.0, 14.0, 16.0, 16.0]
    step = StepChange(at=3, before=0.0, after=5.0)
    assert step.materialize(5) == [0.0, 0.0, 0.0, 5.0, 5.0]
    assert Constant(7).materialize(3) == [7, 7, 7]


def test_square_wave_levels_and_duty():
    wave = SquareWave(period=4, low=0, high=1, duty=0.5)
    assert wave.materialize(8) == [1, 1, 0, 0, 1, 1, 0, 0]
    offset = SquareWave(period=4, low=0, high=1, duty=0.5, phase=2)
    assert offset.materialize(4) == [0, 0, 1, 1]
    with pytest.raises(SimulationError):
        SquareWave(period=0)
    with pytest.raises(SimulationError):
        SquareWave(period=4, duty=1.5)


def test_sine_wave_shape():
    wave = SineWave(amplitude=2.0, period=4.0, offset=1.0)
    values = wave.materialize(5)
    assert values[0] == pytest.approx(1.0)
    assert values[1] == pytest.approx(3.0)
    assert values[3] == pytest.approx(-1.0)
    with pytest.raises(SimulationError):
        SineWave(period=0.0)


def test_mode_sequence_segments_and_hold():
    sequence = ModeSequence([("Off", 2), ("Cranking", 3), ("Idle", 1)])
    assert sequence.total_ticks() == 6
    assert sequence.materialize(8) == [
        "Off", "Off", "Cranking", "Cranking", "Cranking", "Idle",
        "Idle", "Idle"]  # held beyond the last segment
    dropped = ModeSequence([("A", 1)], hold_last=False)
    assert dropped.sample(0) == "A"
    assert is_absent(dropped.sample(1))
    with pytest.raises(SimulationError):
        ModeSequence([])
    with pytest.raises(SimulationError):
        ModeSequence([("A", 0)])


@pytest.mark.parametrize("hold_last", [True, False])
def test_mode_sequence_materialize_equals_sample(hold_last):
    """The one-walk materialize equals sampling tick by tick, for every
    horizon from empty to past the last segment."""
    sequence = ModeSequence([("Off", 2), (0.0, 1), ("Idle", 3), (7, 2)],
                            hold_last=hold_last)
    for ticks in range(0, 12):
        values = sequence.materialize(ticks)
        assert values == [sequence.sample(tick) for tick in range(ticks)]
        assert [type(value) for value in values] \
            == [type(sequence.sample(tick)) for tick in range(ticks)]


# -- seeded generators ------------------------------------------------------


def test_seeded_generators_are_deterministic():
    for factory in (lambda: UniformNoise(seed=7, low=-1.0, high=1.0),
                    lambda: RandomWalk(seed=7, start=0.0, step=2.0),
                    lambda: EventStorm(seed=7, rate=0.4, values=(1, 2, 3))):
        first, second = factory(), factory()
        assert first.materialize(50) == second.materialize(50)


def test_seeded_generator_cache_is_stable_across_query_orders():
    walk = RandomWalk(seed=3, start=0.0, step=1.0)
    late = walk.sample(20)
    early = walk.sample(5)
    fresh = RandomWalk(seed=3, start=0.0, step=1.0)
    assert fresh.materialize(21)[20] == late
    assert fresh.materialize(21)[5] == early


def test_seeded_generators_survive_pickling():
    storm = EventStorm(seed=11, rate=0.5, values=("a", "b"))
    original = storm.materialize(40)
    clone = pickle.loads(pickle.dumps(storm))
    assert clone.materialize(40) == original
    # pickling a partially-materialized generator also replays identically
    walk = RandomWalk(seed=5, start=1.0, step=0.5, low=0.0, high=10.0)
    walk.sample(13)
    clone = pickle.loads(pickle.dumps(walk))
    assert clone.materialize(30) == walk.materialize(30)


def _seeded_generators():
    return [UniformNoise(seed=7, low=-1.0, high=1.0),
            RandomWalk(seed=7, start=0.0, step=2.0, low=-1.0, high=3.0),
            EventStorm(seed=7, rate=0.5, values=(1, 2, 3)),
            Dropout(RandomWalk(seed=3, step=1.0), seed=7, probability=0.5)]


@pytest.mark.parametrize("index", range(4))
def test_bulk_materialize_equals_per_tick_samples(index):
    """The bulk draw replays exactly the per-tick draws: fresh, after a
    pickle round trip, and on a partly drawn cache."""
    fresh, sampled = _seeded_generators()[index], \
        _seeded_generators()[index]
    expected = [sampled.sample(tick) for tick in range(30)]
    assert fresh.materialize(30) == expected
    shipped = pickle.loads(pickle.dumps(fresh))
    assert shipped.materialize(30) == expected
    partly = _seeded_generators()[index]
    partly.sample(7)
    assert partly.materialize(30) == expected
    assert partly.materialize(5) == expected[:5]
    assert partly.materialize(0) == []


def test_seeded_generators_pin_their_values():
    """Literal histories for one seed: the draw sequence never changes."""
    noise, walk, storm, dropout = _seeded_generators()
    assert noise.materialize(3) == [-0.35233447033367526,
                                    -0.6983016521509962, 0.3018689460797075]
    assert walk.materialize(4) == [-0.7046689406673505, -1.0,
                                   -0.396262107840585, -1.0]
    assert storm.materialize(6) == [1, 1, 3, 3, 3, 1]
    assert [None if is_absent(value) else value
            for value in dropout.materialize(6)] == [
        None, None, -0.695701962128155, None, -0.23642127671965807, None]


def test_random_walk_respects_bounds():
    walk = RandomWalk(seed=1, start=5.0, step=50.0, low=0.0, high=10.0)
    assert all(0.0 <= value <= 10.0 for value in walk.materialize(100))


def test_event_storm_rate_extremes():
    silent = EventStorm(seed=2, rate=0.0)
    assert all(is_absent(value) for value in silent.materialize(20))
    storm = EventStorm(seed=2, rate=1.0, values=(True,))
    assert storm.materialize(20) == [True] * 20
    with pytest.raises(SimulationError):
        EventStorm(seed=2, rate=1.5)
    with pytest.raises(SimulationError):
        EventStorm(seed=2, values=())


def test_negative_tick_is_rejected():
    with pytest.raises(SimulationError):
        UniformNoise(seed=0).sample(-1)


# -- fault injectors --------------------------------------------------------


def test_stuck_at_windows_wrap_any_spec():
    stuck = StuckAt([1, 2, 3, 4, 5], value=99, from_tick=1, until=3)
    assert stuck.materialize(5) == [1, 99, 99, 4, 5]
    forever = StuckAt(Ramp(), value=0.0, from_tick=2)
    assert forever.materialize(4) == [0.0, 1.0, 0.0, 0.0]


def test_dropout_is_seeded_and_wraps_scalars():
    faulty = Dropout(5.0, seed=13, probability=0.5)
    values = faulty.materialize(40)
    assert pickle.loads(pickle.dumps(faulty)).materialize(40) == values
    dropped = sum(1 for value in values if is_absent(value))
    assert 0 < dropped < 40
    assert all(value == 5.0 for value in values if not is_absent(value))
    assert Dropout(5.0, seed=1, probability=0.0).materialize(10) == [5.0] * 10
    with pytest.raises(SimulationError):
        Dropout(5.0, seed=1, probability=2.0)


def test_out_of_range_spikes():
    spiky = OutOfRange(Constant(1.0), at_ticks=[2, 4], value=1e9)
    assert spiky.materialize(5) == [1.0, 1.0, 1e9, 1.0, 1e9]


def test_stuck_at_rejects_degenerate_windows():
    # a window that can never fire would silently disable the fault
    with pytest.raises(SimulationError):
        StuckAt(Ramp(), value=0.0, from_tick=5, until=5)
    with pytest.raises(SimulationError):
        StuckAt(Ramp(), value=0.0, from_tick=5, until=3)
    with pytest.raises(SimulationError):
        StuckAt(Ramp(), value=0.0, from_tick=-1)
    with pytest.raises(SimulationError):
        StuckAt(Ramp(), value=0.0, from_tick=1.5)
    with pytest.raises(SimulationError):
        StuckAt(Ramp(), value=0.0, from_tick=0, until=2.5)
    with pytest.raises(SimulationError):
        StuckAt(Ramp(), value=0.0, from_tick=True)
    # healthy windows still work, including open-ended ones
    assert StuckAt([1, 2], value=9, from_tick=1).materialize(2) == [1, 9]


def test_out_of_range_rejects_degenerate_spikes():
    with pytest.raises(SimulationError):
        OutOfRange(Constant(1.0), at_ticks=[], value=1e9)
    with pytest.raises(SimulationError):
        OutOfRange(Constant(1.0), at_ticks=[-2], value=1e9)
    with pytest.raises(SimulationError):
        OutOfRange(Constant(1.0), at_ticks=[1, 2.5], value=1e9)
    with pytest.raises(SimulationError):
        OutOfRange(Constant(1.0), at_ticks=[True], value=1e9)


def test_sample_spec_covers_every_spec_kind():
    assert sample_spec(Stream([1, 2]), 1) == 2
    assert is_absent(sample_spec(Stream([1, 2]), 5))
    assert sample_spec([1, 2], 0) == 1
    assert is_absent(sample_spec((1, 2), 7))
    assert sample_spec(lambda tick: tick * 2, 4) == 8
    assert sample_spec(42, 123) == 42


# -- scenarios and batch expansion -----------------------------------------


def test_scenario_validates_name_and_ticks():
    with pytest.raises(SimulationError):
        Scenario("", {}, 5)
    with pytest.raises(SimulationError):
        Scenario("s", {}, 0)
    with pytest.raises(SimulationError):
        Scenario("s", {}, -3)
    with pytest.raises(SimulationError):
        Scenario("s", {}, 2.5)


def test_scenario_grid_expands_cartesian_product():
    scenarios = scenario_grid("sweep", {
        "n": [800.0, 3000.0],
        "ped": [0.0, 50.0, 100.0],
    }, ticks=20, base={"t_eng": 90.0})
    assert len(scenarios) == 6
    assert len({scenario.name for scenario in scenarios}) == 6
    assert all(scenario.ticks == 20 for scenario in scenarios)
    assert all(scenario.stimuli["t_eng"] == 90.0 for scenario in scenarios)
    assert scenarios[0].stimuli["n"] == 800.0
    assert scenarios[-1].stimuli == {"t_eng": 90.0, "n": 3000.0, "ped": 100.0}
    # deterministic: same grid, same names in the same order
    again = scenario_grid("sweep", {
        "n": [800.0, 3000.0],
        "ped": [0.0, 50.0, 100.0],
    }, ticks=20, base={"t_eng": 90.0})
    assert [scenario.name for scenario in again] \
        == [scenario.name for scenario in scenarios]


def test_scenario_grid_rejects_degenerate_grids():
    with pytest.raises(SimulationError):
        scenario_grid("empty", {}, ticks=5)
    with pytest.raises(SimulationError):
        scenario_grid("hole", {"n": []}, ticks=5)


def test_mode_sequence_sweep_builds_one_scenario_per_sequence():
    scenarios = mode_sequence_sweep("modes", "n", [
        (0.0, 900.0, 3000.0),
        (0.0, 400.0, 0.0),
    ], dwell=5, ticks=15, base={"ped": 10.0})
    assert len(scenarios) == 2
    generator = scenarios[0].stimuli["n"]
    assert isinstance(generator, ModeSequence)
    assert generator.materialize(15)[:6] == [0.0] * 5 + [900.0]
    assert scenarios[1].stimuli["ped"] == 10.0
    with pytest.raises(SimulationError):
        mode_sequence_sweep("modes", "n", [(1,)], dwell=0, ticks=5)


# -- engine integration -----------------------------------------------------


def test_generators_drive_both_engine_entry_points():
    from repro.core.components import ExpressionComponent
    block = ExpressionComponent("Echo", {"out": "in1"})
    block.declare_interface_from_expressions()
    generator = RandomWalk(seed=9, start=0.0, step=1.0)
    trace = simulate(block, {"in1": generator}, ticks=25)
    assert trace.output("out").values() == generator.materialize(25)


def test_normalize_stimulus_materializes_generators_once():
    calls = []

    class Probe:
        def materialize(self, ticks):
            calls.append(ticks)
            return list(range(ticks))

    feed = normalize_stimulus(Probe(), 10)
    assert [feed(tick) for tick in range(10)] == list(range(10))
    assert calls == [10]
