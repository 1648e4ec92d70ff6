"""Seeded scenario batteries of the campaign workloads.

Every battery is a pure function of its seed: the same seed gives the same
scenarios (names, horizons and per-tick stimulus values), a different seed
a different battery.  The program under test only ever receives the
generated :class:`~repro.scenarios.Scenario` records.

Stimulus levels are written out here rather than derived from the model
(``guard_vocabulary``), so a change to the library cannot change the
benchmark's inputs.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Tuple

from repro.scenarios import ModeSequence, RandomWalk, Scenario

#: Boundary values of the Fig.-6 guards on engine speed (rpm), plus a
#: high-speed level that enables the overrun transition.
ENGINE_SPEED_LEVELS = (0.0, 1.0, 49.0, 50.0, 51.0, 699.0, 700.0, 701.0,
                       1499.0, 1500.0, 1501.0, 2999.0, 3000.0, 3001.0,
                       4500.0)
#: Boundary values of the Fig.-6 guards on the pedal (percent).
PEDAL_LEVELS = (0.0, 1.0, 4.0, 5.0, 6.0, 40.0, 79.0, 80.0, 81.0, 100.0)

#: Random-walk parameters ``(low, high, step)`` of the six FDA inputs.
FDA_INPUTS = {
    "n": (0.0, 6500.0, 250.0),
    "ped": (0.0, 100.0, 8.0),
    "t_eng": (-20.0, 120.0, 3.0),
    "pos": (0.0, 90.0, 4.0),
    "pos_des": (0.0, 90.0, 4.0),
    "throttle_angle": (0.0, 90.0, 4.0),
}

#: One search: (model key, weak one-scenario battery, search seed).
SearchJob = Tuple[str, List[Scenario], int]


def _segments(rng: random.Random, levels: Sequence[float],
              ticks: int) -> ModeSequence:
    segments: List[Tuple[float, int]] = []
    covered = 0
    while covered < ticks:
        duration = rng.randint(3, 25)
        segments.append((rng.choice(levels), duration))
        covered += duration
    return ModeSequence(segments)


def modes_battery(seed: int, scenarios: int = 120,
                  ticks: int = 200) -> List[Scenario]:
    """Boundary-value mode sequences on ``n``/``ped`` and a random walk on
    ``t_eng``, for the Fig.-6 engine-modes MTD."""
    rng = random.Random(f"modes_report/{seed}")
    battery = []
    for index in range(scenarios):
        stimuli = {
            "n": _segments(rng, ENGINE_SPEED_LEVELS, ticks),
            "ped": _segments(rng, PEDAL_LEVELS, ticks),
            "t_eng": RandomWalk(rng.randrange(2 ** 31),
                                start=rng.uniform(-10.0, 90.0), step=2.0,
                                low=-20.0, high=110.0),
        }
        battery.append(Scenario(f"modes-{index}", stimuli, ticks))
    return battery


def fda_battery(seed: int, scenarios: int, ticks: int,
                label: str = "fda") -> List[Scenario]:
    """Seeded random walks on all six inputs of the reengineered FDA."""
    rng = random.Random(f"{label}/{seed}")
    battery = []
    for index in range(scenarios):
        stimuli: Dict[str, Any] = {}
        for port, (low, high, step) in FDA_INPUTS.items():
            start = rng.uniform(0.0, 1500.0) if port == "n" \
                else rng.uniform(low, high)
            stimuli[port] = RandomWalk(rng.randrange(2 ** 31), start=start,
                                       step=step, low=low, high=high)
        battery.append(Scenario(f"{label}-{index}", stimuli, ticks))
    return battery


def search_plan(seed: int, pairs: int = 12) -> List[List[SearchJob]]:
    """Search pairs: one search on the engine-modes MTD and one on the
    door-lock MTD, each from a weak battery with its own search seed.

    Each weak battery is one idle scenario that takes no transition: the
    engine stays ``Off`` (``n = 0``), the doors stay ``Unlocked`` (speed
    between the unlock and the auto-lock threshold, no crash).
    """
    rng = random.Random(f"search_coverage/{seed}")
    plan: List[List[SearchJob]] = []
    for _ in range(pairs):
        engine = Scenario("weak", {"n": 0.0,
                                   "ped": round(rng.uniform(0.0, 100.0), 1),
                                   "t_eng": round(rng.uniform(-10.0, 90.0),
                                                  1)},
                          ticks=20)
        doors = Scenario("weak", {"T4S": "unlocked", "CRSH": "no_crash",
                                  "FZG_V": round(rng.uniform(9.5, 14.5), 1),
                                  "V_SPEED": round(rng.uniform(1.5, 9.5), 1)},
                         ticks=20)
        plan.append([("engine_modes", [engine], rng.randrange(2 ** 31)),
                     ("door_lock", [doors], rng.randrange(2 ** 31))])
    return plan
