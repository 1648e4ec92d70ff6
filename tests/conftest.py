"""Shared fixtures for the AutoMoDe reproduction test suite."""

import pytest

from repro.casestudy import (acceleration_scenario, build_closed_loop,
                             build_crank_sequencer_std,
                             build_door_lock_control, build_door_lock_faa,
                             build_engine_ascet_project, build_engine_ccd,
                             build_engine_modes_mtd, build_momentum_controller,
                             build_reengineered_fda, driving_scenario)


@pytest.fixture(scope="session", autouse=True)
def _hermetic_native_cache(tmp_path_factory):
    """Native shared objects compile into a per-session temp dir, never
    into the user's ``~/.cache/repro-native`` (tests that need their own
    cache still override ``REPRO_NATIVE_CACHE`` per test)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NATIVE_CACHE",
                     str(tmp_path_factory.mktemp("native-cache")))
        yield


@pytest.fixture(scope="session")
def engine_project():
    """The synthetic ASCET project of the case study (session-wide)."""
    return build_engine_ascet_project()


@pytest.fixture(scope="session")
def engine_scenario():
    """The 120-tick driving scenario."""
    return driving_scenario(120)


@pytest.fixture()
def engine_ccd():
    """A fresh copy of the Fig.-7 CCD (tests may mutate channels)."""
    return build_engine_ccd()


@pytest.fixture()
def engine_modes_mtd():
    return build_engine_modes_mtd()


@pytest.fixture()
def crank_sequencer_std():
    return build_crank_sequencer_std()


@pytest.fixture()
def door_lock_control():
    return build_door_lock_control()


@pytest.fixture()
def door_lock_faa():
    return build_door_lock_faa()


@pytest.fixture()
def momentum_controller():
    return build_momentum_controller()


@pytest.fixture(scope="session")
def reengineered_fda():
    return build_reengineered_fda()
