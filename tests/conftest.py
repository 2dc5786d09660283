"""Shared fixtures: one small synthetic survey reused across the suite.

Catalog generation is the slowest setup step, so the survey, its stores,
the query engine and a session over it are session-scoped; tests treat
them as read-only.
Tests that need mutation or special parameters build their own.
"""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest

from repro.catalog import SkySimulator, SurveyParameters, make_tag_table
from repro.query import QueryEngine
from repro.session import Archive
from repro.storage import ContainerStore

#: Suite-wide per-test wall-clock bound (seconds).  Generous — the point
#: is that a deadlocked worker pool or wedged sweep fails one test with
#: a traceback instead of hanging the whole run (locally and in CI,
#: with or without REPRO_WORKERS).  Directory conftests may arm a
#: tighter guard (tests/net uses 120s); nesting is safe because each
#: guard saves and restores the previous handler and timer.
SUITE_TEST_TIMEOUT = 300.0


@pytest.fixture(autouse=True)
def _suite_test_timeout():
    """Fail — never hang — any test that wedges on a lock or stream."""
    can_alarm = hasattr(signal, "SIGALRM") and (
        threading.current_thread() is threading.main_thread()
    )
    if not can_alarm:
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded the {SUITE_TEST_TIMEOUT}s suite timeout guard "
            "(deadlocked worker pool or wedged sweep?)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    previous_timer = signal.setitimer(signal.ITIMER_REAL, SUITE_TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *previous_timer)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def simulator():
    """A seeded simulator with ground-truth injections."""
    params = SurveyParameters(
        n_galaxies=4000,
        n_stars=2500,
        n_quasars=200,
        n_lens_pairs=8,
        n_quasar_neighbor_pairs=8,
        seed=1234,
    )
    sim = SkySimulator(params)
    sim.photo_table = sim.generate()
    return sim


@pytest.fixture(scope="session")
def photo(simulator):
    """The session's photometric catalog (treat as read-only)."""
    return simulator.photo_table


@pytest.fixture(scope="session")
def tags(photo):
    """Tag-object table of the session catalog."""
    return make_tag_table(photo)


@pytest.fixture(scope="session")
def photo_store(photo):
    """Container store of full records at depth 5."""
    return ContainerStore.from_table(photo, depth=5)


@pytest.fixture(scope="session")
def tag_store(tags):
    """Container store of tag records at depth 5."""
    return ContainerStore.from_table(tags, depth=5)


@pytest.fixture(scope="session")
def engine(photo_store, tag_store):
    """Query engine over the session stores."""
    return QueryEngine({"photo": photo_store, "tag": tag_store})


@pytest.fixture(scope="session")
def local_session(engine):
    """Session over the single-store engine: the suite's oracle path."""
    with Archive.connect(engine) as session:
        yield session


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(20000601)
