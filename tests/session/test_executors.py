"""The engines are the session's executors.

``Archive.connect`` runs a pre-built engine directly, with no adapter in
between; each engine's ``prepare`` hands back an unstarted
:class:`PreparedQuery`; and the single-store engine's ``mode="shard"``
prepare builds only the pushed-down shard half of one SELECT (what an
archive server runs for a remote scatter-gather coordinator).
"""

import pytest

from repro.distributed import DistributedQueryEngine
from repro.query.errors import PlanError
from repro.session import Archive, PreparedQuery

QUERY = "SELECT objid, mag_r FROM photo ORDER BY mag_r LIMIT 5"


@pytest.fixture(scope="module")
def dengine(dist_archive):
    return DistributedQueryEngine(dist_archive)


def test_connect_runs_the_engine_itself(engine, dengine):
    for executor, kind in ((engine, "local"), (dengine, "distributed")):
        with Archive.connect(executor) as session:
            assert session.executor is executor
            assert session.backend == kind
            assert len(session.query_table(QUERY)) == 5


@pytest.mark.parametrize("backend", ["local", "distributed"])
def test_prepare_returns_an_unstarted_tree(engine, dengine, backend):
    executor = engine if backend == "local" else dengine
    prepared = executor.prepare(QUERY)
    assert isinstance(prepared, PreparedQuery)
    assert prepared.text == QUERY
    assert prepared.schema.field_names() == ["objid", "mag_r"]
    assert prepared.sources == ["tag"]  # tag-routed
    assert all(not node.is_alive() for node in prepared.root.walk())
    # Only the scatter-gather engine reports a fan-out.
    assert len(prepared.reports) == (0 if backend == "local" else 1)


def test_shard_prepare_builds_the_pushed_down_half(engine):
    full = engine.prepare(QUERY)
    shard = engine.prepare(QUERY, mode="shard")
    # The shard keeps a bounded top-k over its own rows; the final
    # projection is the coordinator's job.
    assert [node.name for node in shard.root.walk()] == ["topk", "scan"]
    assert [node.name for node in full.root.walk()] == ["project", "topk", "scan"]
    assert shard.sources == full.sources


def test_shard_prepare_rejects_a_missing_select(engine):
    with pytest.raises(PlanError, match="select_index"):
        engine.prepare("SELECT objid FROM photo", mode="shard", select_index=1)


def test_unknown_submission_mode_is_a_plan_error(engine):
    with pytest.raises(PlanError, match="submission mode"):
        engine.prepare("SELECT objid FROM photo", mode="bogus")
