"""The session artifact's phase breakdown counts each phase once.

A remote job's trace holds two ``query`` spans: the client's root and
the server's, grafted under a wire span with its own parse/plan/execute.
``bench_session._phase_breakdown`` must report only the client's phases,
so over an ``archive://`` session the breakdown's ``execute`` is the
client's execute window — within 10% of the job's time to completion,
not the client and server windows added up.
"""

import pytest

from bench_session import _phase_breakdown
from repro.net import ArchiveServer
from repro.session import Archive


@pytest.fixture(scope="module")
def remote_session(bench_photo_store, bench_tag_store):
    server = ArchiveServer(
        stores={"photo": bench_photo_store, "tag": bench_tag_store}
    ).start()
    try:
        with Archive.connect(server.url) as session:
            yield session
    finally:
        server.stop()


@pytest.mark.parametrize(
    "query",
    [
        "SELECT objid FROM photo",
        "SELECT objtype, COUNT(objid) AS n FROM photo GROUP BY objtype",
    ],
)
def test_remote_execute_phase_matches_completion(remote_session, query):
    cursor = remote_session.execute(query)
    cursor.to_table()
    phases = _phase_breakdown(cursor)
    completion_ms = cursor.time_to_completion * 1e3
    assert phases["execute"] == pytest.approx(completion_ms, rel=0.10)
    # The grafted server-side query is really in the trace; it just
    # does not count toward the client's phases.
    assert len(cursor.trace().find("query")) == 2
