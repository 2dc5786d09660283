"""The session differential corpus — the acceptance gate of the API.

One corpus of representative queries runs through the :class:`Session`
facade over both executors — the single-store :class:`QueryEngine` and
the scatter-gather :class:`DistributedQueryEngine` — in *both* query
classes (interactive streaming and batch-queued), asserting row-for-row
identical results.  Every query
must also explain to a non-empty structured plan tree on both backends.
"""

import pytest

from repro.session import PlanTree

# (query, mode): mode 'rows' compares canonically sorted rows, 'ordered'
# compares positionally (deterministic output order on both sides),
# 'count' checks cardinality only (LIMIT without ORDER BY picks
# implementation-defined rows).
CORPUS = [
    ("SELECT objid FROM photo WHERE mag_r < 16", "rows"),
    ("SELECT * FROM photo WHERE mag_r < 15", "rows"),
    ("SELECT objid FROM photo WHERE CIRCLE(40, 30, 5)", "rows"),
    ("SELECT objid FROM photo WHERE CIRCLE(40, 30, 10) AND objtype = GALAXY", "rows"),
    ("SELECT objid, mag_g - mag_r AS gr FROM photo WHERE mag_r < 16.5", "rows"),
    ("SELECT objid FROM photo WHERE RECT(20, 60, 10, 40) AND mag_g < 18", "rows"),
    ("SELECT objid FROM photo WHERE mag_r < 0", "rows"),  # empty bag
    ("SELECT objid, mag_r FROM photo WHERE mag_r < 17 ORDER BY mag_r, objid", "ordered"),
    ("SELECT objid, mag_r FROM photo ORDER BY mag_r DESC, objid LIMIT 25", "ordered"),
    (
        "SELECT objid, DIST_ARCMIN(40, 30) AS d FROM photo "
        "WHERE CIRCLE(40, 30, 3) ORDER BY d, objid",
        "ordered",
    ),
    ("SELECT objid FROM photo LIMIT 7", "count"),
    ("SELECT objtype, COUNT(objid) AS n FROM photo GROUP BY objtype", "ordered"),
    (
        "SELECT objtype, AVG(mag_r) AS m, COUNT(objid) AS n FROM photo "
        "WHERE mag_r < 19 GROUP BY objtype",
        "ordered",
    ),
    (
        "SELECT objtype, MIN(mag_r) AS lo, MAX(mag_r) AS hi, SUM(mag_g) AS s "
        "FROM photo GROUP BY objtype",
        "ordered",
    ),
    (
        "SELECT objtype, COUNT(objid) AS n FROM photo "
        "GROUP BY objtype HAVING n > 100 ORDER BY n DESC",
        "ordered",
    ),
    (
        "SELECT FLOOR(mag_r) AS bin, COUNT(objid) AS n FROM photo "
        "WHERE mag_r < 20 GROUP BY FLOOR(mag_r) ORDER BY bin",
        "ordered",
    ),
    (
        "(SELECT objid FROM photo WHERE mag_r < 16) UNION "
        "(SELECT objid FROM photo WHERE mag_u < 17)",
        "rows",
    ),
    (
        "(SELECT objid FROM photo WHERE mag_r < 18) INTERSECT "
        "(SELECT objid FROM photo WHERE objtype = QUASAR)",
        "rows",
    ),
    (
        "((SELECT objid FROM photo WHERE mag_r < 16) UNION "
        "(SELECT objid FROM photo WHERE mag_u < 17)) EXCEPT "
        "(SELECT objid FROM photo WHERE objtype = GALAXY)",
        "rows",
    ),
]


def _compare(expected, got, mode, same_rows):
    if mode == "count":
        n_expected = 0 if expected is None else len(expected)
        n_got = 0 if got is None else len(got)
        assert n_expected == n_got
        return
    same_rows(expected, got, ordered=(mode == "ordered"))


@pytest.mark.parametrize("query,mode", CORPUS)
def test_all_entry_points_agree(
    local_session, dist_session, same_rows, query, mode
):
    """Sessions over QueryEngine == DistributedQueryEngine in both query
    classes, row for row."""
    expected = local_session.query_table(query)

    # Interactive class, distributed backend.
    _compare(expected, dist_session.query_table(query), mode, same_rows)

    # Session facade, batch class, both backends: queued through the
    # scheduler's batch machine, results delivered on completion.
    for session in (local_session, dist_session):
        job = session.submit(query, query_class="batch")
        assert job.wait(timeout=30).value == "done"
        _compare(expected, job.cursor.to_table(), mode, same_rows)


@pytest.mark.parametrize("query,_mode", CORPUS)
def test_explain_is_structured_everywhere(
    local_session, dist_session, query, _mode
):
    """Every corpus query explains to a non-empty structured plan tree
    with the same representation on both backends."""
    for session in (local_session, dist_session):
        tree = session.explain(query)
        assert isinstance(tree, PlanTree)
        nodes = list(tree.walk())
        assert len(nodes) >= 1
        assert tree.find("scan"), "every plan bottoms out in scans"
        rendering = tree.render()
        assert rendering.strip()
        assert "scan" in rendering
    # The distributed tree additionally records the fan-out on at least
    # one merge point (exchange or merge_sort) or annotated shard root.
    dist_tree = dist_session.explain(query)
    fanout_nodes = [
        node for node in dist_tree.walk() if "servers" in node.detail
    ]
    assert fanout_nodes, "distributed explain must surface the fan-out"
