"""Fixtures for the unified session API.

Sessions are opened over the shared session-scoped catalog (see
tests/conftest.py): one local session over the single-store engine and
one distributed session over a 3-server partitioning of the same data,
so differential tests can compare all entry points row for row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.session import Archive
from repro.storage import DistributedArchive


@pytest.fixture(scope="module")
def dist_archive(photo, tags):
    """A 3-server partitioning of the session catalog (read-only)."""
    archive = DistributedArchive.from_table(photo, depth=5, n_servers=3)
    archive.attach_source("tag", tags)
    return archive


@pytest.fixture(scope="module")
def local_session(engine):
    """Session over the single-store engine."""
    with Archive.connect(engine) as session:
        yield session


@pytest.fixture(scope="module")
def dist_session(dist_archive):
    """Session over a distributed engine on the shared 3-server archive."""
    with Archive.connect(archive=dist_archive) as session:
        yield session


def _field_tolerances(dtype):
    """(rtol, atol) for float comparison: partial-aggregate recombination
    changes the summation tree, so float32 sums differ at the last few
    ulps; everything else is byte-identical copies."""
    if dtype == np.float32:
        return 1.0e-5, 1.0e-6
    return 1.0e-9, 1.0e-12


def _rows(table):
    return 0 if table is None else len(table)


@pytest.fixture(scope="session")
def same_rows():
    """Row-for-row comparison of two results from different entry points.

    ``ordered=True`` compares positionally; otherwise both sides are
    canonicalized by sorting on all columns.  Non-aggregate values are
    verbatim copies and must match exactly; recombined float aggregates
    get a tight dtype-aware tolerance.
    """

    def check(expected, got, ordered=False):
        assert _rows(expected) == _rows(got)
        if _rows(expected) == 0:
            if expected is not None and got is not None:
                assert expected.data.dtype == got.data.dtype
            return
        assert expected.data.dtype == got.data.dtype
        names = expected.schema.field_names()
        left, right = expected.data, got.data
        if not ordered:
            left = np.sort(left, order=names)
            right = np.sort(right, order=names)
        for name in names:
            a, b = left[name], right[name]
            if np.issubdtype(a.dtype, np.floating):
                rtol, atol = _field_tolerances(a.dtype)
                np.testing.assert_allclose(a, b, rtol=rtol, atol=atol)
            else:
                np.testing.assert_array_equal(a, b)

    return check
