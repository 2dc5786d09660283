"""Naive numpy answers over the flat catalog, and the row comparisons.

Every operation the benchmark times is checked here after the timed
window, against the generated catalog array directly (no container
store, no index, no engine code):

* unordered results compare ``objid`` as a multiset;
* ``ORDER BY`` results compare ``objid`` positionally;
* aggregates compare exact counts and means within a tolerance set by
  the dtype of the averaged column;
* cones select rows whose unit vector has a dot product with the centre
  of at least ``cos(radius)``.
"""

from __future__ import annotations

import math

import numpy as np


def centre_vector(ra, dec):
    """Unit vector of one (ra, dec) in degrees."""
    ra_rad = np.deg2rad(np.float64(ra))
    dec_rad = np.deg2rad(np.float64(dec))
    cos_dec = np.cos(dec_rad)
    return np.array(
        [cos_dec * np.cos(ra_rad), cos_dec * np.sin(ra_rad), np.sin(dec_rad)]
    )


def cone_mask(data, ra, dec, radius_deg):
    xyz = np.stack([data["cx"], data["cy"], data["cz"]], axis=-1)
    dots = np.sum(xyz * centre_vector(ra, dec), axis=-1)
    return dots >= math.cos(math.radians(radius_deg))


def ids_equal(got, expected):
    """Multiset equality of two ``objid`` arrays."""
    return np.array_equal(np.sort(got), np.sort(expected))


def top_k(data, mask, k):
    """Rows of ``mask`` ordered by ``(mag_r, objid)``, first ``k``."""
    rows = data[mask]
    order = np.lexsort((rows["objid"], rows["mag_r"]))
    return rows[order[:k]]


def means_close(got, expected, dtype, n):
    """Means agree within ``sqrt(n)`` units of the dtype's epsilon."""
    rtol = math.sqrt(max(n, 1)) * float(np.finfo(dtype).eps)
    return bool(np.allclose(got, expected, rtol=rtol, atol=0.0))


def group_mean(data, mask, key, column):
    """``{key value: (count, mean)}`` over the masked rows."""
    rows = data[mask]
    groups = {}
    for value in np.unique(rows[key]):
        values = rows[column][rows[key] == value]
        groups[int(value)] = (len(values), float(np.mean(values, dtype=np.float64)))
    return groups


def aggregate_equal(got, expected, dtype):
    """Compare a ``(key, mean, count)`` result table with
    :func:`group_mean` output."""
    if len(got) != len(expected):
        return False
    for key, mean, count in got:
        want = expected.get(int(key))
        if want is None or int(count) != want[0]:
            return False
        if not means_close(float(mean), want[1], dtype, want[0]):
            return False
    return True
