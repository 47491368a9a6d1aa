"""Descriptor matching and ground-truth verification.

The "true match" count of an image pair is the number of descriptor matches
that also satisfy the geometric repeatability predicate (common part, center
distance, overlap error) under the known homography.  The predicate is not
evaluated here: verify_matches looks each match up in the pair's candidate
table, built once by metrics.candidate_table.  Matching itself is
greedy one-to-one nearest neighbor by default; a Lowe-style ratio test is
available as an alternative since evaluation protocols differ on this point.

Descriptor distances come from geometry.pairwise_distances, which holds the
differences a bounded block of rows at a time but uses the same
difference-squared-sum formula as the whole N x M x D broadcast, so every
distance, and with it every tie-break, has the same bits.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DescriptorUnavailable
from .geometry import pairwise_distances


@dataclass(frozen=True)
class DescriptorMatch:
    ref_index: int
    test_index: int
    distance: float  # Euclidean, in descriptor space


def _descriptor_matrices(ref, test):
    if ref.descriptor_dim == 0 or test.descriptor_dim == 0:
        raise DescriptorUnavailable("both keypoint sets need descriptors")
    if ref.descriptor_dim != test.descriptor_dim:
        raise DescriptorUnavailable(
            f"descriptor dimensions differ: {ref.descriptor_dim} vs {test.descriptor_dim}"
        )
    return ref.descriptors(), test.descriptors()


# nn_match reads the sorted distance order this many entries at a time.
ORDER_CHUNK = 1 << 16


def _stable_order_prefix(flat, k):
    """A prefix, at least k long, of np.argsort(flat, kind="stable").

    Every entry up to the k-th smallest value is selected, ties included, in
    index order, so a stable sort of the selection orders it exactly as the
    full stable sort orders its first entries.
    """
    if k >= flat.size:
        return np.argsort(flat, kind="stable")
    t = np.partition(flat, k - 1)[k - 1]
    idx = np.flatnonzero(flat <= t)
    return idx[np.argsort(flat[idx], kind="stable")]


def _stable_order_chunks(flat, k):
    """np.argsort(flat, kind="stable") in chunks of at most ORDER_CHUNK,
    sorted only as far as they are read: a prefix of at least k entries,
    then prefixes four times longer, each resuming where the last ended."""
    done = 0
    while done < flat.size:
        order = _stable_order_prefix(flat, k)
        for start in range(done, len(order), ORDER_CHUNK):
            yield order[start : start + ORDER_CHUNK]
        done = len(order)
        k *= 4


def nn_match(ref, test):
    """Greedy one-to-one nearest-neighbor matching.

    Repeatedly takes the globally smallest remaining descriptor distance;
    exact ties fall to the smallest (ref_index, test_index).  Produces
    min(len(ref), len(test)) matches.
    """
    a, b = _descriptor_matrices(ref, test)
    if len(a) == 0 or len(b) == 0:
        return []
    d = pairwise_distances(a, b)
    n_test = d.shape[1]
    want = min(d.shape)
    used_ref = np.zeros(d.shape[0], dtype=bool)
    used_test = np.zeros(n_test, dtype=bool)
    matches = []
    # A stable sort of the row-major flattening breaks ties exactly by
    # (ref_index, test_index).  The greedy often ends within the first
    # 2 * want entries, so the order is sorted only as far as it is read.
    for chunk in _stable_order_chunks(d.ravel(), 2 * want):
        rows, cols = np.divmod(chunk, n_test)
        # entries on a row or column matched in an earlier chunk are out
        free = ~(used_ref[rows] | used_test[cols])
        for i, j in zip(rows[free].tolist(), cols[free].tolist()):
            if not (used_ref[i] or used_test[j]):
                used_ref[i] = used_test[j] = True
                matches.append(DescriptorMatch(i, j, float(d[i, j])))
        # want matches use up every row or every column
        if len(matches) == want:
            break
    matches.sort(key=lambda m: (m.ref_index, m.test_index))
    return matches


def ratio_match(ref, test, ratio=0.8):
    """Lowe ratio-test matching, made one-to-one.

    A reference descriptor is kept only when its nearest test distance is
    below `ratio` times the second nearest (ambiguous matches drop out);
    survivors are then resolved greedily like nn_match.  A single test
    descriptor leaves nothing to compare against, so the test is waived.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    a, b = _descriptor_matrices(ref, test)
    if len(a) == 0 or len(b) == 0:
        return []
    d = pairwise_distances(a, b)
    nearest = d.argmin(axis=1)
    d1 = np.take_along_axis(d, nearest[:, None], axis=1)[:, 0]
    if d.shape[1] == 1:
        keep = np.arange(len(d))
    else:
        keep = np.flatnonzero(d1 < ratio * np.partition(d, 1, axis=1)[:, 1])
    candidates = sorted(
        zip(d1[keep].tolist(), keep.tolist(), nearest[keep].tolist())
    )
    used_test = set()
    matches = []
    for dist, i, j in candidates:
        if j in used_test:
            continue
        used_test.add(j)
        matches.append(DescriptorMatch(i, j, dist))
    matches.sort(key=lambda m: (m.ref_index, m.test_index))
    return matches


def match_descriptors(ref, test, method="nn", ratio=0.8):
    if method == "nn":
        return nn_match(ref, test)
    if method == "ratio":
        return ratio_match(ref, test, ratio)
    raise ValueError(f"unknown matching method {method!r}")


def verify_matches(matches, table) -> int:
    """Count matches that pass the geometric repeatability predicate, that
    is, whose (ref_index, test_index) is a key of the pair's candidate table
    (metrics.candidate_table)."""
    return sum((m.ref_index, m.test_index) in table for m in matches)
