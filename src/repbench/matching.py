"""Descriptor matching and ground-truth verification.

The "true match" count of an image pair is the number of descriptor matches
that also satisfy the geometric repeatability predicate (common part, center
distance, overlap error) under the known homography.  The predicate is not
evaluated here: verify_matches looks each match up in the pair's candidate
table, built once by metrics.candidate_table.  Matching itself is
greedy one-to-one nearest neighbor by default; a Lowe-style ratio test is
available as an alternative since evaluation protocols differ on this point.
_greedy is the one greedy one-to-one rule of the package: both matchers
finish with it, and metrics resolves the correspondences with it.

Both matchers decide on exact distances, the difference-squared sum of
geometry.pairwise_distances, but compute few of them.  A GEMM expansion
|a|^2 + |b|^2 - 2 a.b of every squared distance, with an error bound per row
and per column (_approx_squared), marks the entries that can still be
nearest in their row or column; only those are re-scored with the exact
formula (geometry.indexed_distances).  Every distance that decides a match,
and every tie-break, keeps the bits of the full N x M x D broadcast, which
is never built.  nn_match takes mutual nearest neighbours round by round,
which are exactly the pairs the global greedy takes.  Once a round stops
paying, it computes every distance still open in blocks
(geometry.pairwise_distances) and the plain greedy finishes; only the
rounds read the estimates.  ratio_match reads each row's own estimates
only, so it estimates and scores a block of reference rows at a time and
holds no N x M array.
"""

import math

import numpy as np

from .errors import DescriptorUnavailable
from .geometry import indexed_distances, pairwise_distances


def _descriptor_matrices(ref, test):
    if ref.descriptor_dim == 0 or test.descriptor_dim == 0:
        raise DescriptorUnavailable("both keypoint sets need descriptors")
    if ref.descriptor_dim != test.descriptor_dim:
        raise DescriptorUnavailable(
            f"descriptor dimensions differ: {ref.descriptor_dim} vs {test.descriptor_dim}"
        )
    return ref.descriptors, test.descriptors


# The factor c of the error bound in _approx_squared.
TOL_FACTOR = 4

# A peeling round of nn_match re-scores its near entries one by one only
# while they are at most this share of the open entries; beyond it, the
# rounds stop, every open distance is computed in blocks and the plain
# greedy finishes.  ratio_match has no such switch: it gathers a row's near
# entries however many there are.
MAX_RESCORE_SHARE = 1 / 8

# nn_match stops peeling, and the greedy finishes, after a round that
# matches fewer than this share of the open rows or columns (the fewer).
MIN_PEEL_SHARE = 1 / 8

# ratio_match's blocks of reference rows hold about this many entries each.
RATIO_BLOCK_ENTRIES = 1 << 17


def _approx_squared(a, b, nb=None):
    """GEMM estimates of all squared distances, with error bounds.

    Returns approx (N, M) = na[:, None] + nb[None, :] - 2 a @ b.T, where
    na = (a * a).sum(axis=1) and nb likewise (unless given), and the
    tolerances row_tol (N,) and col_tol (M,).  row_tol[i] is tol(i, j) at
    the largest nb[j], col_tol[j] is tol(i, j) at the largest na[i], where

        tol(i, j) = c (D + 2) eps (na[i] + nb[j]) + tau,   c = TOL_FACTOR.

    The bound.  Let s be the true squared distance of an entry, s' the exact
    formula's rounded value, d = sqrt(s') rounded, u = eps / 2 and
    gamma_k = k u / (1 - k u).  Since s <= 2 (na + nb):
    - |approx - s| <= gamma_{D+2} 2 (na + nb): Higham's dot-product bound,
      which holds for any summation order and with or without FMA, plus the
      three additions (|na| + |nb| + 2 |a|.|b| <= 2 (na + nb));
    - |s' - s| <= gamma_{D+2} s: one rounding per difference, square and
      sum;
    - two values whose square roots round to the same float differ by at
      most 2 eps s' <= 4 eps (na + nb).
    The first two plus half the third come to about 2 (D + 3) eps (na + nb)
    per entry, and c = 4 gives (4 D + 8) eps (na + nb), which leaves room
    for the rounding of the thresholds themselves.  So if approx[i, j] >
    approx[i, k] + 2 row_tol[i], then s'[i, j] exceeds s'[i, k] by more than
    a square-root tie and d[i, j] > d[i, k] strictly: entry j can neither be
    nearer than k nor tie with it.  The same holds along a column.
    Below the normal range the relative bounds fail; each product (3 D in
    approx, D in s') may then lose half a subnormal step 2^-1074, and a
    square-root tie spans at most two steps, so tau = c (D + 2) 2^-1074
    covers those losses.  A NaN or infinite estimate never excludes an
    entry.  The margin decides only how many entries get the exact
    formula, never which match is made.
    """
    na = np.einsum("ij,ij->i", a, a)
    if nb is None:
        nb = np.einsum("ij,ij->i", b, b)
    approx = a @ b.T
    approx *= -2.0
    approx += na[:, None]
    approx += nb
    slack = TOL_FACTOR * (a.shape[1] + 2)
    kappa = slack * np.finfo(float).eps
    tau = slack * math.ulp(0.0)
    return approx, kappa * (na + nb.max()) + tau, kappa * (na.max() + nb) + tau


def _near_minimum(approx, row_tol, col_tol):
    """Mask of the entries within 2 tol of their row's or their column's
    smallest estimate, the only entries that can be nearest there."""
    far = approx > (approx.min(axis=1) + 2 * row_tol)[:, None]
    far &= approx > approx.min(axis=0) + 2 * col_tol
    return np.logical_not(far, out=far)


def _first_minimum(group, d):
    """Index of the first entry with its group's smallest d, for each group.

    group must be sorted, with every label 0 .. G-1 present; within a group
    the entries come in the order that breaks ties.
    """
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    low = np.minimum.reduceat(d, starts)
    at_low = np.flatnonzero(d == low[group])
    return at_low[np.flatnonzero(np.diff(group[at_low], prepend=-1))]


def _mutual_nearest(r, c, d):
    """The entries, listed in row-major order by (row r, column c) with
    exact distance d, that are first by (d, c) in their row and by (d, r)
    in their column.  Every row and column 0 .. max must have an entry."""
    row_best = _first_minimum(r, d)
    by_col = np.argsort(c, kind="stable")
    col_best = by_col[_first_minimum(c[by_col], d[by_col])]
    return row_best[col_best[c[row_best]] == row_best]


def _greedy(order, n, m):
    """The greedy over the entries of an (n, m) matrix listed by row-major
    index in `order`: each entry whose row and column are both still free is
    taken, until min(n, m) are.  Returns the positions in `order` taken."""
    used_row = bytearray(n)
    used_col = bytearray(m)
    # numpy views of the flags for the vectorised filter, bytearrays for the loop
    row_flags = np.frombuffer(used_row, dtype=bool)
    col_flags = np.frombuffer(used_col, dtype=bool)
    taken = []
    step = max(1, n + m)
    for start in range(0, len(order), step):
        rows, cols = np.divmod(order[start : start + step], m)
        # entries on a row or column taken in an earlier read are out
        free = np.flatnonzero(~(row_flags[rows] | col_flags[cols]))
        for k, i, j in zip(free.tolist(), rows[free].tolist(), cols[free].tolist()):
            if not (used_row[i] or used_col[j]):
                used_row[i] = used_col[j] = 1
                taken.append(start + k)
                if len(taken) == min(n, m):
                    return taken
    return taken


def _as_matches(ref_index, test_index):
    order = np.lexsort((test_index, ref_index))
    return np.stack([ref_index[order], test_index[order]], axis=1)


def nn_match(ref, test):
    """Greedy one-to-one nearest-neighbor matching.

    Repeatedly takes the globally smallest remaining descriptor distance;
    exact ties fall to the smallest (ref index, test index).  Returns the
    min(len(ref), len(test)) matches as a (K, 2) intp array of (ref index,
    test index) rows in row-major order.

    Ordered by (distance, ref index, test index), a pair that is first in
    both its row and its column is taken by that greedy, and taking all
    such pairs and removing their rows and columns leaves the greedy of the
    rest unchanged (Preis, STACS 1999).  Each round takes them on the open
    rows and columns, using exact distances of the entries near each row's
    and column's smallest estimate only.  When a round stops paying
    (MAX_RESCORE_SHARE, MIN_PEEL_SHARE), every distance between the open
    rows and columns is computed in blocks, sorted stably and handed to the
    greedy, which finishes.
    """
    a, b = _descriptor_matrices(ref, test)
    if len(a) == 0 or len(b) == 0:
        return np.empty((0, 2), np.intp)
    approx, row_tol, col_tol = _approx_squared(a, b)
    rows = np.arange(len(a))
    cols = np.arange(len(b))
    out_i, out_j = [], []
    while len(rows) and len(cols):
        near = _near_minimum(approx, row_tol[rows], col_tol[cols])
        if np.count_nonzero(near) > MAX_RESCORE_SHARE * near.size:
            break
        r, c = np.nonzero(near)
        del near
        d = indexed_distances(a, b, rows[r], cols[c])
        won = _mutual_nearest(r, c, d)
        out_i.append(rows[r[won]])
        out_j.append(cols[c[won]])
        open_rows = np.ones(len(rows), dtype=bool)
        open_rows[r[won]] = False
        open_cols = np.ones(len(cols), dtype=bool)
        open_cols[c[won]] = False
        rows, cols = rows[open_rows], cols[open_cols]
        if len(won) < MIN_PEEL_SHARE * min(len(open_rows), len(open_cols)):
            break
        approx = approx[np.ix_(open_rows, open_cols)]
    del approx
    if len(rows) and len(cols):
        d = pairwise_distances(a[rows], b[cols]).ravel()
        order = np.argsort(d, kind="stable")
        flat = order[_greedy(order, len(rows), len(cols))]
        out_i.append(rows[flat // len(cols)])
        out_j.append(cols[flat % len(cols)])
    return _as_matches(np.concatenate(out_i), np.concatenate(out_j))


def ratio_match(ref, test, ratio=0.8):
    """Lowe ratio-test matching, made one-to-one.

    A reference descriptor is kept only when its nearest test distance is
    below `ratio` times the second nearest (ambiguous matches drop out);
    survivors are then resolved greedily like nn_match, and returned in its
    (K, 2) form.  A single test descriptor leaves nothing to compare
    against, so the test is waived.  Rows are decided a block of about
    RATIO_BLOCK_ENTRIES entries at a time.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    a, b = _descriptor_matrices(ref, test)
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return np.empty((0, 2), np.intp)
    nb = np.einsum("ij,ij->i", b, b)
    nearest = np.empty(n, np.intp)
    d1 = np.empty(n)
    d2 = np.empty(n)
    step = max(1, RATIO_BLOCK_ENTRIES // m)
    for i0 in range(0, n, step):
        block = a[i0 : i0 + step]
        approx, row_tol, _ = _approx_squared(block, b, nb)
        # each row's entries within 2 tol of its second-smallest estimate
        # hold its nearest and second-nearest exact distances, ties
        # included; its smallest estimate is always among them
        every = np.arange(len(block))
        k = approx.argmin(axis=1)
        approx[every, k] = np.inf
        far = approx > (approx.min(axis=1) + 2 * row_tol)[:, None]
        del approx
        far[every, k] = False
        # flatnonzero, unlike a 2-D nonzero, is a fast scan of the mask
        r, c = np.divmod(np.flatnonzero(np.logical_not(far, out=far)), m)
        d = indexed_distances(block, b, r, c)
        best = _first_minimum(r, d)
        nearest[i0 : i0 + step] = c[best]
        d1[i0 : i0 + step] = d[best]
        d[best] = np.inf
        d2[i0 : i0 + step] = np.minimum.reduceat(d, np.flatnonzero(np.diff(r, prepend=-1)))
    keep = np.arange(n) if m == 1 else np.flatnonzero(d1 < ratio * d2)
    # rows are unique, so a stable sort by d1 breaks ties by (row, column)
    by_d1 = keep[np.argsort(d1[keep], kind="stable")]
    taken = by_d1[_greedy(by_d1 * m + nearest[by_d1], n, m)]
    return _as_matches(taken, nearest[taken])


def match_descriptors(ref, test, method="nn", ratio=0.8):
    if method == "nn":
        return nn_match(ref, test)
    if method == "ratio":
        return ratio_match(ref, test, ratio)
    raise ValueError(f"unknown matching method {method!r}")


def verify_matches(matches, table) -> int:
    """Count the rows of the (K, 2) matches that pass the geometric
    repeatability predicate, that is, whose (ref index, test index) is an
    entry (ri, tj) of the pair's candidate table (metrics.candidate_table)."""
    candidates = set(zip(table[0].tolist(), table[1].tolist()))
    return sum(pair in candidates for pair in zip(*matches.T.tolist()))
