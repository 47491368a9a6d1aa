"""Descriptor matching and ground-truth verification.

The "true match" count of an image pair is the number of descriptor matches
that also satisfy the geometric repeatability predicate (common part, center
distance, overlap error) under the known homography.  The predicate is not
evaluated here: verify_matches looks each match up in the pair's candidate
table, built once by metrics.candidate_tables.  Matching itself is
greedy one-to-one nearest neighbor by default; a Lowe-style ratio test is
available as an alternative since evaluation protocols differ on this point.
_greedy is the one greedy one-to-one rule over a sorted list of entries:
ratio_match finishes with it, and metrics resolves the correspondences with
it; nn_match runs the same rule lazily, over a heap.

Both matchers decide on exact distances, the difference-squared sum of the
full N x M x D broadcast, but compute few of them, and both read them from
one row pass (_nearest_entries) that lists each reference row's nearest test
entries.  A GEMM expansion |a|^2 + |b|^2 - 2 a.b of every squared distance,
with an error bound per row (_approx_squared), marks the entries that can
still be among a row's first k; only those are re-scored with the exact
formula (geometry.indexed_distances).  Every distance that decides a match,
and every tie-break, keeps the bits of the broadcast, which is never built.
A row needs only its own estimates, so the pass holds a block of reference
rows at a time and no N x M array.  ratio_match reads each row's first two
entries.  nn_match takes the global greedy from each row's first
NN_LIST_LENGTH entries and lists a row again, over the free columns, only
when its list is used up.
"""

import heapq
import math

import numpy as np

from .errors import DescriptorUnavailable
from .geometry import indexed_distances


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

# _nearest_entries estimates blocks of reference rows holding about this many
# entries each (at least one row).  Smaller blocks mean more, smaller GEMM
# calls, which cost more per entry, the more so when worker threads make
# them at once.
ESTIMATE_BLOCK_ENTRIES = 1 << 19

# It re-scores a block's near entries a run of rows at a time, about this
# many entries each (at least one row), so that a block whose entries are
# all near is not gathered at once.
RESCORE_BLOCK_ENTRIES = 1 << 17

# nn_match lists each row's first this many test entries at a time.
NN_LIST_LENGTH = 2


def _approx_squared(a, b, nb):
    """GEMM estimates of all squared distances, with error bounds.

    Returns approx (N, M) = na[:, None] + nb[None, :] - 2 a @ b.T, where
    na = (a * a).sum(axis=1) and nb = (b * b).sum(axis=1), and the
    tolerances row_tol (N,): row_tol[i] is tol(i, j) at the largest nb[j],
    where

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
    nearer than k nor tie with it.
    Below the normal range the relative bounds fail; each product (3 D in
    approx, D in s') may then lose half a subnormal step 2^-1074, and a
    square-root tie spans at most two steps, so tau = c (D + 2) 2^-1074
    covers those losses.  A NaN or infinite estimate never excludes an
    entry.  The margin decides only how many entries get the exact
    formula, never which match is made.
    """
    # finite values near 1e154 or more overflow here, to estimates that
    # exclude nothing
    with np.errstate(over="ignore", invalid="ignore"):
        na = np.einsum("ij,ij->i", a, a)
        approx = a @ b.T
        approx *= -2.0
        approx += na[:, None]
        approx += nb
    slack = TOL_FACTOR * (a.shape[1] + 2)
    kappa = slack * np.finfo(float).eps
    tau = slack * math.ulp(0.0)
    return approx, kappa * (na + nb.max()) + tau


def _nearest_entries(a, b, k, nb=None):
    """Each reference row's first min(k, M) test entries in (exact distance,
    column) order, as (cols, d), both (N, min(k, M)).

    The rows are estimated a block of about ESTIMATE_BLOCK_ENTRIES entries
    at a time.  In a block, every entry within 2 row_tol of its row's k-th
    smallest estimate is near and re-scored exactly, about
    RESCORE_BLOCK_ENTRIES at a time; an entry beyond that has k entries
    strictly nearer (_approx_squared), so it cannot be among the first k,
    and the k entries with the smallest estimates are always near.  nb is
    (b * b).sum(axis=1) when given.
    """
    if nb is None:
        nb = np.einsum("ij,ij->i", b, b)
    n, m = len(a), len(b)
    k = min(k, m)
    cols = np.empty((n, k), np.intp)
    d = np.empty((n, k))
    step = max(1, ESTIMATE_BLOCK_ENTRIES // m)
    for i0 in range(0, n, step):
        block = a[i0 : i0 + step]
        approx, row_tol = _approx_squared(block, b, nb)
        # the k - 1 smallest estimates are set aside, so the k-th is the
        # smallest left; a min pass allocates nothing, unlike np.partition
        every = np.arange(len(block))
        aside = []
        for _ in range(k - 1):
            aside.append(approx.argmin(axis=1))
            approx[every, aside[-1]] = np.inf
        far = approx > (approx.min(axis=1) + 2 * row_tol)[:, None]
        del approx
        for j in aside:
            far[every, j] = False
        near = np.logical_not(far, out=far)
        ends = np.cumsum(np.count_nonzero(near, axis=1))
        r0 = 0
        while r0 < len(block):
            start = ends[r0 - 1] if r0 else 0
            r1 = max(r0 + 1, int(np.searchsorted(ends, start + RESCORE_BLOCK_ENTRIES, "right")))
            run = slice(i0 + r0, i0 + r1)
            cols[run], d[run] = _first_entries(block[r0:r1], b, near[r0:r1], k)
            r0 = r1
    return cols, d


def _first_entries(a, b, near, k):
    """The first k entries of each row of the mask near (N, M), in (exact
    distance, column) order, as (cols, d); each row has at least k."""
    # flatnonzero, unlike a 2-D nonzero, is a fast scan of the mask
    r, c = np.divmod(np.flatnonzero(near), near.shape[1])
    d = indexed_distances(a, b, r, c)
    # the entries come in row-major order, so a stable sort by (row,
    # distance) breaks ties by column
    order = np.lexsort((d, r))
    # a row's entries start where r changes
    starts = np.ones(len(r), dtype=bool)
    np.not_equal(r[1:], r[:-1], out=starts[1:])
    first = order[(np.flatnonzero(starts)[:, None] + np.arange(k)).ravel()]
    return c[first].reshape(-1, k), d[first].reshape(-1, k)


def _greedy(rows, cols, n, m):
    """The greedy over entries (rows[k], cols[k]) of an (n, m) matrix, in
    the order listed: each entry whose row and column are both still free
    is taken, until min(n, m) are.  Returns the positions k taken."""
    used_row = bytearray(n)
    used_col = bytearray(m)
    taken = []
    limit = min(n, m)
    for k, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
        if not (used_row[i] or used_col[j]):
            used_row[i] = used_col[j] = 1
            taken.append(k)
            if len(taken) == limit:
                break
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

    A heap holds one key (d, ref index, test index) per open row: the row's
    first listed entry whose column is still free, or, once its list
    (_nearest_entries, NN_LIST_LENGTH entries) is used up, the placeholder
    (last listed d, ref index, -1), a lower bound of the row's next key.  A
    popped entry whose column is free is therefore the smallest open key,
    and is taken; one whose column is taken gives way to the row's next
    listed free column.  When a placeholder comes to the top, every row
    whose list is used up is listed again in one pass over the free columns.
    """
    a, b = _descriptor_matrices(ref, test)
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return np.empty((0, 2), np.intp)
    nb = np.einsum("ij,ij->i", b, b)
    cols, d = _nearest_entries(a, b, NN_LIST_LENGTH, nb)
    cols, d = cols.tolist(), d.tolist()
    at = [0] * n
    heap = [(row_d[0], i, row_cols[0]) for i, (row_d, row_cols) in enumerate(zip(d, cols))]
    heapq.heapify(heap)
    used = bytearray(m)
    # the rows whose lists are used up, in order (a dict as an ordered
    # set); a placeholder whose row is not among them is stale
    waiting = {}
    out_i, out_j = [], []
    while len(out_i) < min(n, m):
        _, i, j = heapq.heappop(heap)
        if j < 0:
            if i in waiting:
                rows = np.fromiter(waiting, np.intp, len(waiting))
                free = np.flatnonzero(~np.frombuffer(used, dtype=bool))
                new_cols, new_d = _nearest_entries(a[rows], b[free], NN_LIST_LENGTH, nb[free])
                for r, row_cols, row_d in zip(waiting, free[new_cols].tolist(), new_d.tolist()):
                    cols[r], d[r], at[r] = row_cols, row_d, 0
                    heapq.heappush(heap, (row_d[0], r, row_cols[0]))
                waiting.clear()
        elif not used[j]:
            used[j] = 1
            out_i.append(i)
            out_j.append(j)
        else:
            row = cols[i]
            k = at[i] + 1
            while k < len(row) and used[row[k]]:
                k += 1
            at[i] = k
            if k < len(row):
                heapq.heappush(heap, (d[i][k], i, row[k]))
            else:
                waiting[i] = True
                heapq.heappush(heap, (d[i][-1], i, -1))
    return _as_matches(np.array(out_i, np.intp), np.array(out_j, np.intp))


def ratio_match(ref, test, ratio=0.8):
    """Lowe ratio-test matching, made one-to-one.

    A reference descriptor is kept only when its nearest test distance is
    below `ratio` times the second nearest (ambiguous matches drop out);
    survivors are then resolved greedily like nn_match, and returned in its
    (K, 2) form.  A single test descriptor leaves nothing to compare
    against, so the test is waived.  Both distances come from each row's
    first two entries (_nearest_entries).
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    a, b = _descriptor_matrices(ref, test)
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return np.empty((0, 2), np.intp)
    cols, d = _nearest_entries(a, b, 2)
    nearest, d1 = cols[:, 0], d[:, 0]
    keep = np.arange(n) if m == 1 else np.flatnonzero(d1 < ratio * d[:, 1])
    # rows are unique, so a stable sort by d1 breaks ties by (row, column)
    by_d1 = keep[np.argsort(d1[keep], kind="stable")]
    taken = by_d1[_greedy(by_d1, nearest[by_d1], n, m)]
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
    entry (ri, tj) of the pair's candidate table (metrics.candidate_tables)."""
    candidates = set(zip(table[0].tolist(), table[1].tolist()))
    return sum(pair in candidates for pair in zip(*matches.T.tolist()))
