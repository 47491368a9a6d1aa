"""Differential test of the blocked distance kernel and the prefix-sorted greedy.

`broadcast_distances`, `full_sort_nn` and `row_loop_ratio` are the matchers
as they were written before the distances were blocked: the whole N x M x D
difference array, a stable argsort of every distance, and a per-row ratio
test.  They are kept here as the reference.  `geometry.pairwise_distances`
must reproduce the distances bit for bit, and `nn_match` / `ratio_match`
the same match lists, each distance float included.  No tolerance is applied.
"""

import tracemalloc

import numpy as np
import pytest

from repbench import geometry, matching
from repbench.formats import Keypoint, KeypointSet
from repbench.geometry import SecondMomentEllipse, pairwise_distances
from repbench.matching import DescriptorMatch, nn_match, ratio_match

REGION = SecondMomentEllipse.circle(10.0, 10.0, 2.0)


def broadcast_distances(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def broadcast_center_distances(a, b):
    """The centre search's former expression, written with ** 2."""
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def full_sort_nn(a, b):
    if len(a) == 0 or len(b) == 0:
        return []
    d = broadcast_distances(a, b)
    n_test = d.shape[1]
    order = np.argsort(d.ravel(), kind="stable")
    want = min(d.shape)
    used_ref = np.zeros(d.shape[0], dtype=bool)
    used_test = np.zeros(n_test, dtype=bool)
    matches = []
    for flat in order.tolist():
        i, j = divmod(flat, n_test)
        if used_ref[i] or used_test[j]:
            continue
        used_ref[i] = True
        used_test[j] = True
        matches.append(DescriptorMatch(i, j, float(d[i, j])))
        if len(matches) == want:
            break
    matches.sort(key=lambda m: (m.ref_index, m.test_index))
    return matches


def row_loop_ratio(a, b, ratio=0.8):
    if len(a) == 0 or len(b) == 0:
        return []
    d = broadcast_distances(a, b)
    candidates = []
    for i in range(d.shape[0]):
        row = d[i]
        j = int(np.argmin(row))
        d1 = float(row[j])
        if d.shape[1] == 1:
            candidates.append((d1, i, j))
            continue
        d2 = float(np.partition(row, 1)[1])
        if d1 < ratio * d2:
            candidates.append((d1, i, j))
    candidates.sort()
    used_test = set()
    matches = []
    for dist, i, j in candidates:
        if j in used_test:
            continue
        used_test.add(j)
        matches.append(DescriptorMatch(i, j, dist))
    matches.sort(key=lambda m: (m.ref_index, m.test_index))
    return matches


def as_set(descs):
    """A KeypointSet carrying these descriptors; the matchers read only them."""
    descs = np.asarray(descs, dtype=float)
    kps = [Keypoint(REGION, row) for row in descs]
    return KeypointSet("img", 100, 100, descs.shape[1], kps)


def as_tuples(matches):
    return [(m.ref_index, m.test_index, m.distance) for m in matches]


def assert_same(a, b, ratio=0.8):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    got = pairwise_distances(a, b)
    want = broadcast_distances(a, b)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if a.shape[1] == 2:
        assert got.tobytes() == broadcast_center_distances(a, b).tobytes()
    ref, test = as_set(a), as_set(b)
    assert as_tuples(nn_match(ref, test)) == as_tuples(full_sort_nn(a, b))
    assert as_tuples(ratio_match(ref, test, ratio)) == as_tuples(row_loop_ratio(a, b, ratio))


def normal_pair(rng, dim, max_n=30):
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_n + 1))
    scale = float(rng.choice([1e-3, 1.0, 50.0]))
    return rng.normal(0, scale, (n, dim)), rng.normal(0, scale, (m, dim))


def one_hub_pair(rng, n, m, dim):
    """Reference row 0 is nearest to every test descriptor and each later
    reference row lies farther out, so the greedy takes one match from the
    first m entries of the order and the sorted prefix has to grow."""
    test = rng.normal(0, 1e-3, (m, dim))
    ref = np.zeros((n, dim))
    ref[1:, 0] = 10.0 * np.arange(1, n) + rng.uniform(0, 1, n - 1)
    return ref, test


def test_normal_descriptors_small_dims():
    rng = np.random.default_rng(3001)
    for k in range(1500):
        assert_same(*normal_pair(rng, 2 + k % 7), ratio=float(rng.uniform(0.3, 0.95)))


def test_sift_sized_descriptors():
    rng = np.random.default_rng(3002)
    for _ in range(60):
        assert_same(*normal_pair(rng, 128, max_n=40))


def test_integer_tie_heavy_descriptors():
    rng = np.random.default_rng(3003)
    for k in range(800):
        dim = 2 + k % 5
        n = int(rng.integers(1, 25))
        m = int(rng.integers(1, 25))
        a = rng.integers(0, 3, (n, dim))
        b = rng.integers(0, 3, (m, dim))
        assert_same(a, b, ratio=float(rng.choice([0.5, 0.8, 0.99])))


def test_identical_descriptors():
    rng = np.random.default_rng(3004)
    for k in range(200):
        dim = 2 + k % 7
        row = rng.normal(size=dim)
        n = int(rng.integers(1, 20))
        m = int(rng.integers(1, 20))
        assert_same(np.tile(row, (n, 1)), np.tile(row, (m, 1)))


def test_empty_and_single_sides():
    rng = np.random.default_rng(3005)
    for k in range(200):
        dim = 2 + k % 7
        n, m = [(0, 5), (5, 0), (0, 0), (1, 7), (7, 1), (1, 1)][k % 6]
        assert_same(rng.normal(size=(n, dim)), rng.normal(size=(m, dim)))


def test_row_blocks():
    rng = np.random.default_rng(3006)
    # M*D above the block: every block is one row
    over = geometry.PAIRWISE_BLOCK_ELEMENTS // 128 + 7
    for n in (1, 2, 3):
        assert_same(rng.normal(size=(n, 128)), rng.normal(size=(over, 128)))
    # blocks of several rows, N not a multiple of the block's row count
    for m in (60, 100, 130):
        rows = geometry.PAIRWISE_BLOCK_ELEMENTS // (m * 128)
        assert rows > 1
        n = 3 * rows + 2
        assert_same(rng.normal(size=(n, 128)), rng.normal(size=(m, 128)))


@pytest.mark.parametrize("size", [1, 7, 50])
def test_small_blocks_and_chunks(monkeypatch, size):
    monkeypatch.setattr(geometry, "PAIRWISE_BLOCK_ELEMENTS", size)
    monkeypatch.setattr(matching, "ORDER_CHUNK", size)
    rng = np.random.default_rng(3007 + size)
    for k in range(60):
        dim = 2 + k % 7
        if k % 2:
            assert_same(*normal_pair(rng, dim, max_n=20))
        else:
            assert_same(*one_hub_pair(rng, int(rng.integers(3, 20)), int(rng.integers(3, 20)), dim))


def test_growing_prefix(monkeypatch):
    prefix_calls = []
    real = matching._stable_order_prefix

    def counted(flat, k):
        prefix_calls.append(k)
        return real(flat, k)

    monkeypatch.setattr(matching, "_stable_order_prefix", counted)
    rng = np.random.default_rng(3008)
    for k in range(240):
        prefix_calls.clear()
        n = int(rng.integers(3, 30))
        m = int(rng.integers(3, 30))
        assert_same(*one_hub_pair(rng, n, m, 2 + k % 7))
        # the prefix grew at least once before the greedy was complete
        assert len(prefix_calls) >= 2


def test_distance_memory_is_bounded():
    rng = np.random.default_rng(3009)
    n = m = 1000
    ref = as_set(rng.normal(size=(n, 128)))
    test = as_set(rng.normal(size=(m, 128)))
    tracemalloc.start()
    try:
        matches = nn_match(ref, test)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(matches) == n
    # the whole difference array would be n * m * 128 * 8 bytes, about 1 GB
    assert peak < 4 * n * m * 8
