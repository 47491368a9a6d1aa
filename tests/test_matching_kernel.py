"""Differential test of the distance kernels and the filtered matchers.

`broadcast_distances`, `full_sort_nn` and `row_loop_ratio` are the matchers
as they were written before the distances were blocked: the whole N x M x D
difference array, a stable argsort of every distance, and a per-row ratio
test.  They are kept here as the reference.  `geometry.pairwise_distances`
and `geometry.indexed_distances` must reproduce the distances bit for bit,
and `nn_match` / `ratio_match` the same (ref index, test index) match
pairs, whichever way nn_match's peeling ends.  No tolerance is applied.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repbench import geometry, matching
from repbench.formats import KeypointSet
from repbench.geometry import indexed_distances, pairwise_distances
from repbench.matching import nn_match, ratio_match

# every keypoint of as_set is the circle of radius 2 at (10, 10)
CENTER = (10.0, 10.0)
ABC = (0.25, 0.0, 0.25)


def broadcast_distances(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def broadcast_center_distances(a, b):
    """The centre search's former expression, written with ** 2."""
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def full_sort_nn(a, b):
    """The nn matches as [ref index, test index] pairs in row-major order."""
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
        matches.append([i, j])
        if len(matches) == want:
            break
    return sorted(matches)


def row_loop_ratio(a, b, ratio=0.8):
    """The ratio matches as [ref index, test index] pairs in row-major order."""
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
    for _, i, j in candidates:
        if j in used_test:
            continue
        used_test.add(j)
        matches.append([i, j])
    return sorted(matches)


def as_set(descs):
    """A KeypointSet carrying these descriptors; the matchers read only them."""
    n = len(descs)
    return KeypointSet("img", 100, 100, np.tile(CENTER, (n, 1)), np.tile(ABC, (n, 1)), descs)


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
    assert nn_match(ref, test).tolist() == full_sort_nn(a, b)
    assert ratio_match(ref, test, ratio).tolist() == row_loop_ratio(a, b, ratio)


def normal_pair(rng, dim, max_n=30):
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_n + 1))
    scale = float(rng.choice([1e-3, 1.0, 50.0]))
    return rng.normal(0, scale, (n, dim)), rng.normal(0, scale, (m, dim))


def one_hub_pair(rng, n, m, dim):
    """Reference row 0 is nearest to every test descriptor and each later
    reference row lies farther out, so the greedy takes one match from the
    first m entries of the order, and a peeling round takes one match."""
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


@pytest.mark.parametrize("n, m", [(0, 0), (0, 5), (5, 0)])
def test_greedy_over_no_entries(n, m):
    # metrics._resolve calls the greedy with the full set sizes, which may
    # both be zero
    assert matching._greedy(np.empty(0, dtype=np.intp), n, m) == []


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


# nn_match's ways to end: the default; peeling to the last match; and the
# dense greedy from the start.
PATHS = {
    "default": {},
    "peel-only": {"MAX_RESCORE_SHARE": math.inf, "MIN_PEEL_SHARE": 0.0},
    "greedy-only": {"MAX_RESCORE_SHARE": 0.0},
}


def use_path(monkeypatch, path):
    for name, value in PATHS[path].items():
        monkeypatch.setattr(matching, name, value)


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(matching, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(matching, name, counted)
    return calls


def near_tie_pair(rng, dim):
    """Test descriptors at squared distances 6.25 and 6.25 + 2^-50 (one ulp
    apart; both square roots round to 2.5) from reference rows, around bases
    of norm 0, about 1 or about 1e3; at 1e3 the GEMM estimate cannot tell
    the two apart."""
    n = int(rng.integers(1, 12))
    base = rng.normal(0, float(rng.choice([0.0, 1.0, 1e3])), (n, dim))
    step = np.zeros((2, dim))
    step[:, 0] = 2.5
    step[1, 1] = 2.0**-25
    test = [base[i] + step[k] for i in range(n) for k in rng.permutation(2)]
    test += list(rng.normal(0, 1e3, (int(rng.integers(0, 5)), dim)))
    test = np.array(test)[rng.permutation(len(test))]
    return base, test


def test_indexed_distances_bits():
    rng = np.random.default_rng(3010)
    for k in range(300):
        dim = int(rng.choice([1, 2, 3, 5, 8, 9, 17, 128, 200]))
        a, b = normal_pair(rng, dim, max_n=40)
        rows = rng.integers(0, len(a), int(rng.integers(0, 200)))
        cols = rng.integers(0, len(b), len(rows))
        got = indexed_distances(a, b, rows, cols).tobytes()
        assert got == pairwise_distances(a, b)[rows, cols].tobytes()
        assert got == np.sqrt(((a[rows] - b[cols]) ** 2).sum(axis=1)).tobytes()


@pytest.mark.parametrize("path", sorted(PATHS))
def test_every_nn_path(monkeypatch, path):
    use_path(monkeypatch, path)
    rng = np.random.default_rng(3011)
    for k in range(200):
        dim = 2 + k % 7
        family = k % 4
        if family == 0:
            assert_same(*normal_pair(rng, dim))
        elif family == 1:
            n, m = rng.integers(1, 25, 2)
            assert_same(rng.integers(0, 3, (n, dim)), rng.integers(0, 3, (m, dim)))
        elif family == 2:
            n, m = rng.integers(3, 25, 2)
            assert_same(*one_hub_pair(rng, n, m, dim))
        else:
            row = rng.normal(size=dim)
            n, m = rng.integers(1, 20, 2)
            assert_same(np.tile(row, (n, 1)), np.tile(row, (m, 1)))


def test_one_hub_takes_several_rounds(monkeypatch):
    use_path(monkeypatch, "peel-only")
    rounds = count_calls(monkeypatch, "_near_minimum")
    rng = np.random.default_rng(3008)
    for k in range(120):
        rounds.clear()
        n = int(rng.integers(3, 30))
        m = int(rng.integers(3, 30))
        assert_same(*one_hub_pair(rng, n, m, 2 + k % 7))
        # one match per round
        assert len(rounds) >= 2


def degenerate_pair(kind, n=1000):
    x = np.arange(n, dtype=float)
    if kind == "identical":
        a = np.tile(np.random.default_rng(3012).normal(size=4), (n, 1))
        return a, a
    if kind == "lattice":
        # every reference point is 1 from two test points: ties everywhere
        return (2 * x)[:, None], (2 * x + 1)[:, None]
    # interleaved points whose gaps grow along the line
    pos = np.cumsum(1 + 1e-3 * np.arange(2 * n))
    return np.c_[pos[0::2], 0 * x], np.c_[pos[1::2], 0 * x]


@pytest.mark.parametrize("kind", ["identical", "lattice", "chain"])
def test_degenerate_inputs_reach_the_greedy(monkeypatch, kind):
    """One match per peeling round for 1000 rounds, unless the greedy ends
    it, on every open distance computed in blocks."""
    a, b = degenerate_pair(kind)
    rounds = count_calls(monkeypatch, "_near_minimum")
    greedy = count_calls(monkeypatch, "_greedy")
    dense = count_calls(monkeypatch, "pairwise_distances")
    assert nn_match(as_set(a), as_set(b)).tolist() == full_sort_nn(a, b)
    assert len(rounds) == 1
    assert greedy
    assert len(dense) == 1


# ratio_match has one ending left, the near entries gathered one by one
@pytest.mark.parametrize("ending", ["filtered"])
@pytest.mark.parametrize("kind", ["identical", "lattice", "chain"])
def test_degenerate_inputs_ratio_endings(monkeypatch, kind, ending):
    """ratio_match on the degenerate families, where most entries are near:
    it gathers them a block of rows at a time and never takes every
    distance at once."""
    dense = count_calls(monkeypatch, "pairwise_distances")
    gathered = count_calls(monkeypatch, "indexed_distances")
    a, b = degenerate_pair(kind)
    for ratio in (0.5, 0.99):
        got = ratio_match(as_set(a), as_set(b), ratio).tolist()
        assert got == row_loop_ratio(a, b, ratio)
    blocks = math.ceil(len(a) / (matching.RATIO_BLOCK_ENTRIES // len(b)))
    assert (len(dense), len(gathered)) == (0, 2 * blocks)


@pytest.mark.parametrize("rows", [1, 7, "n-1"])
def test_ratio_row_blocks(monkeypatch, rows):
    """Block edges that split the reference rows anywhere leave the ratio
    matches as they are: each row is decided from its own entries."""
    rng = np.random.default_rng(3016)
    cases = [normal_pair(rng, 2 + k % 7) for k in range(60)]
    cases += [(rng.integers(0, 3, (n, 3)), rng.integers(0, 3, (m, 3)))
              for n, m in rng.integers(2, 25, (30, 2))]
    cases += [degenerate_pair(kind, 200) for kind in ("identical", "lattice", "chain")]
    for a, b in cases:
        depth = max(1, len(a) - 1) if rows == "n-1" else rows
        monkeypatch.setattr(matching, "RATIO_BLOCK_ENTRIES", depth * len(b))
        for ratio in (0.5, 0.8, 0.99):
            got = ratio_match(as_set(a), as_set(b), ratio).tolist()
            assert got == row_loop_ratio(a, b, ratio)


def test_random_detector_scale(monkeypatch):
    rng = np.random.default_rng(3013)
    a = rng.normal(size=(2000, 128))
    b = rng.normal(size=(1994, 128))
    rounds = count_calls(monkeypatch, "_near_minimum")
    got = nn_match(as_set(a), as_set(b)).tolist()
    assert len(rounds) >= 2
    # the reference's distances, a block of rows at a time (test_row_blocks
    # pins pairwise_distances to the broadcast), not 4 GB at once
    monkeypatch.setitem(globals(), "broadcast_distances", pairwise_distances)
    assert got == full_sort_nn(a, b)
    assert ratio_match(as_set(a), as_set(b), 0.95).tolist() == row_loop_ratio(a, b, 0.95)


@pytest.mark.parametrize("path", sorted(PATHS))
def test_tolerance_boundaries(monkeypatch, path):
    use_path(monkeypatch, path)
    rng = np.random.default_rng(3014)
    for k in range(120):
        dim = 2 + k % 5
        scale = [1.0, 1e-150, 1e150, 1e-160, 2.0**-600][k % 5]
        a, b = near_tie_pair(rng, dim)
        assert_same(a * scale, b * scale, ratio=float(rng.choice([0.5, 0.99])))
        a, b = normal_pair(rng, dim)
        assert_same(a * scale, b * scale)


@pytest.mark.parametrize("path", sorted(PATHS))
def test_worst_case_estimates(monkeypatch, path):
    """Estimates off by up to 0.99 of their tolerance, anywhere in the range the
    error bound allows, still give the exact matches: the filters rely on
    the bound alone.  Integer descriptors put many distances within one
    tolerance of each other."""
    use_path(monkeypatch, path)
    rng = np.random.default_rng(3015)

    def estimates(a, b, nb=None):
        diff = a[:, None, :] - b[None, :, :]
        squared = (diff * diff).sum(axis=2)
        tol = float(rng.choice([0.5, 2.0, 8.0]))
        noise = rng.uniform(-0.99, 0.99, squared.shape) * tol
        return squared + noise, np.full(len(a), tol), np.full(len(b), tol)

    monkeypatch.setattr(matching, "_approx_squared", estimates)
    for k in range(300):
        dim = 2 + k % 4
        n, m = rng.integers(1, 40, 2)
        a = rng.integers(0, 4, (n, dim))
        b = rng.integers(0, 4, (m, dim))
        assert_same(a, b, ratio=float(rng.choice([0.5, 0.8, 0.99])))


@pytest.mark.parametrize("size", [1, 7, 50])
def test_small_blocks_and_chunks(monkeypatch, size):
    monkeypatch.setattr(geometry, "PAIRWISE_BLOCK_ELEMENTS", size)
    rng = np.random.default_rng(3007 + size)
    for k in range(60):
        dim = 2 + k % 7
        if k % 2:
            assert_same(*normal_pair(rng, dim, max_n=20))
        else:
            assert_same(*one_hub_pair(rng, int(rng.integers(3, 20)), int(rng.integers(3, 20)), dim))


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


def ratio_peak(a, b):
    ref, test = as_set(a), as_set(b)
    tracemalloc.start()
    try:
        ratio_match(ref, test, 0.8)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ratio_memory_is_bounded():
    rng = np.random.default_rng(3017)
    n = m = 2000
    # the N x M estimate alone would be n * m * 8 bytes, 32 MB
    assert ratio_peak(rng.normal(size=(n, 128)), rng.normal(size=(m, 128))) < n * m * 8 / 4
    # every entry near: held a block at a time, below the N x M estimate and
    # mask (9 bytes an entry) that the whole-matrix filter held
    a, b = degenerate_pair("identical")
    assert ratio_peak(a, b) < 9 * len(a) * len(b)
