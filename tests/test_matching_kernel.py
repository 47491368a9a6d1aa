"""Differential test of the distance kernels and the filtered matchers.

`broadcast_distances`, `full_sort_nn` and `row_loop_ratio` are the matchers
as they were written before the distances were blocked: the whole N x M x D
difference array, a stable argsort of every distance, and a per-row ratio
test.  They are kept here as the reference.  `oracle.pairwise_distances`
and `geometry.indexed_distances` must reproduce the distances bit for bit,
and `nn_match` / `ratio_match` the same (ref index, test index) match
pairs, whatever nn_match's list length and wherever the row blocks end.
No tolerance is applied.
"""

import functools
import tracemalloc
import warnings

import numpy as np
import pytest

from repbench import geometry, matching
from repbench.formats import KeypointSet
from repbench.geometry import indexed_distances
from repbench.matching import nn_match, ratio_match
from oracle import pairwise_distances

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
    first m entries of the order, and later rows find their nearest test
    descriptors taken."""
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


def test_overflowing_descriptors():
    """Finite descriptors near 1e160, whose squares overflow: both matchers
    raise no RuntimeWarning and make the dense reference's matches, in its
    order, with ties present.  Most distances are infinite, the perturbed
    copies' are finite, and a repeated reference row and repeated test
    copies tie exactly."""
    rng = np.random.default_rng(3019)
    for _ in range(50):
        a = rng.normal(size=(5, 3)) * 1e160
        b = np.r_[rng.normal(size=(4, 3)) * 1e160, a[:2] + rng.normal(size=(2, 3)) * 1e150,
                  a[:1], a[:1]]
        a = np.r_[a, a[:1]]
        ratio = float(rng.choice([0.5, 0.8, 0.99]))
        # the reference's broadcast overflows in the test module, not in repbench
        with np.errstate(over="ignore", invalid="ignore"):
            want_nn, want_ratio = full_sort_nn(a, b), row_loop_ratio(a, b, ratio)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert nn_match(as_set(a), as_set(b)).tolist() == want_nn
            assert ratio_match(as_set(a), as_set(b), ratio).tolist() == want_ratio


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


# nn_match's list lengths: one entry, so every taken column sends its row
# to a refill; the default; and a long list that rarely runs out.
LENGTHS = {"length-1": 1, "default": matching.NN_LIST_LENGTH, "length-8": 8}


def use_length(monkeypatch, length):
    monkeypatch.setattr(matching, "NN_LIST_LENGTH", LENGTHS[length])


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


@pytest.mark.parametrize("length", sorted(LENGTHS))
def test_every_nn_path(monkeypatch, length):
    use_length(monkeypatch, length)
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
    """With one entry listed per row, the rows of a hub pair find their
    nearest column taken and are listed again, round after round."""
    use_length(monkeypatch, "length-1")
    rounds = count_calls(monkeypatch, "_nearest_entries")
    rng = np.random.default_rng(3008)
    for k in range(120):
        n = int(rng.integers(3, 30))
        m = int(rng.integers(3, 30))
        a, b = one_hub_pair(rng, n, m, 2 + k % 7)
        assert_same(a, b)
        rounds.clear()
        nn_match(as_set(a), as_set(b))
        # the first listing, then refills
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
    """Ties everywhere, or one match per greedy step: with one entry listed
    per row, each row after the first finds its column taken and is listed
    again over the free columns alone, never over every column."""
    a, b = degenerate_pair(kind)
    use_length(monkeypatch, "length-1")
    listed = count_calls(monkeypatch, "_nearest_entries")
    assert nn_match(as_set(a), as_set(b)).tolist() == full_sort_nn(a, b)
    assert [len(args[0]) for args in listed] == [len(a)] + [1] * (len(a) - 1)
    assert [len(args[1]) for args in listed] == list(range(len(b), 0, -1))


# ratio_match has one ending left, the near entries gathered one by one
@pytest.mark.parametrize("ending", ["filtered"])
@pytest.mark.parametrize("kind", ["identical", "lattice", "chain"])
def test_degenerate_inputs_ratio_endings(monkeypatch, kind, ending):
    """ratio_match on the degenerate families, where most entries are near:
    it gathers them a run of rows at a time, never more than
    RESCORE_BLOCK_ENTRIES at once (rows of b are shorter than that)."""
    gathered = count_calls(monkeypatch, "indexed_distances")
    a, b = degenerate_pair(kind)
    for ratio in (0.5, 0.99):
        got = ratio_match(as_set(a), as_set(b), ratio).tolist()
        assert got == row_loop_ratio(a, b, ratio)
    sizes = [len(args[2]) for args in gathered]
    assert max(sizes) <= matching.RESCORE_BLOCK_ENTRIES
    if kind == "identical":
        # every entry is near, and each is gathered once per call
        assert sum(sizes) == 2 * len(a) * len(b)


def row_block_cases(rng):
    cases = [normal_pair(rng, 2 + k % 7) for k in range(60)]
    cases += [(rng.integers(0, 3, (n, 3)), rng.integers(0, 3, (m, 3)))
              for n, m in rng.integers(2, 25, (30, 2))]
    cases += [degenerate_pair(kind, 200) for kind in ("identical", "lattice", "chain")]
    return cases


def use_block_rows(monkeypatch, rows, a, b):
    """Estimate blocks of `rows` rows, re-scored about as many entries at a
    time, so that runs end inside blocks too."""
    depth = max(1, len(a) - 1) if rows == "n-1" else rows
    monkeypatch.setattr(matching, "ESTIMATE_BLOCK_ENTRIES", depth * len(b))
    monkeypatch.setattr(matching, "RESCORE_BLOCK_ENTRIES", depth)


@pytest.mark.parametrize("rows", [1, 7, "n-1"])
def test_ratio_row_blocks(monkeypatch, rows):
    """Block edges that split the reference rows anywhere leave the ratio
    matches as they are: each row is decided from its own entries."""
    for a, b in row_block_cases(np.random.default_rng(3016)):
        use_block_rows(monkeypatch, rows, a, b)
        for ratio in (0.5, 0.8, 0.99):
            got = ratio_match(as_set(a), as_set(b), ratio).tolist()
            assert got == row_loop_ratio(a, b, ratio)


@pytest.mark.parametrize("length", sorted(LENGTHS))
@pytest.mark.parametrize("rows", [1, 7, "n-1"])
def test_nn_row_blocks(monkeypatch, rows, length):
    """The same for nn_match, whose refills list fewer rows over fewer
    columns, so their blocks hold more rows than the first listing's."""
    use_length(monkeypatch, length)
    for a, b in row_block_cases(np.random.default_rng(3018)):
        use_block_rows(monkeypatch, rows, a, b)
        assert nn_match(as_set(a), as_set(b)).tolist() == full_sort_nn(a, b)


def test_random_detector_scale(monkeypatch):
    rng = np.random.default_rng(3013)
    a = rng.normal(size=(2000, 128))
    b = rng.normal(size=(1994, 128))
    listed = count_calls(monkeypatch, "_nearest_entries")
    got = nn_match(as_set(a), as_set(b)).tolist()
    # refills happen, and some list several rows in one pass
    refilled = [len(args[0]) for args in listed[1:]]
    assert refilled and max(refilled) > 1
    # the reference's distances, a block of rows at a time (test_row_blocks
    # pins pairwise_distances to the broadcast), not 4 GB at once
    monkeypatch.setitem(globals(), "broadcast_distances", pairwise_distances)
    assert got == full_sort_nn(a, b)
    assert ratio_match(as_set(a), as_set(b), 0.95).tolist() == row_loop_ratio(a, b, 0.95)


@pytest.mark.parametrize("length", sorted(LENGTHS))
def test_tolerance_boundaries(monkeypatch, length):
    use_length(monkeypatch, length)
    rng = np.random.default_rng(3014)
    for k in range(120):
        dim = 2 + k % 5
        scale = [1.0, 1e-150, 1e150, 1e-160, 2.0**-600][k % 5]
        a, b = near_tie_pair(rng, dim)
        assert_same(a * scale, b * scale, ratio=float(rng.choice([0.5, 0.99])))
        a, b = normal_pair(rng, dim)
        assert_same(a * scale, b * scale)


@pytest.mark.parametrize("length", sorted(LENGTHS))
def test_worst_case_estimates(monkeypatch, length):
    """Estimates off by up to 0.99 of their tolerance, anywhere in the range the
    error bound allows, still give the exact matches: the filters rely on
    the bound alone.  Integer descriptors put many distances within one
    tolerance of each other."""
    use_length(monkeypatch, length)
    rng = np.random.default_rng(3015)

    def estimates(a, b, nb):
        diff = a[:, None, :] - b[None, :, :]
        squared = (diff * diff).sum(axis=2)
        tol = float(rng.choice([0.5, 2.0, 8.0]))
        noise = rng.uniform(-0.99, 0.99, squared.shape) * tol
        return squared + noise, np.full(len(a), tol)

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


def peak(match, a, b):
    ref, test = as_set(a), as_set(b)
    tracemalloc.start()
    try:
        match(ref, test)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_distance_memory_is_bounded():
    rng = np.random.default_rng(3009)
    n = m = 2000
    # the N x M estimate alone would be n * m * 8 bytes, 32 MB
    assert peak(nn_match, rng.normal(size=(n, 128)), rng.normal(size=(m, 128))) < n * m * 8 / 4
    # every entry tied, so each row after the first is listed again: a row
    # at a time, over the free columns only, under 12 bytes an entry
    a, b = degenerate_pair("identical")
    assert peak(nn_match, a, b) < 12 * len(a) * len(b)


def test_ratio_memory_is_bounded():
    rng = np.random.default_rng(3017)
    n = m = 2000
    ratio = functools.partial(ratio_match, ratio=0.8)
    # the N x M estimate alone would be n * m * 8 bytes, 32 MB
    assert peak(ratio, rng.normal(size=(n, 128)), rng.normal(size=(m, 128))) < n * m * 8 / 4
    # every entry near: held a block at a time, below the N x M estimate and
    # mask (9 bytes an entry) that the whole-matrix filter held
    a, b = degenerate_pair("identical")
    assert peak(ratio, a, b) < 9 * len(a) * len(b)
