"""Planar projective geometry for elliptical interest regions.

Regions are second-moment ellipses { p : (p - center)^T mu (p - center) <= 1 }
with a positive-definite 2x2 shape matrix mu in units of pixels^-2.  A ground
truth homography maps the reference image plane to the test image plane;
regions are carried between the two frames by the local affine linearization
(Jacobian) of that map, which is exact whenever the homography is affine.
The overlap error of two regions is estimated on a regular grid of cell
centers over their joint bounding box; the cells inside each ellipse are
counted row by row, as one run of columns per row, rather than one by one.

Every point is projected by one formula, m (x, y, 1) element by element
(_homogeneous), never by a matmul, so no BLAS build sets its bits; one check
(region_checks) decides which rows (u, v, a, b, c) are regions, semiaxes and
half_extents are the one copy of each ellipse formula, and every
transcendental is libm's, one element at a time (libm); in_image is the
one rule for a point inside an image, boundary included.  Many points and
pairs are handled in one pass over arrays: project_points projects K
points, homography_jacobians linearises one map, or one map per point, at
K points, transport_shapes carries K regions through their Jacobians, and
overlap_errors lays out the grid of each of K pairs and runs the rows of
all the grids through one row kernel, a block of OVERLAP_BLOCK_ROWS rows
at a time; it alone sets the grid's pitch and decides which pairs are
scored, a pair it cannot grid (_grid_constants) scoring NaN.  Given a
threshold, it settles the pairs its caller marks lone without a grid
wherever an interval that provably holds their estimate (_error_bounds)
lies on one side of the threshold.
SecondMomentEllipse and overlap_error, one region and one pair, are K = 1
calls of these rules, with the same bits; they stay because the
benchmark's tracer (bench/tracing.py) wraps and calls them.
close_pairs finds the point pairs closer than a radius with a spatial
hash, bucketing one set in cells a little wider than the radius, rather
than computing all N x M distances.
"""

import math

import numpy as np

from .errors import DegenerateRegion, SingularHomography

# |w| below this times max|m| puts a point at infinity (_homogeneous).
PROJECTIVE_EPS = 1e-12

# overlap_error never evaluates more than this many grid samples per pair.
MAX_OVERLAP_SAMPLES = 4_000_000

# indexed_distances holds about this many coordinate differences at a time.
PAIRWISE_BLOCK_ELEMENTS = 1 << 16

# overlap_errors runs its pairs' grid rows through the row kernel in blocks
# of this many rows.
OVERLAP_BLOCK_ROWS = 1 << 13


def region_checks(centers, abc):
    """Which rows of centers (N, 2) and abc (N, 3) are regions
    a(x-u)^2 + 2b(x-u)(y-v) + c(y-v)^2 <= 1: the (N,) masks of finite
    centers, of finite coefficients, and of positive-definite coefficients
    (a > 0, c > 0, a c - b^2 > 0).

    A row whose product a c overflows to inf passes, as it does in Python
    floats, and a row with a NaN is not positive definite; neither warns.
    """
    a, b, c = abc.T
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.isfinite(centers).all(axis=1), np.isfinite(abc).all(axis=1),
                (a > 0.0) & (c > 0.0) & (a * c - b * b > 0.0))


class Homography:
    """Invertible 3x3 projective map, row-major, reference frame -> test frame.

    Treat `m` as read-only: the inverse is computed once and kept.
    """

    __slots__ = ("m", "_inverse")

    def __init__(self, m):
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"homography must be 3x3, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("homography entries must be finite")
        # homographies are defined up to scale: the determinant is taken with
        # the largest entry scaled to 1, so k * m is judged as m is for any
        # k != 0, and no product overflows
        scale = np.abs(m).max()
        if scale == 0.0 or np.linalg.det(m / scale) == 0.0:
            raise SingularHomography("matrix has zero determinant")
        self.m = m
        self._inverse = None

    def inverse(self):
        if self._inverse is None:
            self._inverse = Homography(np.linalg.inv(self.m))
        return self._inverse

    def __matmul__(self, other):
        return Homography(self.m @ other.m)

    def __repr__(self):
        rows = "; ".join(" ".join(f"{v:g}" for v in row) for row in self.m)
        return f"Homography([{rows}])"


class SecondMomentEllipse:
    """Elliptical region { p : (p - center)^T mu (p - center) <= 1 }."""

    __slots__ = ("center", "shape")

    def __init__(self, center, shape):
        center = np.asarray(center, dtype=float)
        shape = np.asarray(shape, dtype=float)
        if center.shape != (2,):
            raise ValueError(f"center must have shape (2,), got {center.shape}")
        if shape.shape != (2, 2):
            raise ValueError(f"shape matrix must be 2x2, got {shape.shape}")
        (a, b), (b_low, c) = shape.tolist()
        center_ok, abc_ok, definite = region_checks(center[None], np.array([[a, b, c]]))
        # the row is (u, v, a, b, c); b_low is the one entry outside it
        if not (center_ok[0] and abc_ok[0] and math.isfinite(b_low)):
            raise ValueError("ellipse center and shape must be finite")
        if abs(b_low - b) > 1e-9 * max(1.0, abs(b)):
            raise ValueError("shape matrix must be symmetric")
        if not definite[0]:
            raise DegenerateRegion(
                f"shape matrix not positive definite (a={a:g}, b={b:g}, c={c:g})"
            )
        self.center = center
        self.shape = np.array([[a, b], [b, c]])

    @classmethod
    def from_abc(cls, u, v, a, b, c):
        """Region a(x-u)^2 + 2b(x-u)(y-v) + c(y-v)^2 <= 1."""
        return cls((u, v), [[a, b], [b, c]])

    @classmethod
    def circle(cls, u, v, radius):
        if radius <= 0:
            raise ValueError("radius must be positive")
        k = 1.0 / (radius * radius)
        return cls((u, v), [[k, 0.0], [0.0, k]])

    @property
    def abc(self):
        """(a, b, c) of the region a(x-u)^2 + 2b(x-u)(y-v) + c(y-v)^2 <= 1."""
        return self.shape[[0, 0, 1], [0, 1, 1]]

    def semiaxes(self):
        """(major, minor) of semiaxes; raises DegenerateRegion for a needle."""
        (major,), (minor,) = semiaxes(self.abc[None])
        if math.isnan(minor):
            raise DegenerateRegion(f"needle {self!r}: smaller eigenvalue rounds to 0 or below")
        return float(major), float(minor)

    def half_extents(self):
        """(along x, along y) of half_extents."""
        (half_w,), (half_h,) = half_extents(self.abc[None])
        return float(half_w), float(half_h)

    def __repr__(self):
        a, b, c = self.shape[0, 0], self.shape[0, 1], self.shape[1, 1]
        return (
            f"SecondMomentEllipse(({self.center[0]:g}, {self.center[1]:g}), "
            f"a={a:g}, b={b:g}, c={c:g})"
        )


def project_points(h, pts):
    """Vectorized projection of an (N, 2) array.

    Returns (projected (N, 2) array, finite mask).  Rows that map to
    infinity (_homogeneous) are masked out instead of raising.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    with np.errstate(all="ignore"):
        u, v, w, ok = _homogeneous(h.m, pts)
        out = np.stack([u / w, v / w], axis=1)
    out[~ok] = np.nan
    return out, ok


def in_image(points, width, height):
    """The mask of the rows of points (K, 2) inside [0, width] x [0, height],
    boundary included; a row with a NaN is outside, with no warning."""
    x, y = points.T
    with np.errstate(invalid="ignore"):
        return (0.0 <= x) & (x <= width) & (0.0 <= y) & (y <= height)


def _homogeneous(m, points):
    """(u, v, w) = m (x, y, 1) at each row (x, y) of points (K, 2), and the
    mask of the rows in view: every projection's one formula, element by
    element, so no BLAS kernel sets its bits.  m is one 3 x 3 matrix or a
    (K, 3, 3) stack of them, one per row; a row's values have the same bits
    either way.  A row is at infinity when |w| < PROJECTIVE_EPS * max|m| or
    w is NaN, a test that does not depend on the scale of m.  The caller
    holds the errstate."""
    x, y = points.T
    u = m[..., 0, 0] * x + m[..., 0, 1] * y + m[..., 0, 2]
    v = m[..., 1, 0] * x + m[..., 1, 1] * y + m[..., 1, 2]
    w = m[..., 2, 0] * x + m[..., 2, 1] * y + m[..., 2, 2]
    return u, v, w, np.abs(w) >= PROJECTIVE_EPS * np.abs(m).max(axis=(-2, -1))


def indexed_distances(a, b, rows, cols):
    """Distances between a[rows[k]] and b[cols[k]] for each k.

    Each is sqrt(((a[i] - b[j]) * (a[i] - b[j])).sum()), summed over the
    same contiguous D values as the broadcast a[:, None] - b[None], so it
    has the bits of entry (rows[k], cols[k]) of that expression.  The
    differences are held about PAIRWISE_BLOCK_ELEMENTS values at a time.
    """
    out = np.empty(len(rows))
    step = max(1, PAIRWISE_BLOCK_ELEMENTS // max(1, a.shape[1]))
    for k0 in range(0, len(rows), step):
        # far-apart finite points overflow to an infinite distance, as the
        # broadcast does
        with np.errstate(over="ignore", invalid="ignore"):
            diff = a[rows[k0 : k0 + step]] - b[cols[k0 : k0 + step]]
            np.multiply(diff, diff, out=diff)
            diff.sum(axis=1, out=out[k0 : k0 + step])
    return np.sqrt(out, out=out)


def close_pairs(a, b, radius, a_groups=None, b_groups=None):
    """Every pair of 2-D points closer than `radius`, without the N x M matrix.

    Returns (i, j, d) in row-major (i, j) order, d = sqrt(dx*dx + dy*dy)
    < radius for (dx, dy) = a[i] - b[j], scored by indexed_distances: the
    bits of the broadcast's entry (i, j).  The points of b are bucketed in square cells a little wider
    than radius, and each point of a is looked up in the 3 x 3 cells around
    its own (spatial hashing, Teschner et al., VMV 2003), so only pairs in
    neighbouring cells get a distance.  Memory is O(N + M + those pairs).

    With a_groups and b_groups, the (N,) and (M,) group labels of the
    points, integers in [0, 2**56), only pairs within one group are found:
    the label is part of each cell's key, so the pairs of many point sets
    come from one pass.  Without them every point is in group 0.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    if len(a) == 0 or len(b) == 0:
        none = np.empty(0, dtype=np.int64)
        return none, none, np.empty(0)
    a_groups = np.zeros(len(a), np.int64) if a_groups is None else np.asarray(a_groups, np.int64)
    b_groups = np.zeros(len(b), np.int64) if b_groups is None else np.asarray(b_groups, np.int64)
    groups = 1 + int(max(a_groups.max(), b_groups.max()))
    # A pair closer than radius differs by less than radius * (1 + 4 eps) in
    # each coordinate, and x / cell rounds by at most eps |x| / cell, so
    # cells wider than radius by those amounts put such a pair at most one
    # cell apart on each axis.  Wider cells are never wrong, only slower:
    # a's cells span at most 2**bits per axis, so there are at most
    # 2**bits + 4 columns and rows with the margin, and a key (group,
    # column, row) stays below groups * (2**bits + 4)**2 < 2**62.
    bits = min(26, (60 - groups.bit_length()) // 2)
    lo, hi = a.min(axis=0), a.max(axis=0)
    cell = max(radius * (1.0 + 2.0**-20) + float(np.abs(a).max()) * 2.0**-40,
               float((hi - lo).max()) * 2.0**-bits)
    cells_a = np.floor(a / cell)
    cells_b = np.floor(b / cell)
    first = cells_a.min(axis=0) - 1.0
    last = cells_a.max(axis=0) + 1.0
    # a point of b outside the cells probed for a is never close
    near = np.flatnonzero(((cells_b >= first) & (cells_b <= last)).all(axis=1))
    columns, side = (last - first).astype(np.int64) + 1

    def keys(cells, group):
        column, row = (cells - first).astype(np.int64).T
        return (group * columns + column) * side + row

    by_key = near[np.argsort(keys(cells_b[near], b_groups[near]), kind="stable")]
    sorted_keys = keys(cells_b[by_key], b_groups[by_key])
    probes = (keys(cells_a, a_groups)[:, None]
              + (np.arange(-1, 2)[:, None] * side + np.arange(-1, 2)).ravel())
    start = np.searchsorted(sorted_keys, probes, "left").ravel()
    count = np.searchsorted(sorted_keys, probes, "right").ravel() - start
    i = np.repeat(np.arange(len(a)), count.reshape(len(a), 9).sum(axis=1))
    run = np.repeat(start - (np.cumsum(count) - count), count)
    j = by_key[run + np.arange(len(run))]
    d = indexed_distances(a, b, i, j)
    close = np.flatnonzero(d < radius)
    close = close[np.lexsort((j[close], i[close]))]
    return i[close], j[close], d[close]


def homography_jacobians(h, points):
    """The exact Jacobian and the image of the projective map at each row of
    points (K, 2).  For the rational map (u/w, v/w) the partials are
    d(u/w)/dx = (u_x * w - u * w_x) / w^2 and so on.

    h is a Homography, or a (K, 3, 3) stack of matrices, one per point
    (_homogeneous), so the points of several maps go in one call.

    Returns (jac, projected, at_infinity): the (K, 2, 2) Jacobians and (K,
    2) images of the points, and the mask of the points that map to
    infinity, whose values are meaningless.
    """
    m = h.m if isinstance(h, Homography) else h
    # w * w may overflow, which rounds the Jacobian towards 0
    with np.errstate(all="ignore"):
        u, v, w, in_view = _homogeneous(m, points)
        w2 = w * w
        jac = np.stack(
            [(m[..., 0, 0] * w - u * m[..., 2, 0]) / w2,
             (m[..., 0, 1] * w - u * m[..., 2, 1]) / w2,
             (m[..., 1, 0] * w - v * m[..., 2, 0]) / w2,
             (m[..., 1, 1] * w - v * m[..., 2, 1]) / w2],
            axis=1,
        ).reshape(-1, 2, 2)
        projected = np.stack([u / w, v / w], axis=1)
    return jac, projected, ~in_view


def transport_shapes(a, abc):
    """Shape coefficients of the regions abc (K, 3) under the linear maps
    a (K, 2, 2): (a, b, c) of 0.5 * (S + S^T), S = A^T mu A.

    S is a stacked matmul, which has the kernel and the bits of each
    region's `A.T @ mu @ A`; the values are not checked.
    """
    with np.errstate(all="ignore"):
        t = np.matmul(np.matmul(a.transpose(0, 2, 1), abc[:, [0, 1, 1, 2]].reshape(-1, 2, 2)), a)
        return np.stack(
            [0.5 * (t[:, 0, 0] + t[:, 0, 0]), 0.5 * (t[:, 0, 1] + t[:, 1, 0]),
             0.5 * (t[:, 1, 1] + t[:, 1, 1])],
            axis=1,
        )


def overlap_error(e1, e2, grid_step):
    """overlap_errors of the one pair of SecondMomentEllipse e1, e2; raises
    DegenerateRegion where that is NaN, for a needle."""
    err = overlap_errors(e1.center[None], e1.abc[None], e2.center[None], e2.abc[None], grid_step)
    if np.isnan(err[0]):
        raise DegenerateRegion("the pair has no overlap grid, as a needle region has none")
    return float(err[0])


def overlap_errors(centers1, abc1, centers2, abc2, grid_step=None, threshold=None, lone=None):
    """1 - |e1 n e2| / |e1 u e2| of K region pairs, as a (K,) array, with
    the areas estimated on a regular grid per pair.

    Region k of each side has center centers[k] and shape coefficients
    abc[k] = (a, b, c) of a(x-u)^2 + 2b(x-u)(y-v) + c(y-v)^2 <= 1;
    grid_step is one pitch, one per pair, or None for the default pitch
    min(0.1, smaller minor semiaxis / 100).  A pair's grid covers the joint
    bounding box of its two ellipses and samples cell centers, so the
    estimate is deterministic and symmetric in the two.  The pitch is
    clamped so that each region gets at least one sample and the sample
    count stays below MAX_OVERLAP_SAMPLES (_grid_constants).  The rows of
    all the grids, concatenated, go through one row kernel (_row_counts)
    OVERLAP_BLOCK_ROWS rows at a time, so memory stays O(K +
    OVERLAP_BLOCK_ROWS) however many rows there are.  Errors are clamped to
    [0, 1]; a pair without a grid (_grid_constants) scores NaN.

    With a threshold, a pair of the (K,) mask lone is settled without a
    grid when its interval [lo, hi] (_error_bounds), which provably holds
    its grid estimate, lies on one side of the threshold: it scores hi,
    which is below the threshold exactly when the estimate is.  Every
    other pair is gridded and scores the estimate's bits.
    """
    centers, abc = np.stack([centers1, centers2]), np.stack([abc1, abc2])
    per_pair, ny, gridded = _grid_constants(centers, abc, grid_step)
    settled = np.zeros(len(ny), dtype=bool)
    if threshold is not None:
        lo, hi = _error_bounds(centers, abc, per_pair, ny)
        # NaN, outside the proof's scope, settles nothing
        settled = lone & ((hi < threshold) | (lo >= threshold))
        ny = np.where(settled, 0, ny)
    ends = np.cumsum(ny)
    starts = ends - ny
    rows = int(ends[-1]) if len(ends) else 0
    inter = np.zeros(len(ny))
    total = np.zeros(len(ny))
    for g0 in range(0, rows, OVERLAP_BLOCK_ROWS):
        g1 = min(g0 + OVERLAP_BLOCK_ROWS, rows)
        # the pairs with rows in [g0, g1), and how many each has there
        k0, k1 = np.searchsorted(ends, g0, "right"), np.searchsorted(starts, g1)
        count = np.minimum(ends[k0:k1], g1) - np.maximum(starts[k0:k1], g0)
        n, both = _row_counts(np.repeat(per_pair[:, k0:k1], count, axis=1),
                              np.arange(g0, g1) - np.repeat(starts[k0:k1], count))
        at = np.cumsum(count) - count
        # The counts are integers well below 2**53, so these sums and the
        # ratio below round as overlap_error's Python integers did.
        inter[k0:k1] += np.add.reduceat(both, at)
        total[k0:k1] += np.add.reduceat(n[0] + n[1], at)
    union = total - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.minimum(1.0, np.maximum(0.0, 1.0 - inter / union))
    # Only reachable when the sample cap forced a pitch coarser than the
    # smaller region; such pairs are effectively disjoint at this scale.
    disjoint = np.where((centers1 == centers2).all(axis=1), 0.0, 1.0)
    err = np.where(gridded, np.where(union == 0, disjoint, err), np.nan)
    return np.where(settled, hi, err) if threshold is not None else err


@np.errstate(all="ignore")
def _error_bounds(centers, abc, per_pair, ny):
    """An interval [lo, hi] that holds the grid estimate of each pair, from
    the pair's regions and its _grid_constants alone, with no grid: two
    (K,) arrays, NaN where the premises below may fail.

    In grid units (pitch s, ny rows), with n and both the row kernel's
    counts and N_1, N_2 and I their sums over rows:
    - Per row.  Ellipse i's run [lo, end) has lo within 1 + delta of the
      exact low root at the row's sample height, and end within 1 + delta
      of the high root: m = rint(root -+ 1/2) is within 1/2 of root -+ 1/2,
      the one inside test moves an end by at most one column, and delta
      bounds the rounding of the kernel's roots.  So n differs from the
      exact chord length / s by at most c0 = 2 + 2 delta, and so does
      both from the intersection's chord, min and max being 1-Lipschitz.
    - Over rows.  A convex region's chord length is unimodal in y, so a sum
      of one sample per cell differs from the area / s^2 by at most twice
      its longest chord in columns (the chord's total variation); ellipse
      i's longest row chord is 2 / sqrt(a) px.  So |N_i - A_i/s^2| <= 2 L_i
      + c0 ny, and I >= A_I/s^2 - 2 min(L_1, L_2) - c0 ny, with A_I >=
      _area_bounds' lower bound.
    - The interval.  The estimate is 1 - I / (N_1 + N_2 - I), which grows
      with N_1 and N_2 and falls with I <= min(N_1, N_2), and the union is
      at least max(N_1, N_2); so hi = 1 - I_lo / (N1_hi + N2_hi - I_lo)
      when I_lo > 0, else 1, and lo = 1 - min(N1_hi, N2_hi) / max(N1_lo,
      N2_lo) when that denominator is positive, else 0.
    - Rounding.  The terms are widened by _area_bounds' margin mu, which
      covers the few operations that combine them, and lo and hi by 8
      units of roundoff at the end.
    - Scope.  Only a gridded pair whose margins are small is bounded: mu <=
      2^-20, and the rounding of its coordinates moves a sample or the box
      by at most 2^-10 s, so each sample stays in its cell and the box
      leaves slivers of at most that height outside the rows, which the
      2^-8 on the chord term covers.  Any other pair gets NaN.
    """
    u = np.finfo(float).eps / 2
    area_lo, area_hi, inter_lo, rel, mu = _area_bounds(centers, abc)
    hi_f, lo_f = 1.0 + mu, 1.0 - mu
    b_col, a0, d0 = per_pair[10:16].reshape(3, 2, -1)
    xmin, ymin, step = per_pair[20:]
    # delta: the rounding of the kernel's roots, in columns, over the
    # offsets |dy| <= (ny + 1) s of its rows
    dy_max = (ny + 1) * step
    p = a0 + d0 * dy_max * dy_max
    x = (np.abs(centers[:, :, 0]) + np.abs(xmin)) / step
    delta = np.sqrt((rel + 12 * u) * p) + 8 * u * (x + np.abs(b_col) * dy_max + np.sqrt(p) + 1.0)
    c0 = 2.0 + 2.0 * delta.max(axis=0)
    y = (np.abs(ymin) + dy_max) / step
    in_scope = ((0.0 <= mu) & (mu <= 2.0**-20)
                & (mu * ny + 8 * u * (x.max(axis=0) + y) <= 2.0**-10))

    cell = step * step
    # twice the longest row chord, 2 sqrt(a0) columns, and the slivers
    tv = 2.0 * (1.0 + 2.0**-8) * 2.0 * np.sqrt(a0)
    n_hi = (area_hi / cell + tv + c0 * ny) * hi_f
    n_lo = area_lo / cell * lo_f - (tv + c0 * ny) * hi_f
    i_lo = inter_lo / cell * lo_f - (tv.min(axis=0) + c0 * ny) * hi_f

    hi = np.where(i_lo > 0.0, 1.0 - i_lo / (n_hi[0] + n_hi[1] - i_lo), 1.0) + 8 * u
    top = n_lo.max(axis=0)
    lo = np.where(top > 0.0, 1.0 - n_hi.min(axis=0) / top, 0.0) - 8 * u
    ok = in_scope & (ny > 0) & np.isfinite(lo) & np.isfinite(hi)
    return (np.where(ok, np.maximum(lo, 0.0), np.nan), np.where(ok, np.minimum(hi, 1.0), np.nan))


@np.errstate(all="ignore")
def _area_bounds(centers, abc):
    """Enclosures of the exact areas of each pair's regions, and a lower
    bound of the area of their intersection, in px^2, for the regions of
    centers (2, K, 2) and abc (2, K, 3) as real numbers.

    Returns (area_lo, area_hi, inter_lo, rel, mu): the (2, K) enclosures of
    pi / sqrt(a c - b^2), the (K,) lower bound, the (2, K) relative error
    bounds of a c - b^2 as computed, and the (K,) relative margin of the
    pair.
    - Intersection.  In E1's whitened frame E1 is the unit disk, and E2
      holds the disk of radius 1/sqrt(lambda_max(M1^-1 M2)) about its
      center, which lies ||c2 - c1||_M1 from c1.  So the disk of radius r =
      min(1, 1/sqrt(lambda_max) - ||c2 - c1||_M1) about c1 lies in both,
      and A_I >= r^2 A_1.
    - Rounding.  mu is twice the relative error bounds of the subtractions
      that can cancel, a c - b^2 of each region and the trace of M1^-1 M2,
      plus 64 units of roundoff; every other operation rounds by a unit,
      so widening each result by mu covers them.  ||c2 - c1||_M1^2 gets an
      absolute bound, 8 units of the sum of its terms' magnitudes.  A
      pair with mu above about 2^-20 is left to the caller's scope.
    """
    u = np.finfo(float).eps / 2
    (cx, cy), (a, b, c) = np.moveaxis(centers, 2, 0), np.moveaxis(abc, 2, 0)
    ac, bb = a * c, b * b
    det = ac - bb
    rel = 3 * u * (np.abs(ac) + bb) / det
    (a1, a2), (b1, b2), (c1, c2) = a, b, c
    # M1^-1 M2 has trace t / det_1 and determinant det_2 / det_1
    t = a2 * c1 + a1 * c2 - 2.0 * b1 * b2
    rel_t = 4 * u * (np.abs(a2 * c1) + np.abs(a1 * c2) + 2.0 * np.abs(b1 * b2)) / np.abs(t)
    mu = 2.0 * (rel[0] + rel[1] + rel_t) + 64 * u
    hi_f, lo_f = 1.0 + mu, 1.0 - mu
    area = np.pi / np.sqrt(det)

    dx, dy = cx[1] - cx[0], cy[1] - cy[0]
    terms = a1 * dx * dx, 2.0 * b1 * dx * dy, c1 * dy * dy
    d2 = sum(terms) + 8 * u * sum(np.abs(term) for term in terms)
    trace, d = t / det[0] * hi_f, det[1] / det[0] * lo_f
    lam = (0.5 * trace + np.sqrt(np.maximum(0.25 * trace * trace - d, 0.0))) * hi_f
    r = np.minimum(1.0, lo_f / np.sqrt(lam) - np.sqrt(d2) * hi_f)
    inter = np.where(r > 0.0, r * r * area[0] * lo_f * lo_f, 0.0)
    return area * lo_f, area * hi_f, inter, rel, mu


def libm(fn, *arrays):
    """The math function fn applied element by element to float arrays of
    one shape, in that shape.

    Every transcendental that sets a bit of a dataset or a report is the C
    library's (Python's math module), through this one helper: numpy's
    vectorised log, cos, sin and hypot differ from libm's in the last bit
    on some inputs.  sqrt and the arithmetic are correctly rounded, so
    numpy computes those.
    """
    values = map(fn, *(x.ravel().tolist() for x in arrays))
    return np.fromiter(values, np.float64, arrays[0].size).reshape(arrays[0].shape)


@np.errstate(all="ignore")
def semiaxes(abc):
    """(major, minor) semiaxis lengths in pixels of each row (a, b, c) of
    abc (K, 3), 1 / sqrt of the eigenvalues of [[a, b], [b, c]].

    Both are NaN for a needle, whose smaller eigenvalue rounds to zero or
    below, which takes an axis ratio of about 1e8.
    """
    a, b, c = abc.T
    half_spread = libm(math.hypot, 0.5 * (a - c), b)
    lo, hi = 0.5 * (a + c) - half_spread, 0.5 * (a + c) + half_spread
    return np.where(lo > 0.0, [1.0 / np.sqrt(lo), 1.0 / np.sqrt(hi)], np.nan)


@np.errstate(over="ignore", invalid="ignore")
def half_extents(abc):
    """Half-widths (along x, along y) of the axis-aligned bounding box of
    each region (a, b, c) in the last axis of abc: sqrt(c / det) and
    sqrt(a / det), det = a c - b^2.  An a c that overflows does not warn."""
    a, b, c = np.moveaxis(abc, -1, 0)
    det = a * c - b * b
    return np.sqrt(c / det), np.sqrt(a / det)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _grid_constants(centers, abc, grid_step):
    """The overlap_error grid of each pair, as the row kernel's constants.

    centers (2, K, 2) and abc (2, K, 3) hold the first and second region of
    each pair.  Returns (per_pair, ny, gridded): the (23, K) constants that
    _row_counts reads, the number of grid rows of each pair, and the mask
    of the pairs with a grid.  Three rules leave a pair without one: a
    needle (semiaxes), a bounding box that is not finite, and a grid on
    which a product of the row kernel could overflow (below).  Together
    they cover every region that is not finite or not positive definite
    (region_checks), and no warning is raised.
    """
    if grid_step is not None and np.any(np.asarray(grid_step) <= 0):
        raise ValueError("grid_step must be positive")
    (cx, cy), (a, b, c) = np.moveaxis(centers, 2, 0), np.moveaxis(abc, 2, 0)
    half_w, half_h = half_extents(abc)
    xmin = np.minimum(*(cx - half_w))
    width = np.maximum(*(cx + half_w)) - xmin
    ymin = np.minimum(*(cy - half_h))
    height = np.maximum(*(cy + half_h)) - ymin

    # A disk of radius r always contains a cell center once the pitch is <= r,
    # so clamping at the smaller minor semiaxis keeps both counts nonzero;
    # the default pitch is below it already.
    minor = np.minimum(semiaxes(abc[0])[1], semiaxes(abc[1])[1])
    gridded = ~np.isnan(minor) & np.isfinite(width) & np.isfinite(height)
    step = np.minimum(0.1, minor / 100.0) if grid_step is None else np.minimum(grid_step, minor)
    # a box narrower than an ulp of its position still has its rows capped
    nx = np.maximum(np.ceil(width / step), 1.0)
    ny = np.ceil(height / step)
    # nx * ny rounds, but never across the cap; the few grids over it are
    # coarsened in Python integers, as overlap_error always did.
    for k in np.flatnonzero(gridded & ~(nx * ny <= MAX_OVERLAP_SAMPLES)).tolist():
        step[k], ny[k] = _coarsened(float(step[k]), float(width[k]), float(height[k]))

    # Row j of a grid, column k has its center at (xmin + (k + 0.5) * step,
    # ymin + (j + 0.5) * step); an ellipse covers columns lo <= k < end of
    # row j.  The cell nearest a root is m at the low end and m - 1 at the
    # end, its center column m + half in both cases; the run ends at m if
    # that cell passes the inside test, else one column inward.  x0 - half
    # is kept for each end, indexed [end, ellipse] like m.
    a_step = a * step
    b_col, a0, d0 = b / a_step, 1.0 / (a_step * step), (a * c - b * b) / (a_step * a_step)
    x0 = (cx - xmin) / step
    per_pair = np.concatenate(
        [cx, cy, a, c, 2.0 * b, b_col, a0, d0, x0 - 0.5, x0 + 0.5, [xmin, ymin, step]]
    )
    # The kernel's offsets from an ellipse center are at most dy_max and
    # dx_max (a run ends within a column of the chord), so each product it
    # forms, dy*dy, d0*dy^2, dx*dy and the terms of q, is at most its value
    # there.  Rounding moves an offset by an ulp or so of the grid's position
    # and leaves it 0 unless its bound is about half an ulp or more, so an
    # offset stays below 4 times its bound, and products below 1/16 of the
    # largest float cannot overflow; an under- or overflowed constant fails.
    dy_max = ny * step
    dx_max = (np.abs(b_col) * dy_max + np.sqrt(a0) + 1.0) * step
    worst = (np.maximum(dx_max, dy_max) ** 2, d0 * dy_max * dy_max,
             a * dx_max * dx_max + c * dy_max * dy_max + 2.0 * np.abs(b) * dx_max * dy_max)
    gridded &= (np.array(worst) <= np.finfo(float).max / 16).all(axis=(0, 1))
    return per_pair, np.where(gridded, ny, 0).astype(np.int64), gridded


def _coarsened(step, width, height):
    """(step, ny) of a finite width x height grid, its pitch coarsened until
    it has at most MAX_OVERLAP_SAMPLES cells.  A grid with more cells than
    a float counts starts over at MAX_OVERLAP_SAMPLES cells on its longer
    side."""
    try:
        while True:
            nx, ny = max(math.ceil(width / step), 1), math.ceil(height / step)
            if nx * ny <= MAX_OVERLAP_SAMPLES:
                return step, ny
            step *= math.sqrt(nx * ny / MAX_OVERLAP_SAMPLES) * 1.0001
    except OverflowError:
        return _coarsened(max(width, height) / MAX_OVERLAP_SAMPLES, width, height)


_HALF = np.array([0.5, -0.5])[:, None, None]


def _row_counts(rows, j):
    """The row kernel: (n, both) for R grid rows, row j[r] of the grid
    whose _grid_constants are rows[:, r].

    n[0] and n[1] count the cell centers of each row inside the first and
    second ellipse, both those inside the two.  A cell center is inside an
    ellipse when (a*dx*dx) + (c*dy*dy) + (2*b)*(dy*dx) <= 1 in floating
    point, (dx, dy) being its offset from the ellipse center.  In each row
    those cells form one run of columns between the two roots of that
    quadratic in dx, so the roots give the ends of the run and only the cell
    nearest each root is put to the test above.  Cost is O(1) per row, and
    the counts equal those of testing every cell.
    """
    cx, cy, a, c, b2, b_col, a0, d0, *x0 = rows[:20].reshape(10, 2, -1)
    xmin, ymin, step = rows[20:]
    # Explicit out= arguments keep numpy from eliding temporaries, which is
    # far slower on arrays this large; each value is the expression in the
    # comment above it, operation for operation.
    # dy = (ymin + (j + 0.5) * step) - cy; y - cy has the bits of (-cy) + y,
    # the offset every-cell sampling uses.
    dy = j + 0.5
    dy *= step
    dy += ymin
    dy = dy - cy
    # Roots at dx = (-b*dy -+ sqrt(a - det*dy^2)) / a, in columns
    # x0 - b_col*dy -+ sqrt(a0 - d0*dy^2); a row the ellipse misses gets an
    # empty run at its chord midpoint.  Rounding moves a root by far less
    # than half a column, which leaves the cell nearest it the only one in
    # doubt.
    # root = sqrt(max(a0 - d0 * (dy * dy), 0))
    root = np.multiply(dy, dy)
    root *= d0
    np.subtract(a0, root, out=root)
    np.maximum(root, 0.0, out=root)
    np.sqrt(root, out=root)
    # m = rint(x0 - b_col * dy + s * root), s = -1 at the low end, +1 at the end
    m = np.subtract(x0, b_col * dy)
    m[0] -= root
    m[1] += root
    np.rint(m, out=m)
    # dx = (xmin + (m + half) * step) - cx
    dx = np.add(m, _HALF)
    dx *= step
    dx += xmin
    dx -= cx
    # q = (a * dx * dx) + (c * dy * dy) + b2 * (dy * dx)
    q = np.multiply(a, dx)
    q *= dx
    cdy = np.multiply(c, dy)
    cdy *= dy
    q += cdy
    dx *= dy
    dx *= b2
    q += dx
    # lo, end = m - s * (q > 1)
    outside = q > 1.0
    lo, end = m
    lo += outside[0]
    end -= outside[1]

    n = np.maximum(end - lo, 0)
    both = np.maximum(np.minimum(end[0], end[1]) - np.maximum(lo[0], lo[1]), 0)
    return n, both
