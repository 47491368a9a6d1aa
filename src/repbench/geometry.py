"""Planar projective geometry for elliptical interest regions.

Regions are second-moment ellipses { p : (p - center)^T mu (p - center) <= 1 }
with a positive-definite 2x2 shape matrix mu in units of pixels^-2.  A ground
truth homography maps the reference image plane to the test image plane;
regions are carried between the two frames by the local affine linearization
(Jacobian) of that map, which is exact whenever the homography is affine.
The overlap error of two regions is estimated on a regular grid of cell
centers over their joint bounding box; the cells inside each ellipse are
counted row by row, as one run of columns per row, rather than one by one.
"""

import math

import numpy as np

from .errors import DegenerateRegion, PointAtInfinity, SingularHomography

# |w| below this in a projective division means the point is at infinity.
PROJECTIVE_EPS = 1e-12

# overlap_error never evaluates more than this many grid samples per pair.
MAX_OVERLAP_SAMPLES = 4_000_000

# pairwise_distances holds about this many coordinate differences at a time.
PAIRWISE_BLOCK_ELEMENTS = 1 << 16


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
        if np.linalg.det(m) == 0.0:
            raise SingularHomography("matrix has zero determinant")
        self.m = m
        self._inverse = None

    @classmethod
    def identity(cls):
        return cls(np.eye(3))

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
        if not all(map(math.isfinite, (*center.tolist(), a, b, b_low, c))):
            raise ValueError("ellipse center and shape must be finite")
        if abs(b_low - b) > 1e-9 * max(1.0, abs(b)):
            raise ValueError("shape matrix must be symmetric")
        if not (a > 0.0 and c > 0.0 and a * c - b * b > 0.0):
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
    def det(self):
        s = self.shape
        return s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]

    @property
    def area(self):
        return math.pi / math.sqrt(self.det)

    @property
    def equivalent_radius(self):
        """Radius of the circle with the same area."""
        return self.det ** -0.25

    def semiaxes(self):
        """(major, minor) semiaxis lengths in pixels."""
        (a, b), (_, c) = self.shape.tolist()
        half_spread = math.hypot(0.5 * (a - c), b)
        lo = 0.5 * (a + c) - half_spread
        hi = 0.5 * (a + c) + half_spread
        return 1.0 / math.sqrt(lo), 1.0 / math.sqrt(hi)

    def half_extents(self):
        """Half-widths of the axis-aligned bounding box (support along x and y)."""
        (a, b), (_, c) = self.shape.tolist()
        det = a * c - b * b
        return math.sqrt(c / det), math.sqrt(a / det)

    def scaled(self, factor):
        """Shape matrix multiplied by `factor` (region scales by 1/sqrt(factor))."""
        return SecondMomentEllipse(self.center, self.shape * factor)

    def __repr__(self):
        a, b, c = self.shape[0, 0], self.shape[0, 1], self.shape[1, 1]
        return (
            f"SecondMomentEllipse(({self.center[0]:g}, {self.center[1]:g}), "
            f"a={a:g}, b={b:g}, c={c:g})"
        )


def project_point(h, p):
    """Map a point through a homography, dividing out the homogeneous weight.

    Raises PointAtInfinity when |w| < PROJECTIVE_EPS.
    """
    x, y = float(p[0]), float(p[1])
    m = h.m
    w = m[2, 0] * x + m[2, 1] * y + m[2, 2]
    if abs(w) < PROJECTIVE_EPS:
        raise PointAtInfinity(f"point ({x:g}, {y:g}) maps to infinity")
    u = m[0, 0] * x + m[0, 1] * y + m[0, 2]
    v = m[1, 0] * x + m[1, 1] * y + m[1, 2]
    return np.array([u / w, v / w])


def project_points(h, pts):
    """Vectorized projection of an (N, 2) array.

    Returns (projected (N, 2) array, finite mask).  Rows whose homogeneous
    weight falls below PROJECTIVE_EPS are masked out instead of raising.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    hom = pts @ h.m[:, :2].T + h.m[:, 2]
    w = hom[:, 2]
    ok = np.abs(w) >= PROJECTIVE_EPS
    out = np.full_like(pts, np.nan)
    out[ok] = hom[ok, :2] / w[ok, None]
    return out, ok


def pairwise_distances(a, b):
    """(N, M) Euclidean distances between the rows of a (N, D) and b (M, D).

    Entry (i, j) is sqrt(((a[i] - b[j]) * (a[i] - b[j])).sum()), summed over
    the same contiguous D values as the broadcast a[:, None] - b[None], so
    every distance has the same bits as that expression.  The differences
    are held a block of rows at a time, about PAIRWISE_BLOCK_ELEMENTS values
    (at least one row), never all N*M*D at once.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, dim = a.shape
    m = len(b)
    out = np.empty((n, m))
    rows = max(1, PAIRWISE_BLOCK_ELEMENTS // max(1, m * dim))
    buf = np.empty((min(rows, n), m, dim))
    for i0 in range(0, n, rows):
        block = buf[: min(rows, n - i0)]
        np.subtract(a[i0 : i0 + rows, None, :], b[None], out=block)
        np.multiply(block, block, out=block)
        block.sum(axis=2, out=out[i0 : i0 + rows])
    return np.sqrt(out, out=out)


def indexed_distances(a, b, rows, cols):
    """Distances between a[rows[k]] and b[cols[k]] for each k.

    The same contiguous difference-squared sum as pairwise_distances, so
    each value has the bits of entry (rows[k], cols[k]) there.  The
    differences are held about PAIRWISE_BLOCK_ELEMENTS values at a time.
    """
    out = np.empty(len(rows))
    step = max(1, PAIRWISE_BLOCK_ELEMENTS // max(1, a.shape[1]))
    for k0 in range(0, len(rows), step):
        diff = a[rows[k0 : k0 + step]] - b[cols[k0 : k0 + step]]
        np.multiply(diff, diff, out=diff)
        diff.sum(axis=1, out=out[k0 : k0 + step])
    return np.sqrt(out, out=out)


def homography_jacobian(h, p):
    """Exact 2x2 Jacobian of the projective map at point p.

    For the rational map (u/w, v/w) the partials are
    d(u/w)/dx = (u_x * w - u * w_x) / w^2 and so on.
    """
    x, y = float(p[0]), float(p[1])
    m = h.m
    u = m[0, 0] * x + m[0, 1] * y + m[0, 2]
    v = m[1, 0] * x + m[1, 1] * y + m[1, 2]
    w = m[2, 0] * x + m[2, 1] * y + m[2, 2]
    if abs(w) < PROJECTIVE_EPS:
        raise PointAtInfinity(f"point ({x:g}, {y:g}) maps to infinity")
    w2 = w * w
    return np.array(
        [
            [(m[0, 0] * w - u * m[2, 0]) / w2, (m[0, 1] * w - u * m[2, 1]) / w2],
            [(m[1, 0] * w - v * m[2, 0]) / w2, (m[1, 1] * w - v * m[2, 1]) / w2],
        ]
    )


def map_region_to_reference(h, ref_center, test_region):
    """Carry a test-frame region into the reference frame.

    The shape matrix is transported by the quadratic form A^T mu A with
    A = homography_jacobian(h, ref_center); the center is mapped projectively
    through the inverse homography.  Exact when h is affine.
    """
    a = homography_jacobian(h, ref_center)
    shape = a.T @ test_region.shape @ a
    center = project_point(h.inverse(), test_region.center)
    try:
        return SecondMomentEllipse(center, 0.5 * (shape + shape.T))
    except DegenerateRegion as exc:
        raise DegenerateRegion(
            f"Jacobian at ({float(ref_center[0]):g}, {float(ref_center[1]):g}) "
            f"degenerates the region: {exc}"
        ) from exc


def normalize_pair(ref, test, target_radius):
    """Rescale both shape matrices by the one factor that gives the reference
    region the area of a circle of radius `target_radius`.  Centers unchanged.
    """
    if target_radius <= 0:
        raise ValueError("target_radius must be positive")
    # area(s^2 * mu_ref) = pi * target_radius^2  =>  s^2 = 1 / (r^2 sqrt(det))
    s2 = 1.0 / (target_radius * target_radius * math.sqrt(ref.det))
    return ref.scaled(s2), test.scaled(s2)


def default_grid_step(e1, e2):
    """Default overlap sampling pitch: min(0.1 px, smallest minor semiaxis / 100)."""
    minor = min(e1.semiaxes()[1], e2.semiaxes()[1])
    return min(0.1, minor / 100.0)


def overlap_error(e1, e2, grid_step):
    """1 - |e1 n e2| / |e1 u e2| with areas estimated on a shared regular grid.

    The grid covers the joint bounding box of the two ellipses at pitch
    `grid_step` and samples cell centers, so the estimate is deterministic and
    symmetric in its arguments.  The pitch is clamped so that each region is
    guaranteed at least one sample and the total sample count stays below
    MAX_OVERLAP_SAMPLES.  The cell centers are counted row by row (see
    `overlap_row_counts`).  Result clamped to [0, 1].
    """
    n, both = overlap_row_counts(e1, e2, grid_step)
    inter = int(both.sum())
    union = int(n.sum()) - inter
    if union == 0:
        # Only reachable when the sample cap forced a pitch coarser than the
        # smaller region; such pairs are effectively disjoint at this scale.
        return 0.0 if np.array_equal(e1.center, e2.center) else 1.0
    return min(1.0, max(0.0, 1.0 - inter / union))


def overlap_row_counts(e1, e2, grid_step):
    """Per-row cell counts of the overlap_error grid.

    Returns (n, both): n[0] and n[1] count the cell centers inside e1 and e2
    in each row, both those inside the two.  A cell center is inside an
    ellipse when (a*dx*dx) + (c*dy*dy) + (2*b)*(dy*dx) <= 1 in floating
    point, (dx, dy) being its offset from the ellipse center.  In each row
    those cells form one run of columns between the two roots of that
    quadratic in dx, so the roots give the ends of the run and only the cell
    nearest each root is put to the test above.  Cost is O(rows), and the
    counts equal those of testing every cell.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")

    w1, h1 = e1.half_extents()
    w2, h2 = e2.half_extents()
    (x1, y1), (x2, y2) = e1.center.tolist(), e2.center.tolist()
    xmin = min(x1 - w1, x2 - w2)
    xmax = max(x1 + w1, x2 + w2)
    ymin = min(y1 - h1, y2 - h2)
    ymax = max(y1 + h1, y2 + h2)

    # A disk of radius r always contains a cell center once the pitch is <= r,
    # so clamping at the smaller minor semiaxis keeps both counts nonzero.
    minor = min(e1.semiaxes()[1], e2.semiaxes()[1])
    step = min(grid_step, minor)
    nx = math.ceil((xmax - xmin) / step)
    ny = math.ceil((ymax - ymin) / step)
    while nx * ny > MAX_OVERLAP_SAMPLES:
        step *= math.sqrt(nx * ny / MAX_OVERLAP_SAMPLES) * 1.0001
        nx = math.ceil((xmax - xmin) / step)
        ny = math.ceil((ymax - ymin) / step)

    # Row j, column k has its center at (xmin + (k + 0.5) * step,
    # ymin + (j + 0.5) * step); an ellipse covers columns lo <= k < end of
    # row j.  The arrays below are indexed [lo of e1, lo of e2, end of e1,
    # end of e2][row], one root each.  The cell nearest the root is m at lo
    # and m - 1 at end, its center column m + half_cell in both cases; the
    # run ends at m if that cell passes the inside test, else one column
    # inward (s is the outward direction).
    per_ellipse = []
    for e in (e1, e2):
        (cx, cy), ((a, b), (_, c)) = e.center.tolist(), e.shape.tolist()
        a_step = a * step
        per_ellipse.append(
            [cx, -cy, a, c, 2.0 * b, b / a_step, 1.0 / (a_step * step),
             (a * c - b * b) / (a_step * a_step), (cx - xmin) / step]
        )
    slots = np.array(
        [
            p[:-1] + [p[-1] - half_cell, s, half_cell]
            for s, half_cell in ((-1.0, 0.5), (1.0, -0.5))
            for p in per_ellipse
        ]
    )
    cx, _, a, c, b2, b_col, a0, d0, x0, s, half_cell = (
        slots.T.repeat(ny, axis=1).reshape(-1, 4, ny)
    )
    # (-cy) + y is y - cy exactly, so dy is the offset every-cell sampling uses.
    dy = np.add.outer(slots[:, 1], ymin + np.arange(0.5, ny) * step)
    # Roots at dx = (-b*dy -+ sqrt(a - det*dy^2)) / a, in columns
    # x0 - b_col*dy + s*sqrt(a0 - d0*dy^2); a row the ellipse misses gets an
    # empty run at its chord midpoint.  Rounding moves a root by far less
    # than half a column, which leaves the cell nearest it the only one in
    # doubt.
    disc = np.maximum(a0 - d0 * (dy * dy), 0.0)
    m = np.rint(x0 - b_col * dy + s * np.sqrt(disc))
    dx = (xmin + (m + half_cell) * step) - cx
    q = (a * dx * dx) + (c * dy * dy) + b2 * (dy * dx)
    lo, end = (m - s * (q > 1.0)).reshape(2, 2, ny)

    n = np.maximum(end - lo, 0)
    both = np.maximum(np.minimum(end[0], end[1]) - np.maximum(lo[0], lo[1]), 0)
    return n, both
