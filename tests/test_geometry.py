import ast
import math
import pathlib
import re
import warnings

import numpy as np
import pytest

import repbench
from repbench.errors import DegenerateRegion, SingularHomography
from repbench.geometry import (
    Homography,
    SecondMomentEllipse,
    homography_jacobians,
    in_image,
    libm,
    overlap_error,
    project_points,
    transport_shapes,
)
from repbench.metrics import EvalConfig, region_overlap_error

from oracle import default_grid_step, normalize_pair


def random_homography(rng, projective=True):
    while True:
        m = np.eye(3) + rng.normal(0, 0.3, (3, 3))
        if projective:
            m[2, :2] = rng.normal(0, 1e-3, 2)
        else:
            m[2, :2] = 0.0
        m[2, 2] = 1.0
        if abs(np.linalg.det(m)) > 1e-3:
            return Homography(m)


def random_ellipse(rng, span=20.0):
    center = rng.uniform(-span, span, 2)
    a = rng.uniform(0.5, 4.0, 2)
    theta = rng.uniform(0, np.pi)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    shape = rot @ np.diag(1.0 / a**2) @ rot.T
    return SecondMomentEllipse(center, 0.5 * (shape + shape.T))


def project(h, pts):
    """project_points of finite images only: the projected (K, 2) array."""
    out, ok = project_points(h, pts)
    assert ok.all()
    return out


def map_region(h, ref_center, test_region):
    """test_region carried into the reference frame as metrics carries a
    candidate: its center through h^-1, its shape by the Jacobian of h at
    ref_center; a SecondMomentEllipse."""
    jac, _, at_infinity = homography_jacobians(h, np.reshape(ref_center, (1, 2)))
    center = project(h.inverse(), test_region.center[None])
    assert not at_infinity[0]
    abc = transport_shapes(jac, test_region.abc[None])
    return SecondMomentEllipse.from_abc(*center[0], *abc[0])


def boundary_points(e, n=256):
    """Points satisfying (p - c)^T mu (p - c) = 1, via the shape's inverse
    Cholesky-like factorization."""
    vals, vecs = np.linalg.eigh(e.shape)
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    unit = np.stack([np.cos(t), np.sin(t)], axis=1)
    return e.center + (unit / np.sqrt(vals)) @ vecs.T


class TestHomography:
    def test_rejects_singular(self):
        with pytest.raises(SingularHomography):
            Homography(np.array([[1.0, 0, 0], [0, 1, 0], [1, 1, 0]]))

    def test_inverse_computed_once(self):
        h = random_homography(np.random.default_rng(3))
        inv = h.inverse()
        assert h.inverse() is inv
        assert np.array_equal(inv.m, np.linalg.inv(h.m))

    def test_overflowing_determinant_accepted_without_warning(self):
        m = 1e150 * np.eye(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = Homography(m)
        assert np.array_equal(h.m, m)

    # homographies are defined up to scale, and so is the singularity test:
    # at the extremes det(k m) under- or overflows although m is regular
    @pytest.mark.parametrize("k", [1e-150, 1e-120, 1.0, 1e150])
    def test_singularity_does_not_depend_on_scale(self, k):
        m = random_homography(np.random.default_rng(5)).m
        for regular in (np.eye(3), m):
            h = Homography(k * regular)
            assert np.array_equal(h.m, k * regular)
            assert np.array_equal(h.inverse().m, np.linalg.inv(k * regular))
        with pytest.raises(SingularHomography):
            Homography(k * np.array([[1.0, 0, 0], [0, 1, 0], [1, 1, 0]]))

    def test_rejects_bad_shape_and_nonfinite(self):
        with pytest.raises(ValueError):
            Homography(np.eye(2))
        with pytest.raises(ValueError):
            Homography(np.full((3, 3), np.nan))

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = random_homography(rng)
            p = rng.uniform(-5, 5, (20, 2))
            back = project(h.inverse(), project(h, p))
            assert np.allclose(back, p, atol=1e-9)

    def test_compose(self):
        rng = np.random.default_rng(4)
        h1, h2 = random_homography(rng), random_homography(rng)
        p = np.array([1.7, -2.2])
        direct = project(h1 @ h2, p)
        chained = project(h1, project(h2, p))
        assert np.allclose(direct, chained, atol=1e-9)


class TestProjection:
    def test_affine_map_known_values(self):
        h = Homography(np.array([[2.0, 0, 3], [0, 0.5, -1], [0, 0, 1]]))
        assert np.allclose(project(h, (1, 4)), [(5.0, 1.0)])

    def test_point_at_infinity(self):
        h = Homography(np.array([[1.0, 0, 0], [0, 1, 0], [-1, 0, 1]]))
        out, ok = project_points(h, (1.0, 0.0))
        assert not ok[0] and np.isnan(out[0]).all()
        _, _, at_infinity = homography_jacobians(h, np.array([(1.0, 0.0)]))
        assert at_infinity[0]

    def test_vectorized_matches_scalar(self):
        # each row has the bits of projecting that point alone, in Python floats
        rng = np.random.default_rng(5)
        h = random_homography(rng)
        pts = rng.uniform(-20, 20, (40, 2))
        out = project(h, pts)
        m = h.m.tolist()
        for (x, y), q in zip(pts.tolist(), out.tolist()):
            w = m[2][0] * x + m[2][1] * y + m[2][2]
            assert q == [(m[0][0] * x + m[0][1] * y + m[0][2]) / w,
                         (m[1][0] * x + m[1][1] * y + m[1][2]) / w]
            assert project(h, (x, y)).tolist() == [q]

    def test_vectorized_masks_infinity(self):
        h = Homography(np.array([[1.0, 0, 0], [0, 1, 0], [-1, 0, 1]]))
        out, ok = project_points(h, [(1.0, 0.0), (0.5, 0.0)])
        assert not ok[0] and ok[1]

    # |w| is compared with PROJECTIVE_EPS * max|m|, so k * H puts the same
    # points at infinity as H: here the horizon x = 1 and w = 1e-13 beside it
    @pytest.mark.parametrize("k", [1e-120, 1e-13, 1.0, 1e150])
    def test_at_infinity_does_not_depend_on_scale(self, k):
        h = Homography(k * np.array([[1.0, 0, 0], [0, 1, 0], [-1, 0, 1]]))
        pts = np.array([(1.0, 0.0), (1.0 - 1e-13, 0.0), (1.0 - 1e-11, 0.0), (0.5, 7.0)])
        _, ok = project_points(h, pts)
        _, _, at_infinity = homography_jacobians(h, pts)
        assert ok.tolist() == [False, False, True, True]
        assert at_infinity.tolist() == [True, True, False, False]

    def test_in_image_includes_the_boundary_and_drops_nan(self):
        pts = np.array([(0.0, 0.0), (800.0, 640.0), (800.0, 0.0), (-1e-300, 5.0),
                        (5.0, np.nextafter(640.0, np.inf)), (np.nan, 5.0), (5.0, np.inf)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside = in_image(pts, 800, 640)
        assert inside.tolist() == [True, True, True, False, False, False, False]


class TestJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        eps = 1e-6
        for _ in range(50):
            h = random_homography(rng)
            p = rng.uniform(-10, 10, (1, 2))
            jac, _, at_infinity = homography_jacobians(h, p)
            if at_infinity[0]:
                continue
            fd = np.zeros((2, 2))
            for k, d in enumerate([(eps, 0.0), (0.0, eps)]):
                fd[:, k] = (project(h, p + d)[0] - project(h, p - d)[0]) / (2 * eps)
            assert np.allclose(jac[0], fd, atol=1e-6), (jac[0], fd)

    def test_affine_jacobian_is_linear_part(self):
        h = Homography(np.array([[2.0, 1.0, 5], [0.5, 3.0, -2], [0, 0, 1]]))
        jac, _, _ = homography_jacobians(h, np.array([(123.0, -45.0)]))
        assert np.array_equal(jac[0], np.array([[2.0, 1.0], [0.5, 3.0]]))


class TestEllipse:
    def test_from_abc_and_properties(self):
        e = SecondMomentEllipse.from_abc(3.0, 4.0, 0.25, 0.0, 0.25)
        # a circle of radius 2
        assert np.allclose(e.center, (3, 4))
        assert e.abc.tolist() == [0.25, 0.0, 0.25]
        assert e.semiaxes() == (2.0, 2.0)
        assert e.half_extents() == (2.0, 2.0)

    @pytest.mark.parametrize(
        "center, shape, message",
        [((0.0, 0.0, 0.0), np.eye(2), "center must have shape (2,)"),
         ((0.0, 0.0), np.eye(3), "shape matrix must be 2x2"),
         ((0.0, math.nan), np.eye(2), "ellipse center and shape must be finite"),
         ((0.0, 0.0), [[1.0, 0.5], [0.0, 1.0]], "shape matrix must be symmetric")],
    )
    def test_rejects_malformed_center_and_shape(self, center, shape, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SecondMomentEllipse(center, shape)

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_circle_rejects_non_positive_radius(self, radius):
        with pytest.raises(ValueError, match="radius must be positive"):
            SecondMomentEllipse.circle(0.0, 0.0, radius)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(DegenerateRegion):
            SecondMomentEllipse.from_abc(0, 0, 1.0, 2.0, 1.0)
        with pytest.raises(DegenerateRegion):
            SecondMomentEllipse.from_abc(0, 0, -1.0, 0.0, 1.0)

    def test_semiaxes_against_eigen_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            e = random_ellipse(rng)
            major, minor = e.semiaxes()
            vals = np.linalg.eigvalsh(e.shape)
            assert math.isclose(major, 1.0 / math.sqrt(vals[0]), rel_tol=1e-10)
            assert math.isclose(minor, 1.0 / math.sqrt(vals[1]), rel_tol=1e-10)
            assert major >= minor

    def test_half_extents_bound_boundary(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            e = random_ellipse(rng)
            wx, wy = e.half_extents()
            pts = boundary_points(e, 512) - e.center
            assert np.max(np.abs(pts[:, 0])) <= wx * (1 + 1e-9)
            assert np.max(np.abs(pts[:, 1])) <= wy * (1 + 1e-9)
            # the bound is attained
            assert np.max(np.abs(pts[:, 0])) > wx * 0.999
            assert np.max(np.abs(pts[:, 1])) > wy * 0.999


class TestRegionTransport:
    def test_affine_transport_is_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            h = random_homography(rng, projective=False)
            test_region = random_ellipse(rng, span=5.0)
            ref_center = project(h.inverse(), test_region.center)
            mapped = map_region(h, ref_center, test_region)
            # boundary points of the test region land on the mapped boundary
            for q in project(h.inverse(), boundary_points(test_region, 64)) - mapped.center:
                val = q @ mapped.shape @ q
                assert math.isclose(val, 1.0, rel_tol=1e-10, abs_tol=1e-10)

    def test_projective_transport_is_first_order(self):
        # with a mild projective part the linearization stays close
        h = Homography(
            np.array([[1.1, 0.05, 3.0], [-0.04, 0.95, 1.0], [1e-5, -2e-5, 1.0]])
        )
        test_region = SecondMomentEllipse.from_abc(210.0, 190.0, 0.04, 0.005, 0.06)
        ref_center = project(h.inverse(), test_region.center)
        mapped = map_region(h, ref_center, test_region)
        for q in project(h.inverse(), boundary_points(test_region, 32)) - mapped.center:
            assert abs(q @ mapped.shape @ q - 1.0) < 1e-2

    def test_identity_transport_returns_same_region(self):
        e = random_ellipse(np.random.default_rng(11))
        mapped = map_region(Homography.identity(), e.center, e)
        assert np.allclose(mapped.center, e.center, atol=1e-12)
        assert np.allclose(mapped.shape, e.shape, atol=1e-12)


def lens_iou(d):
    """Closed-form IoU of two unit circles with centers d apart."""
    if d >= 2.0:
        return 0.0
    lens = 2.0 * math.acos(d / 2.0) - (d / 2.0) * math.sqrt(4.0 - d * d)
    return lens / (2.0 * math.pi - lens)


class TestOverlapError:
    def test_identical_regions_zero(self):
        e = random_ellipse(np.random.default_rng(12))
        assert overlap_error(e, e, 0.05) == 0.0

    def test_disjoint_regions_one(self):
        e1 = SecondMomentEllipse.circle(0, 0, 1.0)
        e2 = SecondMomentEllipse.circle(10, 0, 1.0)
        assert overlap_error(e1, e2, 0.02) == 1.0

    def test_concentric_circles(self):
        for k in (1.5, 2.0, 3.0):
            e1 = SecondMomentEllipse.circle(7, -3, 10.0)
            e2 = SecondMomentEllipse.circle(7, -3, 10.0 * k)
            err = overlap_error(e1, e2, 0.05)
            assert abs(err - (1.0 - 1.0 / k**2)) < 1e-3

    def test_offset_circles_lens_oracle(self):
        for d in (0.5, 1.0, 1.5):
            e1 = SecondMomentEllipse.circle(0, 0, 1.0)
            e2 = SecondMomentEllipse.circle(d, 0, 1.0)
            err = overlap_error(e1, e2, 0.002)
            assert abs(err - (1.0 - lens_iou(d))) < 1e-3

    def test_swap_symmetry_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            e1 = random_ellipse(rng, span=3.0)
            e2 = random_ellipse(rng, span=3.0)
            assert overlap_error(e1, e2, 0.1) == overlap_error(e2, e1, 0.1)

    def test_result_in_unit_interval(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            err = overlap_error(random_ellipse(rng), random_ellipse(rng), 0.2)
            assert 0.0 <= err <= 1.0

    def test_rejects_bad_step(self):
        e = SecondMomentEllipse.circle(0, 0, 1.0)
        with pytest.raises(ValueError):
            overlap_error(e, e, 0.0)

    def test_sample_cap_respected(self):
        # enormous spread forces the pitch clamp; still returns a value
        e1 = SecondMomentEllipse.circle(0, 0, 1.0)
        e2 = SecondMomentEllipse.circle(1e5, 0, 1.0)
        assert overlap_error(e1, e2, 0.001) == 1.0


def equivalent_radius(e):
    """Radius of the circle with the area of region e."""
    (a, b), (_, c) = e.shape.tolist()
    return (a * c - b * b) ** -0.25


def scaled(e, factor):
    """Region e with its shape matrix multiplied by `factor`."""
    return SecondMomentEllipse(e.center, e.shape * factor)


# normalize_pair and default_grid_step are the oracle's scalar copies of the
# rescaling and pitch that metrics._overlap_errors applies to arrays
class TestNormalizePair:
    def test_reference_reaches_target_radius(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            ref, test = random_ellipse(rng), random_ellipse(rng)
            nref, ntest = normalize_pair(ref, test, 30.0)
            assert math.isclose(equivalent_radius(nref), 30.0, rel_tol=1e-12)
            assert np.array_equal(nref.center, ref.center)
            assert np.array_equal(ntest.center, test.center)

    def test_relative_scale_preserved(self):
        rng = np.random.default_rng(16)
        ref, test = random_ellipse(rng), random_ellipse(rng)
        nref, ntest = normalize_pair(ref, test, 30.0)
        before = equivalent_radius(test) / equivalent_radius(ref)
        after = equivalent_radius(ntest) / equivalent_radius(nref)
        assert math.isclose(before, after, rel_tol=1e-12)

    def test_normalized_overlap_ignores_detection_scale(self):
        # shrinking both regions by the same power-of-two factor (centers
        # fixed) normalizes to bit-identical shapes, hence identical error
        ref = SecondMomentEllipse.circle(0, 0, 4.0)
        test = SecondMomentEllipse.from_abc(1.0, -0.5, 0.05, 0.01, 0.08)
        small_ref = scaled(ref, 4.0)  # halves the radius
        small_test = scaled(test, 4.0)
        a1, b1 = normalize_pair(ref, test, 30.0)
        a2, b2 = normalize_pair(small_ref, small_test, 30.0)
        assert np.array_equal(a1.shape, a2.shape)
        assert np.array_equal(b1.shape, b2.shape)
        assert overlap_error(a1, b1, 1.0) == overlap_error(a2, b2, 1.0)

    def test_rejects_bad_radius(self):
        e = SecondMomentEllipse.circle(0, 0, 1.0)
        with pytest.raises(ValueError):
            normalize_pair(e, e, 0.0)


def test_default_grid_step_bounds():
    small = SecondMomentEllipse.circle(0, 0, 0.5)
    big = SecondMomentEllipse.circle(0, 0, 50.0)
    assert default_grid_step(big, big) == 0.1
    assert default_grid_step(small, big) == pytest.approx(0.005)


# With normalisation on, a power-of-two factor on both shape matrices scales
# the transported shape and the rescaling factor exactly: the error keeps its bits.
@pytest.mark.parametrize("factor", [4.0, 2.0**-10, 2.0**20])
def test_normalized_region_overlap_error_ignores_detection_scale(factor):
    rng = np.random.default_rng(17)
    h = Homography(np.array([[1.1, 0.05, 3.0], [-0.04, 0.95, 1.0], [1e-5, -2e-5, 1.0]]))
    for _ in range(10):
        ref, test = random_ellipse(rng, span=2.0), random_ellipse(rng, span=1.0)
        test = SecondMomentEllipse(project(h, ref.center)[0] + test.center, test.shape)
        want = region_overlap_error(ref, test, h, EvalConfig())
        assert 0.0 < want < 1.0
        assert region_overlap_error(scaled(ref, factor), scaled(test, factor), h, EvalConfig()) == want


class TestLibm:
    @pytest.mark.parametrize("shape", [(), (7,), (3, 4), (0,), (0, 3)])
    @pytest.mark.parametrize("fn", [math.log, math.cos, math.sin, math.hypot])
    def test_bits_and_shape_of_elementwise_math(self, fn, shape):
        rng = np.random.default_rng(5)
        arrays = [rng.uniform(1e-3, 50.0, shape) for _ in range(2 if fn is math.hypot else 1)]
        want = np.empty(shape)
        for idx in np.ndindex(shape):
            want[idx] = fn(*(float(x[idx]) for x in arrays))
        got = libm(fn, *arrays)
        assert got.dtype == np.float64 and got.shape == shape
        assert got.tobytes() == want.tobytes()

    def test_strided_input(self):
        x = np.arange(12.0).reshape(3, 4).T[:, ::2] + 0.5
        assert libm(math.log, x).tolist() == [[math.log(v) for v in row] for row in x.tolist()]


# numpy's vectorised transcendentals (and power, which may go through exp
# and log) differ from libm's in the last bit on some inputs; sqrt is
# correctly rounded, so it stays allowed.
NUMPY_TRANSCENDENTALS = {
    "sin", "cos", "tan", "log", "log1p", "log2", "log10", "exp", "exp2", "expm1",
    "hypot", "arcsin", "arccos", "arctan", "arctan2", "power",
}


def test_src_has_no_numpy_transcendental():
    found = []
    for path in sorted(pathlib.Path(repbench.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in NUMPY_TRANSCENDENTALS
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                found.append(f"{path.name}:{node.lineno} np.{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                found += [f"{path.name}:{node.lineno} from numpy import {a.name}"
                          for a in node.names if a.name in NUMPY_TRANSCENDENTALS]
    assert found == []
