"""
Region overlap error on elliptical keypoint regions
====================================================

Two detections correspond when their regions overlap well after mapping
into a common frame.  This demo walks the overlap error (1 - IoU) through
a few hand-checkable configurations and shows what the scale
normalization step does to it.
"""

import numpy as np

from repbench.geometry import Homography, SecondMomentEllipse, overlap_error
from repbench.metrics import EvalConfig, region_overlap_error

# concentric circles: a circle of radius r against one of radius kr keeps
# a fraction 1/k^2 of the union, so the error is 1 - 1/k^2
print("concentric circles, radius 10 vs 10k")
for k in (1.2, 1.5, 2.0, 3.0):
    a = SecondMomentEllipse.circle(0, 0, 10.0)
    b = SecondMomentEllipse.circle(0, 0, 10.0 * k)
    err = overlap_error(a, b, 0.05)
    print(f"  k={k:.1f}  measured={err:.4f}  closed form={1 - 1 / k**2:.4f}")

# two unit circles drifting apart
print("unit circles at center distance d")
for d in (0.0, 0.5, 1.0, 1.5, 2.0):
    a = SecondMomentEllipse.circle(0, 0, 1.0)
    b = SecondMomentEllipse.circle(d, 0, 1.0)
    err = overlap_error(a, b, 0.005)
    print(f"  d={d:.1f}  error={err:.4f}")

# raw IoU is a pure ratio: blowing up the whole configuration (regions and
# center miss together) leaves the error unchanged, so detectors that emit
# huge regions get their center misses excused.  Normalization rescales
# both regions so the reference has radius 30 while the center miss keeps
# its pixel size, restoring the penalty at large detection scales.
print("normalization stops region size from excusing center misses")
h = Homography(np.eye(3))
raw = EvalConfig(normalize_radius=None, grid_step=0.05)
normalized = EvalConfig(normalize_radius=30.0, grid_step=0.05)
for scale in (1.0, 4.0, 16.0):
    ref = SecondMomentEllipse.circle(100, 100, 2.0 * scale)
    # the test region misses by half a reference radius at 1.3x the size
    test = SecondMomentEllipse.circle(100 + scale, 100, 2.6 * scale)
    print(
        f"  base radius {2 * scale:5.1f}px, miss {scale:4.1f}px"
        f"  raw={region_overlap_error(ref, test, h, raw):.4f}"
        f"  normalized={region_overlap_error(ref, test, h, normalized):.4f}"
    )
