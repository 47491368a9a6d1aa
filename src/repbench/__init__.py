"""repbench: repeatability benchmarking of local feature detectors under
ground-truth homographies.

The package measures how reliably a detector refires on the same scene
structure across views: elliptical regions are carried between images by a
known homography, matched one-to-one under a center-distance and
region-overlap predicate, and summarized by three repeatability rates that
share a numerator and differ in their denominators.  Descriptor matching
verified against the homography provides the companion true-match series,
and the stats layer correlates the two.
"""

__version__ = "0.1.0"
