"""Pearson correlation with exact two-tailed p-values, plus the small
aggregation helpers used by the reporting layer.

The p-value is the standard t-test for H0: rho = 0,

    t = r * sqrt((n - 2) / (1 - r^2)),  df = n - 2,
    p = I_x(df/2, 1/2)  with  x = df / (df + t^2),

where I_x is the regularized incomplete beta function, evaluated here by the
modified Lentz continued fraction so the package has no runtime dependency on
a stats library for this path.
"""

import math

import numpy as np

_BETA_TOL = 1e-12
_BETA_MAX_ITER = 400


def pearson_r(xs, ys) -> float | None:
    """Sample Pearson correlation coefficient, clamped to [-1, 1], or None
    when it is undefined: fewer than 3 points, or a constant series."""
    x = np.asarray(xs, dtype=float).ravel()
    y = np.asarray(ys, dtype=float).ravel()
    if len(x) != len(y):
        raise ValueError(f"series lengths differ: {len(x)} vs {len(y)}")
    if len(x) < 3:
        return None
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("series values must be finite")
    dx = _below_one(x - x.mean())
    dy = _below_one(y - y.mean())
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    # equal floats need not average to themselves (0.1 three times), so a
    # constant series is told by its values; tiny sums of squares underflow
    if x.min() == x.max() or y.min() == y.max() or sxx * syy == 0.0:
        return None
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def _below_one(d):
    """d scaled by a power of two so that its largest magnitude is below 1,
    or d itself when it is already: pearson_r's sums of squares and
    products then cannot overflow.  Scaling by 2^k is exact, so r keeps
    its bits wherever the unscaled sums were finite and normal."""
    _, e = math.frexp(float(np.abs(d).max()))
    return np.ldexp(d, -e) if e > 0 else d


def _betacf(a, b, x):
    # Continued fraction for the incomplete beta (modified Lentz).
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def betainc_regularized(a, b, x) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only on one side of the mean;
    # use the reflection I_x(a,b) = 1 - I_{1-x}(b,a) on the other.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def p_value_two_tailed(r, n) -> float | None:
    """Exact two-tailed p-value for a Pearson r under H0: rho = 0, or None
    for n < 3."""
    if n < 3:
        return None
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"correlation out of range: {r}")
    if abs(r) == 1.0:
        return 0.0
    df = n - 2
    t2 = r * r * df / (1.0 - r * r)
    x = df / (df + t2)
    return min(1.0, max(0.0, betainc_regularized(df / 2.0, 0.5, x)))


def correlate(xs, ys):
    """Pearson r, its two-tailed p-value and n, as the correlation cell of a
    sequence report: the dict {"r", "p_value", "n"}, keys in that order, or
    None when r is undefined (pearson_r)."""
    x = np.asarray(xs, dtype=float).ravel()
    r = pearson_r(x, ys)
    if r is None:
        return None
    return {"r": r, "p_value": p_value_two_tailed(r, len(x)), "n": len(x)}


def summarize(values):
    """(mean, sample std) of a list of reals; the std of a single value is
    None, since a sample std needs two, and both are None for no values."""
    v = np.asarray(values, dtype=float).ravel()
    if len(v) == 0:
        return None, None
    mean = float(v.mean())
    if len(v) == 1:
        return mean, None
    return mean, float(v.std(ddof=1))


def check_thresholds(bins):
    """`bins` as a list of floats; ValueError unless strictly ascending in (0, 1)."""
    bins = [float(b) for b in bins]
    if any(not 0.0 < b < 1.0 for b in bins):
        raise ValueError("thresholds must lie strictly inside (0, 1)")
    if any(b2 <= b1 for b1, b2 in zip(bins, bins[1:])):
        raise ValueError("thresholds must be strictly ascending")
    return bins


def bin_scores(mean_scores, bins):
    """Rate each score by the number of thresholds it clears.

    `bins` is a strictly ascending list of thresholds in (0, 1); the rating is
    1 + the count of thresholds strictly below the score, rendered as that
    many '+' characters, so with no thresholds every entry rates "+".
    """
    scores = {key: float(v) for key, v in mean_scores.items()}
    if any(not math.isfinite(v) for v in scores.values()):
        raise ValueError("scores must be finite")
    bins = check_thresholds(bins)
    return {
        key: "+" * (1 + sum(1 for b in bins if b < score))
        for key, score in scores.items()
    }
