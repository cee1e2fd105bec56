"""Degree distribution summaries and discrete power-law tail fits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graph import Graph

DEFAULT_DMIN = 3


@dataclass(frozen=True, eq=False)
class DegreeDistribution:
    """Observed degree frequencies: ascending degrees, counts, and fractions."""

    degrees: np.ndarray
    counts: np.ndarray
    fractions: np.ndarray

    @classmethod
    def from_histogram(cls, histogram: dict) -> "DegreeDistribution":
        if not histogram:
            raise DataError("empty degree histogram")
        degrees = np.array(sorted(histogram), dtype=np.int64)
        counts = np.array([histogram[int(d)] for d in degrees], dtype=np.int64)
        if (counts <= 0).any() or (degrees < 0).any():
            raise DataError("histogram needs non-negative degrees with positive counts")
        total = counts.sum()
        return cls(degrees=degrees, counts=counts, fractions=counts / total)

    @classmethod
    def from_graph(cls, g: Graph) -> "DegreeDistribution":
        histogram = np.bincount(g.degrees)
        degrees = np.flatnonzero(histogram)
        counts = histogram[degrees]
        return cls(degrees=degrees, counts=counts, fractions=counts / g.node_count)


@dataclass(frozen=True)
class PowerLawFit:
    """Fitted exponent for f(d) ~ d^alpha over the tail d >= dmin.

    ``alpha`` is negative for a decaying tail.  ``intercept`` and
    ``r_squared`` belong to the log-log regression and are ``None`` for the
    maximum-likelihood fit.
    """

    alpha: float
    dmin: int
    n_tail: int
    method: str
    intercept: float | None = None
    r_squared: float | None = None


def fit_loglog(dist: DegreeDistribution, dmin: int = DEFAULT_DMIN) -> PowerLawFit:
    """Least-squares line through (ln d, ln f_d) for the tail d >= dmin.

    Needs at least 3 distinct tail degrees; raises :class:`DataError`
    otherwise.
    """
    if dmin < 1:
        raise DataError(f"dmin must be >= 1, got {dmin}")
    # zero frequencies have no logarithm and carry no observations; skip them
    keep = (dist.degrees >= dmin) & (dist.fractions > 0)
    d = dist.degrees[keep].astype(np.float64)
    f = dist.fractions[keep]
    if d.size < 3:
        raise DataError(f"need at least 3 distinct degrees >= dmin={dmin}, got {d.size}")
    x = np.array([math.log(v) for v in d.tolist()])
    y = np.array([math.log(v) for v in f.tolist()])
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float((dx * dx).sum())
    if sxx == 0.0:
        raise DataError("tail degrees are all identical; slope undefined")
    slope = float((dx * dy).sum()) / sxx
    intercept = float(y.mean() - slope * x.mean())
    residual = y - (intercept + slope * x)
    ss_res = float((residual * residual).sum())
    ss_tot = float((dy * dy).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(alpha=slope, dmin=dmin, n_tail=int(d.size), method="loglog",
                       intercept=intercept, r_squared=r_squared)


def fit_mle(samples, dmin: int = DEFAULT_DMIN) -> PowerLawFit:
    """Discrete maximum-likelihood exponent over samples d >= dmin.

    Uses the continuous approximation alpha_hat = 1 + n / sum ln(d / (dmin - 0.5))
    and returns it negated so the sign convention matches the log-log fit.
    Needs at least 10 tail samples with some spread.
    """
    if dmin < 1:
        raise DataError(f"dmin must be >= 1, got {dmin}")
    samples = np.asarray(samples, dtype=np.int64)
    tail = samples[samples >= dmin]
    if tail.size < 10:
        raise DataError(f"need at least 10 samples >= dmin={dmin}, got {tail.size}")
    if (tail == tail[0]).all():
        raise DataError("tail samples are all identical; exponent undefined")
    degrees, counts = np.unique(tail, return_counts=True)
    alpha_hat = 1.0 + tail.size / math.fsum(
        c * math.log(d / (dmin - 0.5)) for d, c in zip(degrees.tolist(), counts.tolist()))
    return PowerLawFit(alpha=-alpha_hat, dmin=dmin, n_tail=int(tail.size), method="mle")
