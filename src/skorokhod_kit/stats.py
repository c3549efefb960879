"""Monte Carlo summaries and Kolmogorov-Smirnov goodness-of-fit tests.

Critical values use the asymptotic form c(alpha)/sqrt(n); all acceptance
runs have n >= 1000 where the asymptotic approximation is comfortable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from ._special import ndtr

KS_CRITICAL = {0.05: 1.358, 0.01: 1.628}


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error."""

    mean: float
    std_error: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 samples")
        if not (np.isfinite(self.mean) and np.isfinite(self.std_error)):
            raise ValueError("estimate must be finite")
        if self.std_error < 0.0:
            raise ValueError("standard error cannot be negative")

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "McEstimate":
        samples = np.asarray(samples, dtype=np.float64)
        n = samples.size
        if n < 2:
            raise ValueError("need at least 2 samples")
        return cls(
            mean=float(np.mean(samples)),
            std_error=float(np.std(samples, ddof=1) / np.sqrt(n)),
            n=n,
        )

    def within(self, target: float, n_se: float) -> bool:
        return abs(self.mean - target) <= n_se * self.std_error

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class KsResult:
    statistic: float
    n: int
    threshold: float
    passed: bool

    def __post_init__(self):
        if not 0.0 <= self.statistic <= 1.0:
            raise ValueError("KS statistic lies in [0, 1]")
        if self.passed != (self.statistic < self.threshold):
            raise ValueError("pass flag must equal statistic < threshold")

    def as_dict(self) -> dict:
        return asdict(self)


def _critical(alpha: float) -> float:
    if alpha not in KS_CRITICAL:
        raise ValueError(f"alpha must be one of {sorted(KS_CRITICAL)}")
    return KS_CRITICAL[alpha]


def ks_test_against_cdf(
    samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray], alpha: float = 0.01
) -> KsResult:
    """One-sample KS test of sorted samples against a continuous CDF."""
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.size
    if n < 50:
        raise ValueError("need at least 50 samples")
    if np.any(np.diff(samples) < 0.0):
        raise ValueError("samples must be sorted ascending")
    F = np.asarray(cdf(samples), dtype=np.float64)
    if np.any(np.diff(F) < 0.0) or F[0] < 0.0 or F[-1] > 1.0:
        raise ValueError("cdf values must be nondecreasing within [0, 1]")
    i = np.arange(1, n + 1)
    statistic = float(np.max(np.maximum(np.abs(i / n - F), np.abs((i - 1) / n - F))))
    threshold = float(_critical(alpha) / np.sqrt(n))
    return KsResult(statistic=statistic, n=n, threshold=threshold, passed=statistic < threshold)


def ks_test_two_sample(a: np.ndarray, b: np.ndarray, alpha: float = 0.01) -> KsResult:
    """Two-sample KS test; samples need not be sorted."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    n, m = a.size, b.size
    if min(n, m) < 50:
        raise ValueError("need at least 50 samples per side")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / n
    cdf_b = np.searchsorted(b, pooled, side="right") / m
    statistic = float(np.max(np.abs(cdf_a - cdf_b)))
    threshold = float(_critical(alpha) * np.sqrt((n + m) / (n * m)))
    return KsResult(statistic=statistic, n=min(n, m), threshold=threshold, passed=statistic < threshold)


def half_normal_cdf(y) -> np.ndarray:
    """CDF of |Z| for standard normal Z: 2 Phi(y) - 1 on y >= 0."""
    y = np.asarray(y, dtype=np.float64)
    return np.where(y < 0.0, 0.0, 2.0 * ndtr(y) - 1.0)
