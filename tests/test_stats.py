import numpy as np
import pytest
import scipy.stats
from scipy.integrate import quad
from scipy.special import ndtr

from skorokhod_kit import (
    McEstimate,
    half_normal_cdf,
    ks_test_against_cdf,
    ks_test_two_sample,
)


def normal_cdf(x):
    return ndtr(x)


def draws(n, seed=0, dist="norm"):
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    if dist == "norm":
        return gen.standard_normal(n)
    return gen.exponential(size=n)


def test_mc_estimate_from_samples():
    samples = np.array([1.0, 2.0, 3.0, 4.0])
    est = McEstimate.from_samples(samples)
    assert est.mean == 2.5
    assert est.n == 4
    assert est.std_error == pytest.approx(samples.std(ddof=1) / 2.0)
    assert est.within(2.5, 0.0)
    assert not est.within(3.6, 1.0)


def test_mc_estimate_needs_two_samples():
    with pytest.raises(ValueError):
        McEstimate.from_samples(np.array([1.0]))
    with pytest.raises(ValueError):
        McEstimate(mean=0.0, std_error=1.0, n=1)
    with pytest.raises(ValueError):
        McEstimate(mean=np.nan, std_error=1.0, n=5)


def test_ks_null_samples_pass():
    samples = np.sort(draws(10_000, seed=3))
    res = ks_test_against_cdf(samples, normal_cdf, alpha=0.01)
    assert res.passed
    assert res.threshold == pytest.approx(1.628 / 100.0)


def test_ks_degenerate_sample_fails_at_half():
    samples = np.zeros(1000)
    res = ks_test_against_cdf(samples, normal_cdf, alpha=0.01)
    assert res.statistic == pytest.approx(0.5)
    assert not res.passed


def test_ks_wrong_distribution_fails():
    samples = np.sort(draws(5000, seed=4, dist="exp"))
    assert not ks_test_against_cdf(samples, normal_cdf, alpha=0.01).passed


def test_ks_statistic_matches_scipy():
    for seed in (1, 2, 3):
        samples = np.sort(draws(751, seed=seed))
        ours = ks_test_against_cdf(samples, normal_cdf, alpha=0.05)
        reference = scipy.stats.kstest(samples, "norm").statistic
        assert ours.statistic == pytest.approx(reference, abs=1e-12)


def test_ks_preconditions():
    with pytest.raises(ValueError):
        ks_test_against_cdf(np.zeros(10), normal_cdf)  # too few
    samples = draws(100, seed=5)  # unsorted
    with pytest.raises(ValueError):
        ks_test_against_cdf(samples, normal_cdf)
    with pytest.raises(ValueError):
        ks_test_against_cdf(np.sort(samples), normal_cdf, alpha=0.2)
    with pytest.raises(ValueError):
        ks_test_against_cdf(np.sort(samples), lambda x: -np.ones_like(x))


def test_two_sample_matches_scipy_and_detects_shift():
    a = draws(600, seed=6)
    b = draws(500, seed=7)
    ours = ks_test_two_sample(a, b, alpha=0.05)
    reference = scipy.stats.ks_2samp(a, b, method="asymp").statistic
    assert ours.statistic == pytest.approx(reference, abs=1e-12)
    assert ours.passed
    shifted = ks_test_two_sample(a, b + 0.5, alpha=0.01)
    assert not shifted.passed
    with pytest.raises(ValueError):
        ks_test_two_sample(a[:10], b)


def test_ks_result_invariant():
    with pytest.raises(ValueError):
        # pass flag inconsistent with statistic vs threshold
        from skorokhod_kit.stats import KsResult

        KsResult(statistic=0.5, n=100, threshold=0.1, passed=True)


def test_half_normal_cdf_matches_reflected_density_quadrature():
    # the transition density of reflection at 0 from x = 0 at t = 1 is 2 phi(u)
    density = lambda u: 2.0 * np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)  # noqa: E731
    for y in (0.2, 0.7, 1.5, 2.4):
        integral, err = quad(density, 0.0, y)
        assert err < 1e-10
        assert half_normal_cdf(y) == pytest.approx(integral, abs=1e-9)
    assert half_normal_cdf(-1.0) == 0.0
    assert half_normal_cdf(np.inf) == 1.0
