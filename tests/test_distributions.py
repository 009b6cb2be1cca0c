"""Distribution invariants: support, sampling, entropies, means, and the
truncated laws against their scipy.stats counterparts."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

import entrosa
from entrosa import (ChiSquared, ConfigurationError, Gaussian, Triangular,
                     TruncatedGaussian, TruncatedGumbel, Uniform,
                     parse_distribution)

ALL_KINDS = [
    Uniform(0.0, 1.0),
    Uniform(7.0, 9.0),
    Gaussian(0.0, 1.0),
    Gaussian(30.0, 64.0),
    Triangular(49.0, 50.0, 51.0),
    Triangular(55.0, 55.5, 56.0),
    ChiSquared(10.0),
    ChiSquared(13.978),
    TruncatedGaussian(30.0, 64.0, 15.0, math.inf),
    TruncatedGumbel(1013.0, 558.0, 500.0, 3000.0),
]


def _scipy_base(dist):
    """The untruncated scipy.stats law of a truncated kind."""
    if isinstance(dist, TruncatedGaussian):
        return stats.norm(loc=dist.mu, scale=math.sqrt(dist.var))
    return stats.gumbel_r(loc=dist.location, scale=dist.scale)


def _scipy_variance(dist):
    if isinstance(dist, Uniform):
        return stats.uniform(dist.a, dist.b - dist.a).var()
    if isinstance(dist, Gaussian):
        return stats.norm(dist.mu, math.sqrt(dist.var)).var()
    if isinstance(dist, Triangular):
        width = dist.b - dist.a
        return stats.triang((dist.c - dist.a) / width, loc=dist.a, scale=width).var()
    if isinstance(dist, ChiSquared):
        return stats.chi2(dist.df).var()
    if isinstance(dist, TruncatedGaussian):
        sig = math.sqrt(dist.var)
        return stats.truncnorm((dist.lower - dist.mu) / sig, (dist.upper - dist.mu) / sig,
                               loc=dist.mu, scale=sig).var()
    base = _scipy_base(dist)
    lb, ub = dist.lower, dist.upper
    m = base.expect(lambda x: x, lb=lb, ub=ub, conditional=True)
    return base.expect(lambda x: (x - m) ** 2, lb=lb, ub=ub, conditional=True)


TRUNCATED_WINDOWS = [
    TruncatedGumbel(1013.0, 558.0, 500.0, 3000.0),      # flood Q
    TruncatedGaussian(30.0, 64.0, 15.0, math.inf),      # flood Ks
    TruncatedGaussian(0.0, 1.0, -1.5, 2.0),
    TruncatedGumbel(0.0, 1.0, -math.inf, 1.0),
    TruncatedGumbel(0.0, 1.0, 0.5, math.inf),
    TruncatedGaussian(30.0, 64.0, -50.0, 110.0),        # +-10 sigma
]


@pytest.mark.parametrize("dist", TRUNCATED_WINDOWS, ids=lambda d: repr(d))
def test_truncated_laws_match_scipy_bitwise(dist):
    # reference: the truncated law through the scipy.stats frozen base law
    base = _scipy_base(dist)
    qa, qb = float(base.cdf(dist.lower)), float(base.cdf(dist.upper))
    assert dist._qrange() == (qa, qb)
    df = qb - qa
    for seed in (0, 1):
        ref = base.ppf(qa + df * np.random.default_rng(seed).random(200_000))
        assert np.array_equal(dist.sample(200_000, np.random.default_rng(seed)), ref)
    log_df = math.log(df)
    h, _ = quad(lambda u: base.logpdf(base.ppf(u)) - log_df, qa, qb,
                epsabs=1e-12, epsrel=1e-10, limit=200)
    assert dist.entropy() == -h / df
    m, _ = quad(lambda u: base.ppf(qa + df * u), 0.0, 1.0, epsabs=1e-10, limit=200)
    assert dist.mean() == m


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, entrosa, entrosa.studies; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(entrosa.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: repr(d))
def test_samples_inside_support(dist):
    rng = np.random.default_rng(123)
    x = dist.sample(20_000, rng)
    lo, hi = dist.support()
    assert x.min() >= lo and x.max() <= hi


def test_sampling_is_deterministic_per_stream():
    d = TruncatedGumbel(1013.0, 558.0, 500.0, 3000.0)
    a = d.sample(1000, np.random.default_rng(7))
    b = d.sample(1000, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_uniform_mean():
    rng = np.random.default_rng(0)
    x = Uniform(0.0, 1.0).sample(1_000_000, rng)
    assert abs(x.mean() - 0.5) < 0.002


def test_triangular_mean():
    rng = np.random.default_rng(1)
    x = Triangular(49.0, 50.0, 51.0).sample(1_000_000, rng)
    assert abs(x.mean() - 50.0) < 0.01


def test_truncated_gumbel_draws_in_window():
    rng = np.random.default_rng(2)
    x = TruncatedGumbel(1013.0, 558.0, 500.0, 3000.0).sample(200_000, rng)
    assert x.min() >= 500.0 and x.max() <= 3000.0


class TestEntropy:
    def test_uniform_unit(self):
        assert Uniform(0.0, 1.0).entropy() == 0.0

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    def test_uniform_scaling_law(self, s):
        assert Uniform(0.0, s).entropy() == pytest.approx(math.log(s), abs=1e-12)

    def test_gaussian_closed_form(self):
        d = Gaussian(3.0, 4.0)
        assert d.entropy() == pytest.approx(0.5 * math.log(2 * math.pi * math.e * 4.0), abs=1e-12)

    def test_chi_squared_matches_scipy(self):
        for k in (10.0, 13.978):
            assert ChiSquared(k).entropy() == pytest.approx(stats.chi2(k).entropy(), abs=1e-10)

    def test_flood_input_exponential_entropies(self):
        # reference effective-support widths for the flood model inputs
        assert math.exp(TruncatedGumbel(1013, 558, 500, 3000).entropy()) == pytest.approx(2051, abs=1.0)
        assert math.exp(TruncatedGaussian(30, 64, 15, math.inf).entropy()) == pytest.approx(30.0, abs=0.02)
        assert math.exp(Triangular(55, 55.5, 56).entropy()) == pytest.approx(0.825, abs=0.001)
        assert math.exp(Triangular(49, 50, 51).entropy()) == pytest.approx(1.65, abs=0.002)
        assert math.exp(Uniform(7, 9).entropy()) == pytest.approx(2.0, abs=1e-12)
        assert math.exp(Triangular(4990, 5000, 5010).entropy()) == pytest.approx(16.5, abs=0.02)
        assert math.exp(Triangular(295, 300, 305).entropy()) == pytest.approx(8.24, abs=0.005)

    def test_wide_truncation_matches_untruncated_gaussian(self):
        mu, var = 30.0, 64.0
        sig = math.sqrt(var)
        trunc = TruncatedGaussian(mu, var, mu - 10 * sig, mu + 10 * sig)
        assert trunc.entropy() == pytest.approx(Gaussian(mu, var).entropy(), abs=1e-6)

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: repr(d))
    def test_entropy_power_at_most_variance(self, dist):
        # exp(2H) <= 2*pi*e*Var, with equality exactly for the Gaussian
        lhs = math.exp(2 * dist.entropy())
        rhs = 2 * math.pi * math.e * _scipy_variance(dist)
        if isinstance(dist, Gaussian):
            assert lhs == pytest.approx(rhs, rel=1e-9)
        else:
            assert lhs <= rhs * 1.01


class TestValidation:
    def test_bad_uniform(self):
        with pytest.raises(ConfigurationError):
            Uniform(2.0, 1.0)

    def test_bad_variance(self):
        with pytest.raises(ConfigurationError):
            Gaussian(0.0, -1.0)
        with pytest.raises(ConfigurationError):
            TruncatedGaussian(0.0, 0.0, -1.0, 1.0)

    def test_mass_zero_window(self):
        with pytest.raises(ConfigurationError):
            TruncatedGaussian(0.0, 1.0, 50.0, 51.0)

    def test_inverted_window(self):
        with pytest.raises(ConfigurationError):
            TruncatedGumbel(0.0, 1.0, 5.0, 1.0)

    def test_sample_size(self):
        with pytest.raises(ConfigurationError):
            Uniform(0, 1).sample(0, np.random.default_rng(0))


class TestParsing:
    def test_flood_style_strings(self):
        d = parse_distribution("Truncated Gumbel(1013, 558, 500, 3000)")
        assert isinstance(d, TruncatedGumbel)
        d = parse_distribution("truncated_normal(30, 64, 15, inf)")
        assert isinstance(d, TruncatedGaussian)
        assert parse_distribution("Triangular(49, 50, 51)") == Triangular(49, 50, 51)
        assert parse_distribution("uniform(7,9)") == Uniform(7, 9)
        assert parse_distribution("ChiSquared(13.978)") == ChiSquared(13.978)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            parse_distribution("cauchy(0, 1)")

    def test_rejects_arity_mismatch(self):
        with pytest.raises(ConfigurationError):
            parse_distribution("uniform(1)")

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            parse_distribution("uniform 0 1")
