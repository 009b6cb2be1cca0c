"""Distribution invariants: support, sampling, entropies, means, and the
truncated laws against their scipy.stats counterparts."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

import entrosa
from entrosa import (ChiSquared, ConfigurationError, Gaussian, Triangular,
                     TruncatedGaussian, TruncatedGumbel, Uniform, builtin,
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


def _truncated_reference(dist, n, rng):
    """Inverse transform sampling through the scipy.stats base law: its isf
    on [S(upper), S(lower)] for a window right of the median, its ppf on
    [F(lower), F(upper)] for any other."""
    base = _scipy_base(dist)
    qa, qb = float(base.cdf(dist.lower)), float(base.cdf(dist.upper))
    if qa > 0.5:
        lo, hi, inverse = float(base.sf(dist.upper)), float(base.sf(dist.lower)), base.isf
    else:
        lo, hi, inverse = qa, qb, base.ppf
    return inverse(lo + (hi - lo) * rng.random(n))


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
    right = (True, float(base.sf(dist.upper)), float(base.sf(dist.lower)))
    assert dist._window() == (right if qa > 0.5 else (False, qa, qb))
    df = qb - qa
    for seed in (0, 1):
        ref = _truncated_reference(dist, 200_000, np.random.default_rng(seed))
        assert np.array_equal(dist.sample(200_000, np.random.default_rng(seed)), ref)
    # entropy and mean are closed forms; the reference integrates in the quantile domain
    log_df = math.log(df)
    h, _ = quad(lambda u: base.logpdf(base.ppf(u)) - log_df, qa, qb,
                epsabs=1e-12, epsrel=1e-10, limit=200)
    assert abs(dist.entropy() - (-h / df)) <= 1e-9
    m, _ = quad(lambda u: base.ppf(qa + df * u), 0.0, 1.0, epsabs=1e-10, limit=200)
    assert abs(dist.mean() - m) <= 1e-9 * max(1.0, abs(m))


# (law, H, mean) by mpmath quadrature at 40 digits
REFERENCE_MOMENTS = [
    (TruncatedGumbel(1013.0, 558.0, 500.0, 3000.0), 7.6263214940791348, 1356.8782151491518),
    (TruncatedGaussian(30.0, 64.0, 15.0, math.inf), 3.401003405663443, 30.567541400334877),
    (TruncatedGaussian(0.0, 1.0, 4.5, math.inf), -0.58876155164600801, 4.7043198448277324),
    (TruncatedGumbel(0.0, 1.0, 12.0, math.inf), 1.0000015360520397, 13.000001536053613),
    (TruncatedGumbel(0.0, 1.0, -math.inf, -2.6), -1.6694339919001575, -2.6694339919001575),
    (TruncatedGaussian(0.0, 1.0, 0.0, 2.5e-6), -12.899219826090119, 1.2499999999993491e-6),
    (TruncatedGaussian(0.0, 1.0, 3.0, 3.001), -6.9077556541071489, 3.0004997499583791),
    (TruncatedGumbel(0.0, 1.0, 2.0, 2.001), -6.9077553101389989, 2.0004999279389708),
    (TruncatedGumbel(0.0, 1.0, -math.inf, -3.2), -2.2392217953746335, -3.2392217953746335),
    (TruncatedGaussian(0.0, 1.0, -math.inf, -6.5), -0.91548153808807107, -6.6473013611904907),
]


@pytest.mark.parametrize("dist, h, mean", REFERENCE_MOMENTS,
                         ids=[repr(d) for d, _, _ in REFERENCE_MOMENTS])
def test_truncated_moments_match_reference(dist, h, mean):
    assert abs(dist.entropy() - h) <= 1e-9
    assert abs(dist.mean() - mean) <= 1e-9 * max(1.0, abs(mean))


@pytest.mark.parametrize("dist, h, mean", [
    # 60-digit mpmath values: the standard law's closed forms on the window
    (TruncatedGaussian(0.0, 1.0, 6.8294156, math.inf),
     -0.961082642402654934707945665997296569733, 6.97014610225136337480744772336368950312),
    (TruncatedGumbel(0.0, 1.0, 25.0, 27.0),
     0.541551256633577799325177162072687058758, 25.6869647145024368562978313205901600870),
], ids=["gaussian-6.83-inf", "gumbel-25-27"])
def test_right_tail_windows_keep_their_digits(dist, h, mean):
    # both ends near F = 1: the mass comes from the survival side, where
    # F(upper) - F(lower) lost 1.4e-4 and 3.9e-4 nats
    assert dist.entropy() == pytest.approx(h, rel=1e-9)
    assert dist.mean() == pytest.approx(mean, rel=1e-9)


def test_flood_input_entropies_are_unchanged_bitwise():
    # Q's and Ks's windows start below the median, on the quantile-range mass
    assert builtin("flood").analytic["exp_input_entropy"].values == (
        2051.4897060027547, 29.994181284402462, 1.6487212707001282, 1.6487212707001282,
        2.0, 0.8243606353500641, 16.487212707001284, 8.243606353500642)


@pytest.mark.parametrize("dist", [TruncatedGaussian(0.0, 1.0, 6.8294156, math.inf),
                                  TruncatedGumbel(0.0, 1.0, 25.0, 27.0)], ids=repr)
def test_right_tail_windows_draw_inside_their_support(dist):
    # q = F(lower) + u (F(upper) - F(lower)) near F = 1 had about 39k values
    # and rounded to 1.0, where the quantile is +inf
    x = dist.sample(1_000_000, np.random.default_rng(0))
    assert np.isfinite(x).all()
    assert dist.lower <= x.min() and x.max() <= dist.upper
    assert np.unique(x).size > 900_000


def _truncated_law(cls, loc, scale, za, zb, side):
    """A truncated law whose window ends are ``za`` and ``zb`` in standard
    units, open below, open above or closed."""
    lower, upper = {"below": (-math.inf, za), "above": (za, math.inf),
                    "both": (min(za, zb), max(za, zb) + 0.5)}[side]
    spread = scale * scale if cls is TruncatedGaussian else scale
    return cls(loc, spread, loc + scale * lower, loc + scale * upper)


_LOC = st.floats(-1e3, 1e3)
_WIDTH = st.floats(1e-3, 1e3)
_Z = st.floats(-3.0, 3.0)  # a window end in standard units
_TRUNCATED_LAWS = st.builds(_truncated_law,
                            st.sampled_from([TruncatedGaussian, TruncatedGumbel]),
                            _LOC, _WIDTH, _Z, _Z, st.sampled_from(["below", "above", "both"]))
# (law, numpy reference); the truncated windows include semi-infinite ones
_LAWS = st.one_of(
    st.builds(lambda a, w: (Uniform(a, a + w), lambda n, r: r.uniform(a, a + w, n)),
              _LOC, _WIDTH),
    st.builds(lambda a, w, f: (Triangular(a, a + f * w, a + w),
                               lambda n, r: r.triangular(a, a + f * w, a + w, n)),
              _LOC, _WIDTH, st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))),
    st.builds(lambda mu, sd: (Gaussian(mu, sd * sd),
                              lambda n, r: r.normal(mu, math.sqrt(sd * sd), n)),
              _LOC, _WIDTH),
    st.builds(lambda df: (ChiSquared(df), lambda n, r: r.chisquare(df, n)),
              st.floats(0.05, 50.0)),
    st.builds(lambda law: (law, lambda n, r: _truncated_reference(law, n, r)),
              _TRUNCATED_LAWS),
)


@settings(max_examples=200, deadline=None)
@given(dist=_TRUNCATED_LAWS)
def test_truncated_moments_are_finite_and_in_window(dist):
    h, mean = dist.entropy(), dist.mean()
    assert math.isfinite(h)
    assert dist.lower <= mean <= dist.upper
    if math.isfinite(dist.upper - dist.lower):
        # the uniform law maximises entropy on a finite window
        assert h <= math.log(dist.upper - dist.lower)


@pytest.mark.parametrize("cls", [TruncatedGaussian, TruncatedGumbel])
def test_truncated_moments_limits(cls):
    loc, s = 3.0, 2.5
    spread = s * s if cls is TruncatedGaussian else s
    whole = cls(loc, spread, -math.inf, math.inf)
    if cls is TruncatedGaussian:
        assert whole.entropy() == pytest.approx(Gaussian(loc, s * s).entropy(), abs=1e-12)
        assert whole.mean() == pytest.approx(loc, abs=1e-12)
    else:
        assert whole.entropy() == pytest.approx(math.log(s) + np.euler_gamma + 1.0, abs=1e-12)
        assert whole.mean() == pytest.approx(loc + np.euler_gamma * s, abs=1e-12)
    # a lower end far beyond the mass behaves as an open one
    far, open_ = cls(loc, spread, -1e6, 10.0), cls(loc, spread, -math.inf, 10.0)
    assert far.entropy() == pytest.approx(open_.entropy(), abs=1e-12)
    assert far.mean() == pytest.approx(open_.mean(), abs=1e-12)


def test_far_left_gumbel_end_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = TruncatedGumbel(1013.0, 558.0, -1e6, 3000.0)
        assert d._window()[:2] == (False, 0.0)
        assert math.isfinite(d.entropy()) and 500.0 < d.mean() < 3000.0
        d.sample(1000, np.random.default_rng(0))


@settings(max_examples=200, deadline=None)
@given(law=_LAWS, n=st.integers(1, 3000), seed=st.integers(0, 2 ** 32 - 1))
def test_sample_is_numpys_sampler_bitwise(law, n, seed):
    # each law draws in place, but its values and its use of the stream are
    # those of numpy's own sampler
    dist, reference = law
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(dist.sample(n, ours), reference(n, theirs))
    assert ours.random() == theirs.random()


def test_import_leaves_scipy_stats_unloaded():
    env = {**os.environ, "PYTHONPATH": str(Path(entrosa.__file__).parents[1])}
    for setup, unloaded in (
            ("", "'scipy.stats', 'scipy.integrate', 'scipy.special'"),
            # the analytic records of these builtins are closed forms
            ("[entrosa.builtin(m) for m in ('ishigami', 'gfunction3', 'mono1', "
             "'mono2', 'mono3', 'mono4', 'mono5')]; ",
             "'scipy.stats', 'scipy.integrate', 'scipy.special'"),
            # so are the truncated laws' entropies and means, from scipy.special
            ("[(d.entropy(), d.mean()) for d in entrosa.builtin('flood').model.inputs]; ",
             "'scipy.stats', 'scipy.integrate'")):
        code = ("import sys, entrosa, entrosa.studies; " + setup +
                f"print([m for m in ({unloaded}) if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]", setup


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


def test_triangular_transform_holds_at_most_13_bytes_a_row():
    # a symmetric law gathers the right branch's half of the rows: their
    # int64 indices and their values, 8 bytes a row between them
    n = 2 ** 16
    out = np.random.default_rng(0).random(n)
    tracemalloc.start()
    try:
        Triangular(49.0, 50.0, 51.0)._transform(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 13


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

    @pytest.mark.parametrize("law, params", [
        (Triangular, (0.0, 0.0, 5e-324)), (Triangular, (0.0, 5e-324, 5e-324)),
        (TruncatedGumbel, (0.0, 5e-324, -5e-324, 0.0))])
    def test_an_entropy_that_takes_the_log_of_an_underflow_is_refused(self, law, params):
        # (b - a) / 2, or the scale times the window's mass, rounds to 0
        with pytest.raises(ConfigurationError, match=r"0 < \(b - a\) / 2|underflows to 0"):
            law(*params)

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
        from entrosa.distributions import _KINDS
        # every kind parses one valid list of its N parameters and refuses N - 1 and N + 1
        kinds = {"uniform": (0, 1), "gaussian": (0, 1), "normal": (0, 1),
                 "triangular": (0, 1, 2), "chisquared": (3,),
                 "truncatedgaussian": (0, 1, -1, 1), "truncatednormal": (0, 1, -1, 1),
                 "truncatedgumbel": (0, 1, -1, 1)}
        assert set(kinds) == set(_KINDS)
        for kind, params in kinds.items():
            text = lambda ps: f"{kind}({', '.join(map(str, ps))})"
            assert isinstance(parse_distribution(text(params)), _KINDS[kind])
            for wrong in (params[:-1], params + (1,)):
                with pytest.raises(ConfigurationError, match=rf"^{kind} expects {len(params)} "
                                                             rf"parameters, got {len(wrong)} "):
                    parse_distribution(text(wrong))

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            parse_distribution("uniform 0 1")
