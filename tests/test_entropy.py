"""Histogram entropy estimators, entropy indices, bounds, and KL index."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrosa import (ConfigurationError, HistogramSpec, Model, SparseGridError,
                     Uniform, builtin, conditional_entropy, entropy_histogram,
                     entropy_upper_bounds, estimate_deriv_measures,
                     estimate_entropy_indices, evaluate_batch,
                     fix_variables, kl_total_index,
                     sample_inputs)
from entrosa.entropy import _DENSE_CELLS_PER_SAMPLE, _SINGLETON_ERROR_SHARE


class TestMarginalEntropy:
    def test_uniform_is_zero(self):
        x = np.random.default_rng(0).random(1_000_000)
        assert abs(entropy_histogram(x)) < 0.01

    def test_effective_width_of_benchmark_outputs(self):
        # effective support widths of the first three monotonic outputs
        rng = np.random.default_rng(1)
        refs = {"mono1": (2.26, 0.05), "mono2": (0.65, 0.02), "mono3": (3.54, 0.07)}
        for name, (ref, tol) in refs.items():
            model = builtin(name).model
            y = evaluate_batch(model, sample_inputs(model, 1_000_000, rng))
            assert math.exp(entropy_histogram(y)) == pytest.approx(ref, abs=tol)

    def test_degenerate_sample_reports_neg_inf(self):
        assert entropy_histogram(np.full(5000, 2.5)) == -math.inf

    def test_affine_law_scaling(self):
        # doubling is exact in floats: counts are preserved bitwise and the
        # entropy shifts by exactly ln 2 up to one ulp of the final addition
        rng = np.random.default_rng(2)
        s = rng.standard_normal(200_000)
        spec = HistogramSpec(bins_output=128)
        c1, _ = np.histogram(s, bins=128, range=(s.min(), s.max()))
        s2 = 2.0 * s
        c2, _ = np.histogram(s2, bins=128, range=(s2.min(), s2.max()))
        np.testing.assert_array_equal(c1, c2)
        h1 = entropy_histogram(s, spec)
        h2 = entropy_histogram(s2, spec)
        assert h2 - h1 == pytest.approx(math.log(2.0), abs=1e-12)

    def test_affine_law_shift_preserving_counts(self):
        rng = np.random.default_rng(3)
        s = rng.random(100_000)
        spec = HistogramSpec(bins_output=64)
        h1 = entropy_histogram(s, spec)
        h2 = entropy_histogram(0.5 * s, spec)
        assert h2 - h1 == pytest.approx(math.log(0.5), abs=1e-12)


class TestConditionalEntropy:
    def test_independent_conditioning_changes_nothing(self):
        rng = np.random.default_rng(5)
        y = rng.random(500_000)
        x = rng.random(500_000)
        assert conditional_entropy(y, x) == pytest.approx(entropy_histogram(y), abs=0.02)

    def test_refuses_high_dimensional_grid(self):
        rng = np.random.default_rng(6)
        y = rng.random(1000)
        with pytest.raises(SparseGridError, match="fix variables"):
            conditional_entropy(y, rng.random((1000, 5)))

    def test_singleton_grid_escalates(self):
        rng = np.random.default_rng(7)
        y = rng.random(300)
        x = rng.random((300, 2))
        with pytest.raises(SparseGridError, match="single sample"):
            conditional_entropy(y, x, HistogramSpec(bins_output=10,
                                                    bins_per_conditioning_dim=40))

    def test_constant_conditioning_column_reduces_to_marginal(self):
        rng = np.random.default_rng(8)
        y = rng.random(100_000)
        x = np.full(100_000, 3.0)
        assert conditional_entropy(y, x) == pytest.approx(entropy_histogram(y), abs=1e-12)

    def test_sample_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            conditional_entropy(np.zeros(10), np.zeros((11, 1)))

    def test_scale_mixture_interaction_property(self):
        # y = z*x + (2z + 1): conditional variance averages E[z^2]*Var(x) and
        # conditional entropy averages E[ln z] + H(x)
        rng = np.random.default_rng(10)
        n = 1_000_000
        z = rng.uniform(1.0, 3.0, n)
        xin = rng.standard_normal(n)
        y = z * xin + (2.0 * z + 1.0)
        # binned conditional variance oracle
        edges = np.linspace(1.0, 3.0, 101)
        which = np.clip(np.digitize(z, edges) - 1, 0, 99)
        cond_var = np.array([y[which == j].var() for j in range(100)])
        weights = np.bincount(which, minlength=100) / n
        assert float(cond_var @ weights) == pytest.approx(13.0 / 3.0, rel=0.02)
        got = conditional_entropy(y, z, HistogramSpec(bins_output=100,
                                                      bins_per_conditioning_dim=316))
        e_ln_z = (3 * math.log(3) - 2) / 2
        expected = e_ln_z + 0.5 * math.log(2 * math.pi * math.e)
        assert got == pytest.approx(expected, abs=0.02)


def _reference_codes(values, bins):
    """Equal-width cell codes in one expression: shift, scale, clip, truncate."""
    lo, hi = values.min(), values.max()
    if hi <= lo:
        return None, 0.0
    codes = np.minimum((values - lo) * (bins / (hi - lo)), bins - 1).astype(np.int64)
    return codes, (hi - lo) / bins


def _reference_entropy(y, bins):
    """Plug-in H(Y) by sorting the cell codes."""
    codes, width = _reference_codes(y, bins)
    if codes is None:
        return -math.inf
    _, counts = np.unique(codes, return_counts=True)
    p = counts / y.size
    return float(-(p * np.log(p)).sum() + math.log(width))


def _reference_conditional(y, x, spec):
    """Plug-in H(Y|X) by sorting the joint cell codes (np.unique) and summing
    conditioning-cell blocks (np.add.reduceat). Returns the estimate and the
    share of occupied conditioning cells that hold one sample."""
    ycodes, width = _reference_codes(y, spec.bins_output)
    if ycodes is None:
        return -math.inf, 0.0
    joint = np.zeros(y.size, dtype=np.int64)
    for j in range(x.shape[1]):
        codes, _ = _reference_codes(x[:, j], spec.bins_per_conditioning_dim)
        if codes is not None:
            joint = joint * spec.bins_per_conditioning_dim + codes
    joint = joint * spec.bins_output + ycodes
    cells, counts = np.unique(joint, return_counts=True)
    starts = np.flatnonzero(np.r_[True, np.diff(cells // spec.bins_output) != 0])
    k_i = np.add.reduceat(counts, starts)
    k_i_full = np.repeat(k_i, np.diff(np.r_[starts, counts.size]))
    h = -(counts / y.size * np.log(counts / k_i_full)).sum() + math.log(width)
    return float(h), float((k_i == 1).mean())


@st.composite
def _grid_case(draw, dense):
    """A sample and a histogram spec whose conditioning grid falls on the
    dense (bincount) or the sort side of the counting cutoff."""
    n = draw(st.integers(20, 4000))
    k = draw(st.integers(1, 3))
    constant = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    if not dense:
        constant[0] = False     # an all-constant grid has one cell
    live = k - sum(constant)
    limit = _DENSE_CELLS_PER_SAMPLE * n
    if dense:
        bins_out = draw(st.integers(2, min(40, limit // 2 ** live)))
        top = 2
        while top < 64 and (top + 1) ** live * bins_out <= limit:
            top += 1
        bins_cond = draw(st.integers(2, top))
    else:
        bins_out = draw(st.integers(2, 40))
        bottom = max(2, int((limit / bins_out) ** (1 / live)))
        while bottom ** live * bins_out <= limit:
            bottom += 1
        bins_cond = draw(st.integers(bottom, bottom + 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = draw(st.sampled_from([None, 2, 7]))   # None: continuous x
    if levels is None:
        x = rng.random((n, k))
    else:
        x = rng.integers(0, levels, (n, k)).astype(float)
    x[:, constant] = 2.5
    noise = draw(st.sampled_from([0.0, 0.1, 1.0]))
    y = np.sin(3.0 * x).sum(axis=1) + noise * rng.normal(size=n)
    return y, x, HistogramSpec(bins_output=bins_out, bins_per_conditioning_dim=bins_cond)


class TestCountingMatchesSortReference:
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sort"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_reference(self, dense, data):
        y, x, spec = data.draw(_grid_case(dense))
        expected, singleton_share = _reference_conditional(y, x, spec)
        if singleton_share > _SINGLETON_ERROR_SHARE:
            with pytest.raises(SparseGridError):
                conditional_entropy(y, x, spec)
        else:
            assert conditional_entropy(y, x, spec) == expected
        assert entropy_histogram(y, spec) == _reference_entropy(y, spec.bins_output)


def test_output_entropy_power_bounded_by_variance():
    # exp(2 H(Y)) <= 2*pi*e*Var(Y) with 5% estimator slack, on every builtin
    from entrosa import builtin_names
    rng = np.random.default_rng(40)
    for name in builtin_names():
        model = builtin(name).model
        y = evaluate_batch(model, sample_inputs(model, 200_000, rng))
        h = entropy_histogram(y)
        assert math.exp(2 * h) <= 2 * math.pi * math.e * y.var() * 1.05, name


class TestEntropyIndices:
    def test_fixed_seed_determinism(self):
        model = builtin("gfunction3").model
        a = estimate_entropy_indices(model, 50_000, repetitions=2,
                                     rng=np.random.default_rng(11))
        b = estimate_entropy_indices(model, 50_000, repetitions=2,
                                     rng=np.random.default_rng(11))
        np.testing.assert_array_equal(a.h_total, b.h_total)
        np.testing.assert_array_equal(a.kappa, b.kappa)

    def test_kappa_in_unit_interval_with_clipping_flag(self):
        model = builtin("mono1").model
        report = estimate_entropy_indices(model, 100_000, repetitions=2,
                                          rng=np.random.default_rng(12))
        assert np.all(report.kappa > 0) and np.all(report.kappa <= 1.0)
        assert report.kappa_clipped.dtype == bool

    @pytest.mark.parametrize("name", ["ishigami", "flood"])
    def test_shared_codes_match_conditional_entropy_bitwise(self, name):
        # coding each column once per repetition gives exactly the values of
        # coding every leave-one-out input matrix on its own
        bench = builtin(name)
        model = fix_variables(bench.model, dict(bench.entropy_fix or {}))
        spec = HistogramSpec(bins_output=50, bins_per_conditioning_dim=15)
        report = estimate_entropy_indices(model, 100_000, spec, 1,
                                          np.random.default_rng(27))
        rng = np.random.default_rng(27)
        x = sample_inputs(model, 100_000, rng)
        y = evaluate_batch(model, x)
        assert report.h_y == entropy_histogram(y, spec)
        for i in range(model.dim):
            others = [j for j in range(model.dim) if j != i]
            assert report.h_total[i] == conditional_entropy(y, x[:, others], spec)

    def test_mono1_small_scale_sanity(self):
        # H_T1 = 0 and H_T2 = 1/2 for y = x1 + exp(x2)
        model = builtin("mono1").model
        report = estimate_entropy_indices(
            model, 1_000_000, HistogramSpec(316, 316), 1, np.random.default_rng(13))
        assert report.h_total[0] == pytest.approx(0.0, abs=0.03)
        assert report.h_total[1] == pytest.approx(0.5, abs=0.03)

    def test_linear_gaussian_entropy_power_matches_conditional_variance(self):
        # exp(2 H_Ti) = 2*pi*e*V_Ti for the linear Gaussian model
        bench = builtin("mono5", a=(1.0, 2.0))
        er = estimate_entropy_indices(
            bench.model, 1_000_000,
            HistogramSpec(bins_output=200, bins_per_conditioning_dim=60),
            1, np.random.default_rng(14))
        v_t = bench.analytic["v_total"].values
        for i in range(2):
            assert math.exp(2 * er.h_total[i]) == pytest.approx(
                2 * math.pi * math.e * v_t[i], rel=0.02)

    def test_total_entropy_below_derivative_bound(self):
        # fine output grids bias the plug-in conditional entropy downward, so
        # the upper-bound inequality is tested without false alarms from the
        # coarse-grid inflation
        cases = [
            ("mono1", {}, HistogramSpec(1000, 316), 1_000_000),
            ("mono2", {}, HistogramSpec(1000, 316), 1_000_000),
            ("mono3", {}, HistogramSpec(1000, 316), 1_000_000),
            ("mono4", {"r": 2.0}, HistogramSpec(10_000, 100), 1_000_000),
            ("ishigami", {}, HistogramSpec(100, 215), 500_000),
            ("gfunction3", {}, HistogramSpec(100, 215), 500_000),
        ]
        for name, params, spec, n in cases:
            bench = builtin(name, **params)
            er = estimate_entropy_indices(bench.model, n, spec, 3,
                                          np.random.default_rng(15))
            bound = np.array(bench.analytic["h_bound"].values)
            slack = 3 * er.h_total_std
            assert np.all(er.h_total <= bound + slack + 1e-9), (
                f"{name}: {er.h_total} vs bound {bound}")

    def test_total_entropy_below_derivative_bound_reduced_flood(self):
        bench = builtin("flood")
        reduced = fix_variables(bench.model, dict(bench.entropy_fix))
        er = estimate_entropy_indices(reduced, 200_000,
                                      HistogramSpec(100, 30), 2,
                                      np.random.default_rng(16))
        m = estimate_deriv_measures(bench.model, 20_000, rng=np.random.default_rng(17))
        h_x = [d.entropy() for d in bench.model.inputs]
        bounds = np.array([h_x[i] + m.l[i] for i in (0, 1, 2, 4)])
        assert np.all(er.h_total <= bounds + 3 * er.h_total_std + 1e-9)


class TestBounds:
    def test_mono5_bound_equals_total_effect_entropy(self):
        bench = builtin("mono5")
        m = estimate_deriv_measures(bench.model, 1000, rng=np.random.default_rng(18))
        eb = entropy_upper_bounds(m, bench.model.inputs, h_y=2.0)
        np.testing.assert_allclose(eb.h_bound, bench.analytic["h_total"].values,
                                   rtol=1e-9)

    def test_dummy_variable_gets_zero_bounds(self):
        model = Model("dummy-first", (Uniform(0, 1),) * 2, lambda x: x[:, 1].copy())
        m = estimate_deriv_measures(model, 1000, rng=np.random.default_rng(19))
        eb = entropy_upper_bounds(m, model.inputs, h_y=0.3)
        assert eb.h_bound[0] == -math.inf
        assert eb.kappa_bound[0] == 0.0
        assert eb.kappa_bound[1] > 0

    def test_nu_bound_dominates_l_bound(self):
        # e^l <= sqrt(nu) transfers to the exponentiated bounds
        model = builtin("ishigami").model
        m = estimate_deriv_measures(model, 2000, rng=np.random.default_rng(20))
        eb = entropy_upper_bounds(m, model.inputs, h_y=2.2)
        assert np.all(eb.kappa_bound <= eb.nu_kappa_bound * (1 + 1e-12))


class TestKL:
    def test_inert_variable_has_zero_divergence(self):
        model = Model("inert-first", (Uniform(0, 1),) * 2, lambda x: x[:, 1].copy())
        res = kl_total_index(model, 0, 500_000, rng=np.random.default_rng(21))
        assert abs(res.value) < 0.01
        assert not res.floor_warning

    def test_floor_warning_when_conditional_leaves_support(self):
        def evaluator(x):
            return x[:, 1] + 10.0 * (x[:, 0] != 0.5)
        model = Model("jump", (Uniform(0, 1),) * 2, evaluator)
        res = kl_total_index(model, 0, 50_000, rng=np.random.default_rng(22))
        assert res.floor_warning
        assert res.floored_mass > 0.5

    def test_index_validation(self):
        with pytest.raises(ConfigurationError):
            kl_total_index(builtin("mono2").model, 4, 1000,
                           rng=np.random.default_rng(0))

