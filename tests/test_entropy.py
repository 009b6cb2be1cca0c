"""Histogram entropy estimators, entropy indices, bounds, and KL index."""

import logging
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrosa import (ChiSquared, ConfigurationError, Gaussian, HistogramSpec, Model,
                     NumericalError, RunConfig, SparseGridError, Uniform, builtin,
                     conditional_entropy, entropy_histogram, entropy_knn,
                     entropy_upper_bounds, estimate_deriv_measures,
                     estimate_entropy_indices, evaluate_batch,
                     fix_variables, kl_total_index,
                     sample_inputs)
from entrosa import studies
from entrosa.benchmarks import BenchmarkModel
from entrosa.deriv import DerivMeasures
from entrosa.entropy import (_SINGLETON_ERROR_SHARE, _cell_counts, _conditional_from_codes,
                             _run_lengths)
from entrosa.studies import _method_streams, run_from_config

# grids are drawn on both sides of this many cells per sample, so the
# counting kernel meets grids smaller and far larger than the sample
_CELLS_PER_SAMPLE_SPLIT = 3


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

    def test_few_samples_log_no_grid_warning(self, caplog):
        # H(Y) has no conditioning grid, so it cannot be a sparse one
        y = np.array([0.1, 0.4, 0.2, 0.9, 0.7])
        with caplog.at_level(logging.WARNING):
            h = entropy_histogram(y)
        assert h == _reference_entropy(y, 100)
        assert caplog.records == []

    def test_range_too_narrow_to_bin_is_a_numerical_error(self):
        # 100 cells over a subnormal range would need an infinite scale factor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="too narrow"):
                entropy_histogram(np.array([0.0, 1e-315]))

    def test_non_finite_sample_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="non-finite"):
            entropy_histogram([0.0, 1.0, math.inf])

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

    def test_no_conditioning_axis_is_marginal_entropy(self):
        y = np.random.default_rng(9).standard_normal(50_000)
        assert conditional_entropy(y, np.empty((y.size, 0))) == entropy_histogram(y)

    def test_sample_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            conditional_entropy(np.zeros(10), np.zeros((11, 1)))

    def test_no_samples(self):
        with pytest.raises(ConfigurationError, match="at least one sample"):
            conditional_entropy(np.zeros(0), np.zeros((0, 1)))
        with pytest.raises(ConfigurationError, match="at least one sample"):
            entropy_histogram(np.zeros(0))

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


def _reference_kl(model, n, spec, rng):
    """KL value and floored mass per input from dense np.bincount counts over
    every output cell, on the draws kl_total_index makes."""
    x = sample_inputs(model, n, rng)
    y0 = evaluate_batch(model, x)
    bins = spec.bins_output
    value, floored_mass = np.zeros((2, model.dim))
    for i, dist in enumerate(model.inputs):
        frozen = x.copy(order="K")
        frozen[:, i] = dist.mean()
        y1 = evaluate_batch(model, frozen)
        codes, _ = _reference_codes(np.concatenate([y0, y1]), bins)
        if codes is None:
            continue
        p0 = np.bincount(codes[:n], minlength=bins) / n
        p1 = np.bincount(codes[n:], minlength=bins) / n
        mask = p1 > 0
        floored_mass[i] = p1[mask & (p0 == 0)].sum()
        p0_safe = np.maximum(p0, 0.5 / n)
        value[i] = (p1[mask] * np.log(p1[mask] / p0_safe[mask])).sum()
    return value, floored_mass


# an inert first input, a conditional shifted inside the baseline's support,
# and a conditional that leaves it
_KL_MODELS = {
    "inert": Model("inert-first", (Uniform(0, 1),) * 2, lambda x: x[:, 1].copy()),
    "shifted": Model("shifted", (Uniform(0, 1), Uniform(-1, 1)),
                     lambda x: np.exp(x[:, 0]) + x[:, 1] ** 2),
    "off-support": Model("jump", (Uniform(0, 1),) * 2,
                         lambda x: x[:, 1] + 10.0 * (x[:, 0] != 0.5)),
}


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
    """A sample and a histogram spec whose conditioning grid has at most
    (dense) or more than (sparse) _CELLS_PER_SAMPLE_SPLIT cells per sample."""
    n = draw(st.integers(20, 4000))
    k = draw(st.integers(1, 3))
    constant = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    if not dense:
        constant[0] = False     # an all-constant grid has one cell
    live = k - sum(constant)
    limit = _CELLS_PER_SAMPLE_SPLIT * n
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

    def test_grid_of_2_to_the_36_cells_codes_in_int64(self):
        # 1024^3 conditioning cells x 64 output bins overflow int32 codes;
        # a few discrete levels per input keep the occupied cells populated
        rng = np.random.default_rng(31)
        x = rng.integers(0, 5, (20_000, 3)).astype(float)
        y = x.sum(axis=1) + rng.normal(size=20_000)
        spec = HistogramSpec(bins_output=64, bins_per_conditioning_dim=1024)
        expected, singleton_share = _reference_conditional(y, x, spec)
        assert singleton_share == 0.0
        assert conditional_entropy(y, x, spec) == expected

    @pytest.mark.parametrize("bins", [7, 100, 5000])
    @pytest.mark.parametrize("name", list(_KL_MODELS))
    def test_kl_bitwise_equal_to_dense_counts(self, name, bins):
        model = _KL_MODELS[name]
        spec = HistogramSpec(bins_output=bins)
        value, floored_mass = _reference_kl(model, 20_000, spec, np.random.default_rng(33))
        res = kl_total_index(model, 20_000, spec, np.random.default_rng(33))
        np.testing.assert_array_equal(res.kl, value)
        np.testing.assert_array_equal(res.floored_mass, floored_mass)
        if name == "off-support":
            assert floored_mass[0] > 0.5

    @pytest.mark.parametrize("bins", [2 ** 15, 40_000], ids=["int16", "int32"])
    def test_kl_on_either_side_of_the_int16_code_limit(self, bins):
        model = builtin("ishigami").model
        spec = HistogramSpec(bins_output=bins)
        value, floored_mass = _reference_kl(model, 20_000, spec, np.random.default_rng(38))
        res = kl_total_index(model, 20_000, spec, np.random.default_rng(38))
        np.testing.assert_array_equal(res.kl, value)
        np.testing.assert_array_equal(res.floored_mass, floored_mass)

    @pytest.mark.parametrize("estimate", [
        lambda spec: entropy_histogram(np.random.default_rng(34).random(1000), spec),
        lambda spec: kl_total_index(_KL_MODELS["shifted"], 1000, spec,
                                    np.random.default_rng(34)),
    ], ids=["entropy_histogram", "kl_total_index"])
    def test_fifty_million_output_bins_need_no_per_cell_array(self, estimate):
        # a dense count over 5e7 cells alone would take 400 MB
        spec = HistogramSpec(bins_output=50_000_000)
        tracemalloc.start()
        try:
            estimate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    @pytest.mark.parametrize("bins_output, bins_cond, k, bound", [
        (53, 39, 3, 22.0), (63, 63, 2, 17.5)], ids=["flood grid", "nonlinear grid"])
    def test_a_sparse_counting_pass_holds_at_most_22_bytes_a_sample(self, bins_output,
                                                                    bins_cond, k, bound):
        # flood's grid, 39^3 conditioning cells x 53 output bins, and
        # nonlinear's, 63^2 x 63, at about one occupied cell per sample: the
        # run starts and counts span the sample, the sorted joint codes are
        # freed before the counts are written, and each array at its last use
        n = 2 ** 17
        rng = np.random.default_rng(35)
        spec = HistogramSpec(bins_output=bins_output, bins_per_conditioning_dim=bins_cond)
        ycodes = rng.integers(0, bins_output, n).astype(np.int16)
        cols = [rng.integers(0, bins_cond, n).astype(np.int16) for _ in range(k)]
        tracemalloc.start()
        try:
            _conditional_from_codes(ycodes, 1.0, cols, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * n

    @pytest.mark.parametrize("codes", [np.full(7, 3, dtype=np.int16),
                                       np.array([5], dtype=np.int32)],
                             ids=["one run", "one element"])
    def test_one_run_is_one_cell_holding_every_sample(self, codes):
        cells, starts = _cell_counts(codes.copy())
        assert cells.tolist() == [codes[0]]
        assert _run_lengths(starts, codes.size).tolist() == [codes.size]

    def test_run_lengths_are_int32_below_two_to_the_31_rows_and_int64_from_there(self):
        # only the run starts are arrays, so no sample of that size is made
        lengths = _run_lengths(np.array([0, 3, 2 ** 31 + 1]), 2 ** 31 + 4)
        assert lengths.dtype == np.int64
        assert lengths.tolist() == [3, 2 ** 31 - 2, 3]
        lengths = _run_lengths(np.array([0, 3, 2 ** 31 - 3]), 2 ** 31 - 1)
        assert lengths.dtype == np.int32
        assert lengths.tolist() == [3, 2 ** 31 - 6, 2]


def _entropy_or_sparse(y, x, spec):
    try:
        return conditional_entropy(y, x, spec)
    except SparseGridError:
        return "sparse"


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_row_order_leaves_estimates_bitwise_unchanged(data):
    y, x, spec = data.draw(_grid_case(data.draw(st.booleans())))
    perm = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).permutation(y.size)
    assert _entropy_or_sparse(y[perm], x[perm], spec) == _entropy_or_sparse(y, x, spec)
    assert entropy_histogram(y[perm], spec) == entropy_histogram(y, spec)


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
        x = sample_inputs(model, 100_000, np.random.default_rng(27).spawn(1)[0])
        y = evaluate_batch(model, x)
        assert report.h_y == entropy_histogram(y, spec)
        for i in range(model.dim):
            others = [j for j in range(model.dim) if j != i]
            assert report.h_total[i] == conditional_entropy(y, x[:, others], spec)

    def test_each_repetition_draws_from_its_own_spawned_stream(self, cpus):
        # repetition r samples from rng.spawn(repetitions)[r], so its values
        # do not depend on the repetitions before it, nor on how many run at once
        model = builtin("ishigami").model
        spec = HistogramSpec(bins_output=30, bins_per_conditioning_dim=10)
        for n, reps, k in ((20_000, 3, 1), (50_000, 5, 1), (50_000, 5, 2)):
            cpus(k)
            report = estimate_entropy_indices(model, n, spec, reps, np.random.default_rng(31))
            h_y, h_t = [], []
            for stream in np.random.default_rng(31).spawn(reps):
                x = sample_inputs(model, n, stream)
                y = evaluate_batch(model, x)
                h_y.append(entropy_histogram(y, spec))
                h_t.append([conditional_entropy(y, np.delete(x, i, axis=1), spec)
                            for i in range(model.dim)])
            assert report.h_y == np.mean(h_y)
            np.testing.assert_array_equal(report.h_total, np.mean(h_t, axis=0))
            np.testing.assert_array_equal(report.h_total_std, np.std(h_t, axis=0))

    @pytest.mark.parametrize("k", [1, 2])
    def test_first_failing_repetition_raises_and_cancels_the_rest(self, k, cpus):
        # repetitions 1 and 3 fail, 3 first: the error is repetition 1's, and
        # the repetitions not yet started when it is seen never run
        cpus(k)
        reps, n = 40, 1000
        inputs = (Uniform(0, 1),) * 2
        firsts = [sample_inputs(Model("m", inputs, None), n, stream)[0, 0]
                  for stream in np.random.default_rng(5).spawn(reps)]
        started = []

        def evaluator(x):
            r = firsts.index(x[0, 0])
            started.append(r)
            time.sleep({1: 0.1, 3: 0.0}.get(r, 0.01))
            if r in (1, 3):
                raise NumericalError(f"repetition {r}")
            return x.sum(axis=1)

        with pytest.raises(NumericalError, match="repetition 1"):
            estimate_entropy_indices(Model("m", inputs, evaluator), n,
                                     HistogramSpec(10, 4), reps, np.random.default_rng(5))
        assert 2 <= len(started) < reps

    def test_non_finite_rows_are_dropped_before_coding(self):
        # about 10 of the 20 000 outputs are NaN, a rate below the limit
        model = Model("nan corner", (Uniform(0, 1),) * 2,
                      lambda x: np.where(x[:, 0] < 5e-4, np.nan, x[:, 0] + x[:, 1] ** 2))
        report = estimate_entropy_indices(model, 20_000, repetitions=1,
                                          rng=np.random.default_rng(42))
        x = sample_inputs(model, 20_000, np.random.default_rng(42).spawn(1)[0])
        y = evaluate_batch(model, x)
        good = np.isfinite(y)
        assert 0 < (~good).sum() <= 20
        x, y = x[good], y[good]
        assert report.h_y == entropy_histogram(y)
        assert report.h_total.tolist() == [conditional_entropy(y, x[:, 1]),
                                           conditional_entropy(y, x[:, 0])]

    def test_one_input_model_has_total_entropy_of_the_output(self):
        # no other input to condition on: H_T1 = H(Y) and kappa = 1
        model = Model("one", (Uniform(0, 1),), lambda x: np.exp(x[:, 0]))
        report = estimate_entropy_indices(model, 50_000, repetitions=2,
                                          rng=np.random.default_rng(35))
        assert report.h_total[0] == report.h_y
        assert report.kappa[0] == 1.0 and report.eta[0] == 1.0

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

    @pytest.mark.parametrize("k", [1, 2])
    def test_sparse_grid_warning_names_the_model_and_variable(self, k, caplog, cpus):
        # about 5 samples per conditioning cell: sparse, but few singletons;
        # warnings of functions run side by side must say which is which, and
        # passes run side by side warn in variable order
        cpus(k)
        with caplog.at_level(logging.WARNING, logger="entrosa.entropy"):
            estimate_entropy_indices(builtin("mono2").model, 2000, HistogramSpec(100, 400),
                                     rng=np.random.default_rng(3))
        sparse = [r.getMessage() for r in caplog.records if "sparse" in r.getMessage()]
        assert [m.partition(":")[0] for m in sparse] == ["variable 1 of mono2",
                                                         "variable 2 of mono2"]

    def test_counting_passes_are_bitwise_the_same_at_one_and_two_cpus(self, cpus):
        # one repetition runs alone, so its H(Y) pass and its four
        # leave-one-out passes run side by side at two CPUs
        bench = builtin("flood")
        reduced = fix_variables(bench.model, dict(bench.entropy_fix))
        reports = []
        for k in (1, 2):
            cpus(k)
            reports.append(estimate_entropy_indices(reduced, 2 * 2 ** 16 + 3, repetitions=1,
                                                    rng=np.random.default_rng(36)))
        one, two = reports
        for name in vars(one):
            assert np.array_equal(getattr(one, name), getattr(two, name)), name

    @pytest.mark.parametrize("k", [1, 2])
    def test_first_starved_variable_raises_at_any_cpu_count(self, k, cpus):
        # 5000 cells on each 1-D grid for 1000 samples: both variables starve
        cpus(k)
        with pytest.raises(SparseGridError, match="^variable 1 of mono2: "):
            estimate_entropy_indices(builtin("mono2").model, 1000, HistogramSpec(100, 5000),
                                     rng=np.random.default_rng(37))


class TestKNNEntropy:
    @pytest.mark.parametrize("dist, closed", [
        (Gaussian(0.0, 1.0), 0.5 * math.log(2 * math.pi * math.e)),
        (Uniform(0.0, 1.0), 0.0),
        (ChiSquared(2.0), 1.0 + math.log(2.0)),  # the exponential law of mean 2
    ], ids=["gaussian", "uniform", "chi2-2"])
    def test_closed_forms(self, dist, closed):
        h = np.array([entropy_knn(dist.sample(30_000, np.random.default_rng(seed)))
                      for seed in range(20)])
        assert abs(h.mean() - closed) <= 0.005
        assert np.all(np.abs(h - closed) <= 5 * h.std())

    def test_matches_a_kd_tree(self):
        # the 3rd-neighbour distances of the four windows are those of a tree query
        from scipy.spatial import cKDTree
        from scipy.special import digamma

        y = np.random.default_rng(1).standard_cauchy(500)
        r = cKDTree(y[:, None]).query(y[:, None], k=4)[0][:, 3]
        ref = digamma(500) - digamma(3) + math.log(2.0) + np.log(r).mean()
        assert entropy_knn(y) == pytest.approx(ref, abs=1e-12)

    def test_an_atom_gives_minus_inf_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert entropy_knn(np.r_[np.random.default_rng(2).random(100), [0.5] * 4]) == -math.inf
            assert entropy_knn(np.full(10, 2.0)) == -math.inf

    @pytest.mark.parametrize("samples", [np.arange(3.0), np.r_[np.arange(9.0), np.nan],
                                         np.r_[np.arange(9.0), -np.inf]],
                             ids=["three", "nan", "-inf"])
    def test_needs_four_finite_samples(self, samples):
        with pytest.raises(ConfigurationError, match="at least 4 samples, all finite"):
            entropy_knn(samples)

    @pytest.mark.parametrize("evaluator, method, estimator", [
        (lambda x: np.floor(4 * x[:, 0]) + x[:, 1] * (x[:, 0] > 0.5), "bounds", "histogram"),
        (lambda x: x[:, 0] + x[:, 1], "bounds", "knn"),
        (lambda x: x[:, 0] + x[:, 1], "groups", "knn"),
    ], ids=["step", "deriv-sample", "groups-sample"])
    def test_run_takes_h_y_from_its_derivative_sample(self, evaluator, method, estimator,
                                                      monkeypatch):
        # the step in x1 puts atoms at 0 and 1, so the kNN gives way to the
        # histogram on the same g(x); a groups-only run reads the groups sample
        model = Model("m", (Uniform(0, 1),) * 2, evaluator)
        monkeypatch.setattr(studies, "builtin", lambda name: BenchmarkModel(model))
        config = RunConfig(model="m", methods=(method,), n_samples=3000, n_deriv=2000,
                           groups=((0, 1),), seed=4)
        out = run_from_config(config).metadata["output_entropy"]
        stream, n, groups = (("deriv", config.n_deriv, None) if method == "bounds"
                             else ("groups", config.n_samples, config.groups))
        y = estimate_deriv_measures(model, n, config.fd_step, _method_streams(4)[stream],
                                    groups).y
        h_y = entropy_knn(y) if estimator == "knn" else entropy_histogram(y, HistogramSpec())
        assert out["estimator"] == estimator and out["h_y"] == h_y

    def test_full_model_entropy_supplies_h_y(self):
        config = RunConfig(model="ishigami", methods=("deriv", "entropy", "bounds"),
                           n_samples=20_000, n_deriv=500, repetitions=2, bins_output=32,
                           bins_cond=16, seed=6)
        out = run_from_config(config).metadata["output_entropy"]
        er = estimate_entropy_indices(builtin("ishigami").model, 20_000, HistogramSpec(32, 16),
                                      2, _method_streams(6)["entropy"])
        assert out["estimator"] == "entropy" and out["h_y"] == er.h_y


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

    def test_constant_output_gets_zero_bounds_quietly(self):
        # x1 * x2 with x1 pinned at 0 is constant, so h_y = -inf; the zero
        # derivative still certifies both bounds negligible
        config = RunConfig(model="mono2", fix=((1, 0.0),), methods=("bounds",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row, = run_from_config(config).rows
        assert row["kappa_bound"] == 0.0 and row["nu_kappa_bound"] == 0.0

    def test_a_bound_that_overflows_names_its_input(self):
        # H(X_2) = ln 1e308 and H(Y) = -1: e^(H(X_2) - H(Y)) overflows float64
        inputs = (Uniform(0, 1), Uniform(0, 1e308))

        def measures(l, nu):
            return DerivMeasures(mu=np.sqrt(nu), nu=np.array(nu), l=np.array(l),
                                 zero_derivative_fraction=np.zeros(2), y=np.zeros(1))

        with pytest.raises(NumericalError, match="^kappa_bound of input 2 overflows float64"):
            entropy_upper_bounds(measures([0.0, 0.0], [1.0, 1.0]), inputs, h_y=-1.0)
        with pytest.raises(NumericalError,
                           match="^nu_kappa_bound of input 2 overflows float64"):
            entropy_upper_bounds(measures([0.0, -10.0], [1.0, 1.0]), inputs, h_y=-1.0)
        # a zero derivative sets both bounds to 0 whatever e^(H(X_2) - H(Y)) does
        eb = entropy_upper_bounds(measures([0.0, -math.inf], [1.0, 0.0]), inputs, h_y=-1.0)
        assert eb.kappa_bound[1] == eb.nu_kappa_bound[1] == 0.0

    def test_nu_bound_dominates_l_bound(self):
        # e^l <= sqrt(nu) transfers to the exponentiated bounds
        model = builtin("ishigami").model
        m = estimate_deriv_measures(model, 2000, rng=np.random.default_rng(20))
        eb = entropy_upper_bounds(m, model.inputs, h_y=2.2)
        assert np.all(eb.kappa_bound <= eb.nu_kappa_bound * (1 + 1e-12))


class TestKL:
    def test_inert_variable_has_zero_divergence(self):
        # the evaluator returns a view of its input, which the conditional
        # samples must not overwrite
        model = Model("inert-first", (Uniform(0, 1),) * 2, lambda x: x[:, 1])
        res = kl_total_index(model, 500_000, rng=np.random.default_rng(21))
        assert abs(res.kl[0]) < 0.01
        assert not res.floor_warning[0]
        assert res.kl[1] > 1.0   # freezing the output's only input

    def test_floor_warning_when_conditional_leaves_support(self):
        def evaluator(x):
            return x[:, 1] + 10.0 * (x[:, 0] != 0.5)
        model = Model("jump", (Uniform(0, 1),) * 2, evaluator)
        res = kl_total_index(model, 50_000, rng=np.random.default_rng(22))
        assert res.floor_warning[0]
        assert res.floored_mass[0] > 0.5

    def test_constant_output_has_zero_divergence_quietly(self, caplog):
        model = Model("constant", (Uniform(0, 1),) * 2, lambda x: np.full(len(x), 3.0))
        with caplog.at_level(logging.WARNING):
            res = kl_total_index(model, 1000, rng=np.random.default_rng(23))
        assert res.kl.tolist() == [0.0, 0.0] and res.floored_mass.tolist() == [0.0, 0.0]
        assert not res.floor_warning.any() and caplog.records == []

    def test_rng_is_required(self):
        with pytest.raises(ConfigurationError):
            kl_total_index(builtin("mono2").model, 1000)

