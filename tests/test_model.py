"""Model evaluation, finite differences, variable fixing, and the row-block
rule every elementwise pass over a sample follows."""

import logging
import math
import multiprocessing
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import entrosa.entropy
import entrosa.model
import entrosa.studies
import entrosa.variance
from entrosa import (ChiSquared, ConfigurationError, Gaussian, HistogramSpec, Model,
                     NumericalError, Triangular, TruncatedGaussian, TruncatedGumbel, Uniform,
                     builtin, estimate_deriv_measures, estimate_entropy_indices,
                     estimate_total_effect_variance, evaluate_batch, fd_directional_batch,
                     fix_variables, kl_total_index, sample_inputs)
from entrosa.benchmarks import draw_metafunction
from entrosa.deriv import GRAD_FLOOR
from entrosa.entropy import (_axis_codes, _cell_counts, _run_lengths, conditional_entropy,
                             entropy_histogram)
from entrosa.model import (DEFAULT_FD_STEP, _BLOCK_ALIGN, _BLOCK_ROWS, _map_evaluations,
                           _map_in_order, _map_runs, _row_blocks, finite_within_rate)


def test_ishigami_at_origin():
    model = builtin("ishigami").model
    assert evaluate_batch(model, np.zeros((1, 3)))[0] == 0.0


def test_gfunction3_zero_at_center():
    model = builtin("gfunction3").model
    assert evaluate_batch(model, np.full((1, 3), 0.5))[0] == pytest.approx(0.0, abs=1e-12)


def test_gfunction3_is_one_when_all_factors_unit():
    model = builtin("gfunction3").model
    assert evaluate_batch(model, np.full((1, 3), 0.25))[0] == pytest.approx(1.0, abs=1e-12)


def test_flood_at_mean_inputs_matches_direct_substitution():
    bench = builtin("flood")
    means = np.array([d.mean() for d in bench.model.inputs])
    got = evaluate_batch(bench.model, means[None, :])[0]
    # oracle: direct substitution into the overflow formula
    q, ks, zv, zm, dd, cb, length, width = means
    dm = (q / (width * ks * math.sqrt((zm - zv) / length))) ** 0.6
    expected = zv + dm - dd - cb
    assert math.isfinite(got)
    assert got == pytest.approx(expected, rel=1e-12)
    # frozen value from the same substitution, guards against silent drift
    assert got == pytest.approx(-10.97596, abs=2e-4)


def test_evaluate_batch_is_permutation_equivariant():
    model = builtin("ishigami").model
    rng = np.random.default_rng(3)
    x = sample_inputs(model, 500, rng)
    y = evaluate_batch(model, x)
    perm = rng.permutation(500)
    np.testing.assert_array_equal(evaluate_batch(model, x[perm]), y[perm])


def test_all_nonfinite_batch_fails():
    model = Model("nan", (Uniform(0, 1),), lambda x: np.full(x.shape[0], np.nan))
    with pytest.raises(NumericalError):
        evaluate_batch(model, np.full((10, 1), 0.5))


def test_partial_nonfinite_batch_is_tolerated(caplog):
    def evaluator(x):
        y = x[:, 0].copy()
        y[0] = np.inf
        return y
    model = Model("one-bad", (Uniform(0, 1),), evaluator)
    with caplog.at_level(logging.DEBUG):
        y = evaluate_batch(model, np.full((10, 1), 0.5))
    assert np.isfinite(y[1:]).all() and not np.isfinite(y[0])
    # the estimator that excludes the rows logs them, once
    assert caplog.records == []


def test_estimators_refuse_mostly_nonfinite_outputs():
    def evaluator(x):
        return np.where(x[:, 0] < 0.5, np.nan, x[:, 0] + x[:, 1])
    model = Model("half-nan", (Uniform(0, 1),) * 2, evaluator)
    with pytest.raises(NumericalError):
        estimate_deriv_measures(model, 1000, rng=np.random.default_rng(0))
    with pytest.raises(NumericalError):
        estimate_deriv_measures(model, 1000, rng=np.random.default_rng(0), groups=[(0, 1)])
    with pytest.raises(NumericalError):
        estimate_total_effect_variance(model, 1000, np.random.default_rng(0))


def test_nonfinite_partials_count_against_the_rate():
    # g(x) is finite, but every evaluation after it is NaN on half the rows
    def model():
        calls = 0

        def evaluator(x):
            nonlocal calls
            calls += 1
            y = x[:, 0] + x[:, 1]
            return y if calls == 1 else np.where(np.arange(y.size) % 2, np.nan, y)
        return Model("nan-after-first-call", (Uniform(0, 1),) * 2, evaluator)

    with pytest.raises(NumericalError, match="derivative x1"):
        estimate_deriv_measures(model(), 1000, rng=np.random.default_rng(0))
    with pytest.raises(NumericalError, match="group derivative"):
        estimate_deriv_measures(model(), 1000, rng=np.random.default_rng(0),
                                groups=[(0, 1)])


def test_dimension_mismatch_rejected():
    model = builtin("ishigami").model
    with pytest.raises(ConfigurationError):
        evaluate_batch(model, np.zeros((4, 2)))


@pytest.mark.parametrize("call", [
    lambda model: evaluate_batch(model, np.empty((0, 3))),
    lambda model: fd_directional_batch(model, np.empty((0, 3)), np.empty(0), (0,)),
], ids=["evaluate_batch", "fd_directional_batch"])
def test_a_sample_of_no_rows_is_refused_naming_the_model(call):
    with pytest.raises(ConfigurationError, match="^model 'ishigami' was given no rows"):
        call(builtin("ishigami").model)


def _partials(model, x, h=1e-5):
    """(n, d) forward-difference partials, one one-element group per input."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y0 = evaluate_batch(model, x)
    return np.column_stack([fd_directional_batch(model, x, y0, (i,), h)
                            for i in range(model.dim)])


class TestGradient:
    def test_linear_model_exact(self):
        model = builtin("mono3").model  # y = x1 + 3 x2
        g = _partials(model, [0.4, 0.6])[0]
        assert abs(g[0] - 1.0) < 1e-6 and abs(g[1] - 3.0) < 1e-6

    def test_product_rule(self):
        model = builtin("mono2").model  # y = x1 x2
        g = _partials(model, [0.3, 0.7])[0]
        assert abs(g[0] - 0.7) < 1e-5 and abs(g[1] - 0.3) < 1e-5

    def test_ishigami_matches_analytic(self):
        model = builtin("ishigami").model
        rng = np.random.default_rng(11)
        x = sample_inputs(model, 200, rng)
        got = _partials(model, x)
        x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2]
        expected = np.column_stack([
            np.cos(x1) * (1 + 0.1 * x3 ** 4),
            14.0 * np.sin(x2) * np.cos(x2),
            0.4 * x3 ** 3 * np.sin(x1),
        ])
        assert np.max(np.abs(got - expected)) < 1e-3

    def test_mono4_matches_closed_form_partials(self):
        r = 2.0
        model = builtin("mono4", r=r).model
        rng = np.random.default_rng(12)
        x = sample_inputs(model, 100, rng)
        got = _partials(model, x, h=1e-5)
        expected = np.column_stack([x[:, 1] ** r, r * x[:, 0] * x[:, 1] ** (r - 1)])
        # mixed tolerance: the forward-difference error is O(h * |g''|), which
        # dwarfs the vanishing partial near x2 = 0 in purely relative terms
        tol = 10 * 1e-5 * np.maximum(1.0, np.abs(expected))
        assert np.all(np.abs(got - expected) <= tol)

    def test_backward_difference_at_upper_edge(self):
        model = Model("sq", (Uniform(0, 1),), lambda x: x[:, 0] ** 2)
        g = _partials(model, [1.0])[0]
        assert abs(g[0] - 2.0) < 1e-4  # stays in support, backward step

    def test_group_steps_backward_when_one_member_is_at_its_edge(self):
        # y = x1^2 + x2^2 on the unit square; the group derivative is 2 x1 + 2 x2
        # and its forward error is +2h, the backward one -2h
        model = Model("sq2", (Uniform(0, 1), Uniform(0, 1)),
                      lambda x: x[:, 0] ** 2 + x[:, 1] ** 2)
        x = np.array([[1.0, 0.5], [0.5, 1.0], [0.5, 0.5]])
        y0 = evaluate_batch(model, x)
        h = 1e-3
        got = fd_directional_batch(model, x, y0, (0, 1), h)
        np.testing.assert_allclose(got, [3.0 - 2 * h, 3.0 - 2 * h, 2.0 + 2 * h], rtol=1e-9)

    def test_step_must_be_positive(self):
        model = builtin("mono3").model
        x = np.full((1, 2), 0.5)
        with pytest.raises(ConfigurationError):
            fd_directional_batch(model, x, evaluate_batch(model, x), (0,), h=0.0)


def _fd_by_copy(model, x, y0, group, h):
    """The forward difference on a shifted copy of x: the reference for the
    in-place step."""
    sign = np.ones(x.shape[0])
    for i in group:
        sign = np.where(x[:, i] + h <= model.inputs[i].support()[1], sign, -1.0)
    step = sign * h
    shifted = x.copy(order="K")
    for i in group:
        shifted[:, i] += step
    return (evaluate_batch(model, shifted) - y0) / step


def _columnwise(x):
    # elementwise in each column, so its bits do not depend on the layout
    y = np.zeros(x.shape[0])
    for j in range(x.shape[1]):
        y += (j + 1.0) * x[:, j] * x[:, j] + np.sin(x[:, j])
    return y


def _failing_on_call(k, evaluator):
    """``evaluator``, raising NumericalError on its k-th call; ``evaluator``
    itself when k is None."""
    if k is None:
        return evaluator
    calls = 0

    def wrapped(x):
        nonlocal calls
        calls += 1
        if calls == k:
            raise NumericalError(f"call {k} fails")
        return evaluator(x)
    return wrapped


def _outcome(fail_on):
    return (nullcontext() if fail_on is None
            else pytest.raises(NumericalError, match=f"call {fail_on}"))


# module, estimate and number of model calls on three Uniform(0, 1) inputs
_SAMPLE_HOLDERS = {
    # g(A), g(B), then g(AB_i) for i = 1, 2, 3
    "variance": (entrosa.variance,
                 lambda model, rng: estimate_total_effect_variance(model, 300, rng), 5),
    # g(x), then g(x with x_i at its mean) for i = 1, 2, 3
    "kl": (entrosa.entropy, lambda model, rng: kl_total_index(model, 2000, rng=rng), 4),
}


class TestInPlacePerturbation:
    """The estimators step, swap or freeze one column of their sample in
    place, and must leave the sample as they found it."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_fd_equals_the_copy_reference_and_restores_x(self, data):
        n = data.draw(st.integers(1, 200), label="n")
        d = data.draw(st.integers(1, 6), label="d")
        order = data.draw(st.sampled_from("CF"), label="order")
        group = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d,
                                   unique=True), label="group")
        h = data.draw(st.floats(1e-9, 0.5), label="h")
        inputs = tuple(Uniform(-1.0, 1.0 + j) for j in range(d))
        model = Model("columnwise", inputs, _columnwise)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        x = np.asarray(sample_inputs(model, n, rng), order=order)
        # rows on the upper edge of a column, which step backward
        edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, d - 1)),
                                   max_size=n), label="edges")
        for row, col in edges:
            x[row, col] = inputs[col].support()[1]
        before = x.copy(order="K")
        y0 = evaluate_batch(model, x)
        got = fd_directional_batch(model, x, y0, tuple(group), h)
        assert np.array_equal(x, before)
        assert np.array_equal(got, _fd_by_copy(model, x, y0, tuple(group), h))

    @pytest.mark.parametrize("group", [(1,), (0, 1, 2)])
    @pytest.mark.parametrize("fail_on", [None, 2])
    def test_fd_restores_x(self, group, fail_on):
        model = Model("columnwise", (Uniform(0, 1),) * 3,
                      _failing_on_call(fail_on, _columnwise))
        x = sample_inputs(model, 500, np.random.default_rng(8))
        x[::7, 1] = 1.0
        before = x.copy(order="K")
        y0 = evaluate_batch(model, x)
        with _outcome(fail_on):
            fd_directional_batch(model, x, y0, group)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("method, fail_on", [
        (method, k) for method, (_, _, calls) in _SAMPLE_HOLDERS.items()
        for k in (None, *range(2, calls + 1))])
    def test_pick_and_freeze_and_kl_restore_their_samples(self, method, fail_on,
                                                          monkeypatch):
        module, estimate, _ = _SAMPLE_HOLDERS[method]
        drawn = []

        def sample_and_keep(model, n, rng):
            drawn.append(sample_inputs(model, n, rng))
            return drawn[-1]

        monkeypatch.setattr(module, "sample_inputs", sample_and_keep)
        model = Model("columnwise", (Uniform(0, 1),) * 3,
                      _failing_on_call(fail_on, _columnwise))
        with _outcome(fail_on):
            estimate(model, np.random.default_rng(9))
        replay = np.random.default_rng(9)
        for sample in drawn:
            assert np.array_equal(sample, sample_inputs(model, sample.shape[0], replay))


class TestEvaluatorReturningAView:
    """``lambda x: x[:, 0]`` hands back the memory of its input, which the
    in-place perturbations then change; ``evaluate_batch`` copies it."""

    model = Model("view", (Uniform(0, 1),) * 2, lambda x: x[:, 0])

    def test_evaluate_batch_copies_the_view(self):
        x = sample_inputs(self.model, 50, np.random.default_rng(12))
        y = evaluate_batch(self.model, x)
        assert not np.may_share_memory(y, x)
        assert np.array_equal(y, x[:, 0])

    def test_derivative_measures(self):
        m = estimate_deriv_measures(self.model, 2000, rng=np.random.default_rng(13))
        np.testing.assert_allclose(m.mu, [1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(m.nu, [1.0, 0.0], atol=1e-9)
        assert abs(m.l[0]) < 1e-9 and m.l[1] == -math.inf

    def test_pick_and_freeze(self):
        vr = estimate_total_effect_variance(self.model, 1000, np.random.default_rng(14))
        replay = np.random.default_rng(14)
        a = sample_inputs(self.model, 1000, replay)
        b = sample_inputs(self.model, 1000, replay)
        diff = a[:, 0] - b[:, 0]
        assert vr.v_total[1] == 0.0
        assert vr.v_total[0] == 0.5 * float(np.mean(diff * diff))


class TestFixVariables:
    def test_flood_reduction_to_four_dims(self):
        bench = builtin("flood")
        reduced = fix_variables(bench.model, dict(bench.entropy_fix))
        assert reduced.dim == 4
        rng = np.random.default_rng(4)
        xr = sample_inputs(reduced, 50, rng)
        # inject by hand to cross-check the reduction wiring
        full = np.empty((50, 8))
        full[:, [0, 1, 2, 4]] = xr
        full[:, 3], full[:, 5], full[:, 6], full[:, 7] = 55.0, 55.5, 5000.0, 300.0
        np.testing.assert_allclose(evaluate_batch(reduced, xr),
                                   evaluate_batch(bench.model, full), rtol=1e-13)

    def test_reduced_model_passes_fortran_columns(self):
        # the layout sample_inputs gives an unreduced model
        seen = []

        def spy(x):
            seen.append(x.flags.f_contiguous)
            return x[:, 0] + x[:, 2]

        reduced = fix_variables(Model("spy", (Uniform(0, 1),) * 3, spy), {1: 0.5})
        evaluate_batch(reduced, sample_inputs(reduced, 20, np.random.default_rng(6)))
        assert seen == [True]

    @staticmethod
    def _flood_pinned(n, seed, evaluator=None):
        """Flood's entropy reduction, its reduced sample of ``n`` rows and the
        full (n, 8) matrix with the pinned values written in."""
        bench = builtin("flood")
        base = Model("flood", bench.model.inputs, evaluator or bench.model.evaluator)
        reduced = fix_variables(base, dict(bench.entropy_fix))
        xr = sample_inputs(reduced, n, np.random.default_rng(seed))
        full = np.empty((n, 8), order="F")
        full[:, [0, 1, 2, 4]] = xr
        for i, v in bench.entropy_fix.items():
            full[:, i] = v
        return bench.model, reduced, xr, full

    @pytest.mark.parametrize("n, k, blocks", [
        (50, 1, [50]), (2 * 2 ** 16 + 3, 1, [44032, 44032, 43011]),
        (2 * 2 ** 16 + 3, 2, [2 ** 15, 2 ** 15, 2 ** 15, 2 ** 15 + 3])],
        ids=["one-block", "three-blocks", "three-blocks-on-two-cpus"])
    def test_flood_reduction_is_bitwise_the_full_model(self, n, k, blocks, cpus):
        # the evaluator sees row blocks of at most 2**16 rows, as even as
        # whole 1024-row units allow: 3 in row order on one CPU, and on two
        # 4, a multiple of the width, in any order
        cpus(k)
        rows = []

        def spy(x):
            rows.append(x.shape[0])
            return builtin("flood").model.evaluator(x)

        model, reduced, xr, full = self._flood_pinned(n, 4, spy)
        assert np.array_equal(evaluate_batch(reduced, xr), evaluate_batch(model, full))
        assert (rows if k == 1 else sorted(rows)) == blocks

    def test_row_blocks_bound_the_memory_of_an_evaluation(self):
        # a full (n, 8) copy of the sample alone would be 96 MB; the output is 12 MB
        _, reduced, xr, _ = self._flood_pinned(1_500_000, 10)
        tracemalloc.start()
        try:
            evaluate_batch(reduced, xr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6

    def test_wrong_output_shape_of_a_block_is_refused(self):
        reduced = fix_variables(Model("scalar", (Uniform(0, 1),) * 2, lambda x: 1.0), {0: 0.5})
        with pytest.raises(NumericalError, match="returned shape"):
            evaluate_batch(reduced, np.zeros((5, 1)))

    def test_fix_nothing_is_identity(self):
        model = builtin("ishigami").model
        assert fix_variables(model, {}) is model

    def test_ishigami_with_x3_zero(self):
        model = builtin("ishigami").model
        reduced = fix_variables(model, {2: 0.0})
        assert reduced.dim == 2
        rng = np.random.default_rng(5)
        xr = sample_inputs(reduced, 100, rng)
        expected = np.sin(xr[:, 0]) + 7 * np.sin(xr[:, 1]) ** 2
        np.testing.assert_allclose(evaluate_batch(reduced, xr), expected, rtol=1e-13)

    def test_bad_index_rejected(self):
        with pytest.raises(ConfigurationError, match=r"x6: the model has inputs x1\.\.x3"):
            fix_variables(builtin("ishigami").model, {5: 0.0})

    def test_value_outside_support_rejected(self):
        with pytest.raises(ConfigurationError, match=r"fixed x1 = 2\.0 is outside its support \[0"):
            fix_variables(builtin("gfunction3").model, {0: 2.0})

    def test_cannot_fix_everything(self):
        with pytest.raises(ConfigurationError):
            fix_variables(builtin("mono2").model, {0: 0.5, 1: 0.5})


def test_sample_inputs_draws_each_column_as_its_law_would():
    model = builtin("flood").model
    x = sample_inputs(model, 1000, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    for j, dist in enumerate(model.inputs):
        assert np.array_equal(x[:, j], dist.sample(1000, rng))


@pytest.mark.parametrize("n", [0, -3])
def test_sample_inputs_refuses_an_empty_sample(n):
    with pytest.raises(ConfigurationError, match="sample size must be >= 1"):
        sample_inputs(builtin("ishigami").model, n, np.random.default_rng(0))


def test_gaussian_inputs_sampling_shape():
    model = Model("lin", (Gaussian(0, 1), Gaussian(0, 4)), lambda x: x.sum(axis=1))
    x = sample_inputs(model, 1000, np.random.default_rng(0))
    assert x.shape == (1000, 2)
    assert abs(x[:, 1].std() - 2.0) < 0.15


class TestRowBlocks:
    """Evaluation, the laws' transforms and the histogram's axis codes run on
    row blocks of at most 2^16 rows, on one thread or several, with the same
    bits; a map called inside a task of another runs inline."""

    SIZES = [1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 3]
    # the six kinds, with truncated windows left and right of the median
    LAWS = (Uniform(7.0, 9.0), Gaussian(30.0, 64.0), Triangular(49.0, 50.0, 51.0),
            ChiSquared(13.978), TruncatedGaussian(30.0, 64.0, 15.0, math.inf),
            TruncatedGumbel(1013.0, 558.0, 500.0, 3000.0),
            TruncatedGaussian(0.0, 1.0, 6.8294156, math.inf),
            TruncatedGumbel(0.0, 1.0, 0.5, math.inf))

    @staticmethod
    def _at_one_and_two_cpus(cpus, run):
        results = []
        for k in (1, 2):
            cpus(k)
            results.append(run())
        return results

    @pytest.mark.parametrize("n", SIZES)
    def test_evaluation_is_bitwise_the_same_at_one_and_two_cpus(self, n, cpus):
        for name in ("ishigami", "gfunction9_case1", "flood", "mono5"):
            model = builtin(name).model
            x = sample_inputs(model, n, np.random.default_rng(n))
            one, two = self._at_one_and_two_cpus(cpus, lambda: evaluate_batch(model, x))
            assert np.array_equal(one, two), name

    @pytest.mark.parametrize("n", SIZES)
    def test_sampling_is_bitwise_the_same_at_one_and_two_cpus(self, n, cpus):
        model = Model("laws", self.LAWS, None)
        one, two = self._at_one_and_two_cpus(
            cpus, lambda: sample_inputs(model, n, np.random.default_rng(3)))
        assert np.array_equal(one, two)
        # and each column is its law's draw on the whole vector
        rng = np.random.default_rng(3)
        for j, dist in enumerate(self.LAWS):
            assert np.array_equal(two[:, j], dist.sample(n, rng)), dist

    @pytest.mark.parametrize("n", [1, 1023, 1024, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   2 * _BLOCK_ROWS + 3, 200_000, 300_000, 1_500_000])
    def test_row_blocks_are_even_and_aligned_on_several_cpus(self, n, cpus):
        # k CPUs, one included: ceil(n / 2^16) blocks rounded up to a
        # multiple of the width, on 1024-row boundaries, none above 2^16
        for k in (1, 2, 3, 4):
            cpus(k)
            blocks = _row_blocks(n)
            starts = [b.start for b in blocks]
            assert starts[0] == 0 and blocks[-1].stop == n
            assert [b.stop for b in blocks[:-1]] == starts[1:]
            assert all(0 < b.stop - b.start <= _BLOCK_ROWS for b in blocks)
            count = -(-n // _BLOCK_ROWS)
            width = min(count, k)
            assert len(blocks) == -(-count // width) * width
            assert all(start % _BLOCK_ALIGN == 0 for start in starts)
            sizes = [b.stop - b.start for b in blocks]
            # block sizes differ by at most one unit, plus the last block's short unit
            assert max(sizes) - min(sizes) < 2 * _BLOCK_ALIGN

    # the stream kinds whose uniform fills split into row blocks, and two that
    # fill serially
    STREAMS = (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox)

    @pytest.mark.parametrize("stream", STREAMS, ids=lambda s: s.__name__)
    @pytest.mark.parametrize("n", [1000, 2 * _BLOCK_ROWS + 3, 300_000])
    def test_split_fills_draw_and_leave_the_stream_as_serial_ones(self, n, stream, cpus,
                                                                  monkeypatch):
        # a Gaussian and a chi-squared column between uniform-filled ones, and
        # a stream holding a buffered 32-bit draw, which the split fill keeps
        model = Model("laws", self.LAWS[:1] + self.LAWS + self.LAWS[2:3], None)
        skips = []
        skip = entrosa.model._skip
        monkeypatch.setattr(entrosa.model, "_skip",
                            lambda bitgen, draws: skips.append(draws) or skip(bitgen, draws))

        def fresh():
            rng = np.random.Generator(stream(17))
            rng.integers(2 ** 31)
            return rng

        serial = fresh()
        columns = [dist.sample(n, serial) for dist in model.inputs]
        after = serial.random(), serial.integers(2 ** 31), serial.random()
        for k in (1, 2, 3):
            cpus(k)
            skips.clear()
            rng = fresh()
            x = sample_inputs(model, n, rng)
            for j, column in enumerate(columns):
                assert np.array_equal(x[:, j], column), (k, model.inputs[j])
            assert (rng.random(), rng.integers(2 ** 31), rng.random()) == after
            split = k > 1 and n > _BLOCK_ROWS and stream in (np.random.PCG64,
                                                             np.random.PCG64DXSM)
            # each of the eight uniform-filled columns skips its n draws
            assert skips == ([n] * 8 if split else []), k

    @pytest.mark.parametrize("n", [2 * _BLOCK_ROWS + 3, 300_000])
    def test_blas_evaluators_keep_their_bits_at_one_two_and_three_cpus(self, n, cpus):
        # mono5 and the metafunctions take matrix products of their blocks,
        # whose bits hold on blocks that start on 1024-row boundaries
        rng = np.random.default_rng(41)
        models = [builtin("mono5").model] + [draw_metafunction(rng, s)[1] for s in range(20)]
        for model in models:
            x = sample_inputs(model, n, np.random.default_rng(n))
            results = []
            for k in (1, 2, 3):
                cpus(k)
                results.append(evaluate_batch(model, x))
            assert all(np.array_equal(results[0], r) for r in results[1:]), model.name

    @pytest.mark.parametrize("bins, dtype", [(37, np.int16), (2 ** 15, np.int16),
                                             (2 ** 15 + 1, np.int32)])
    @pytest.mark.parametrize("n", SIZES)
    def test_axis_codes_are_bitwise_the_same_at_one_and_two_cpus(self, n, bins, dtype, cpus):
        # a strided column too, as conditional_entropy may pass one; codes
        # take 2 bytes up to 2^15 cells and 4 above
        for values in (np.random.default_rng(n).standard_normal((n, 2))[:, 1],
                       np.linspace(-1.0, 1.0, n) ** 3):
            one, two = self._at_one_and_two_cpus(cpus, lambda: _axis_codes(values, bins))
            assert one[1] == two[1]
            if n == 1:
                assert one[0] is two[0] is None
                continue
            assert np.array_equal(one[0], two[0])
            assert two[0].dtype == dtype and two[0].max() == bins - 1
            lo = values.min()
            reference = ((values - lo) * (bins / (values.max() - lo))).astype(np.int32)
            assert np.array_equal(two[0], np.minimum(reference, bins - 1))

    def test_a_map_inside_a_task_runs_on_the_thread_of_the_task(self, cpus, monkeypatch):
        cpus(2)
        cpu_reads = []
        usable_cpus = entrosa.model._usable_cpus

        def counted_usable_cpus():
            cpu_reads.append(threading.get_ident())
            return usable_cpus()

        monkeypatch.setattr(entrosa.model, "_usable_cpus", counted_usable_cpus)
        caller = threading.get_ident()
        # the two tasks meet, so they run on two threads at once
        meet = threading.Barrier(2, timeout=30)

        def inner_item(_):
            time.sleep(0.01)
            return threading.get_ident()

        def task(_):
            meet.wait()
            if threading.get_ident() == caller:
                time.sleep(0.2)  # the pool's thread is idle by now, and is not used
            return threading.get_ident(), _map_in_order(inner_item, range(4))

        results = _map_in_order(task, range(2))
        assert len({outer for outer, _ in results}) == 2
        for outer, inner in results:
            assert inner == [outer] * 4
        assert cpu_reads == [caller]  # the inner maps read no CPU count

    def test_every_map_keeps_its_width(self, cpus, monkeypatch):
        # width = min(items, CPUs, _POOL_BYTES // item_bytes): a repetition of
        # the nonlinear preset (2.5e5 samples of 3 inputs) holds 12 MB, so 5
        # fit in 64 MiB, and a flood one (1.5e6 of 4) holds 90 MB and runs
        # alone; its 5 counting passes hold 30 MB each, so 2 of those run at
        # once; row blocks declare no bytes, the estimators' per-input passes
        # included, and metastudy functions, on forked workers, none either.
        # The blocks are cut at two CPUs, where 3 * 2^16 + 1 rows make 4
        # blocks, and 4 is a multiple of the width
        cpus(2)
        declared = {}

        class Declared(Exception):
            pass

        def record(name, calls_before=0):
            # the first ``calls_before`` maps run, and the next is recorded
            calls = []

            def stop_before_any_item_runs(fn, items, item_bytes=0):
                calls.append(item_bytes)
                if len(calls) <= calls_before:
                    return _map_in_order(fn, items, item_bytes)
                declared[name] = list(items), item_bytes
                raise Declared
            return stop_before_any_item_runs

        def repetitions(d, n, reps):
            return lambda: estimate_entropy_indices(Model("m", (Uniform(0, 1),) * d, None), n,
                                                    repetitions=reps,
                                                    rng=np.random.default_rng(0))

        blocks = Model("m", (Uniform(0, 1),), lambda x: x[:, 0])
        flood_shaped = Model("m", (Uniform(0, 1),) * 4, lambda x: x.sum(axis=1))
        for name, module, call, calls_before in (
                ("nonlinear", entrosa.entropy, repetitions(3, 250_000, 20), 0),
                ("flood", entrosa.entropy, repetitions(4, 1_500_000, 3), 0),
                ("flood passes", entrosa.entropy,
                 lambda: estimate_entropy_indices(flood_shaped, 1_500_000, repetitions=3,
                                                  rng=np.random.default_rng(0)), 1),
                ("metastudy", entrosa.studies, lambda: entrosa.studies.metastudy(10, 1000, 0), 0),
                ("row blocks", entrosa.model,
                 lambda: evaluate_batch(blocks, np.zeros((3 * _BLOCK_ROWS + 1, 1))), 0),
                # after the maps that draw and evaluate the samples
                ("finite differences", entrosa.model,
                 lambda: fd_directional_batch(blocks, np.zeros((3 * _BLOCK_ROWS + 1, 1)),
                                              np.zeros(3 * _BLOCK_ROWS + 1), (0,)), 0),
                ("derivative stats", entrosa.model,
                 lambda: estimate_deriv_measures(blocks, 3 * _BLOCK_ROWS + 1,
                                                 rng=np.random.default_rng(0)), 3),
                ("pick-and-freeze", entrosa.model,
                 lambda: estimate_total_effect_variance(blocks, 3 * _BLOCK_ROWS + 1,
                                                        np.random.default_rng(0)), 4),
                ("kl", entrosa.model,
                 lambda: kl_total_index(blocks, 3 * _BLOCK_ROWS + 1,
                                        rng=np.random.default_rng(0)), 2)):
            runner = "_map_runs" if name == "metastudy" else "_map_in_order"
            with monkeypatch.context() as patch, pytest.raises(Declared):
                patch.setattr(module, runner, record(name, calls_before))
                call()
        assert declared["nonlinear"][1] == 250_000 * 48
        assert declared["flood"][1] == 1_500_000 * 60
        assert declared["flood passes"][1] == 1_500_000 * 20

        # a map of width w asks the pool for w - 1 helper threads, and a map
        # of width 1 for none; a map of whole runs forks w - 1 workers instead
        widths, forks = [], []
        helpers, fork = entrosa.model._helpers, os.fork

        def counted_helpers(threads):
            widths.append(threads + 1)
            return helpers(threads)

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(entrosa.model, "_helpers", counted_helpers)
        monkeypatch.setattr(os, "fork", counted_fork)

        def width(name):
            widths.clear()
            forks.clear()
            if name == "metastudy":
                _map_runs(lambda item: item, declared[name][0])
                assert widths == []
                return len(forks) + 1
            _map_in_order(lambda item: item, *declared[name])
            return max(widths, default=1)

        for k in (1, 2, 4, 16):
            cpus(k)
            assert width("nonlinear") == min(20, k, 5)
            assert width("flood") == 1
            assert width("flood passes") == min(5, k, 2)
            assert width("metastudy") == min(10, k)
            for name in ("row blocks", "finite differences", "derivative stats",
                         "pick-and-freeze", "kl"):
                assert declared[name][1] == 0
                assert width(name) == min(4, k), name

        # inside a repetition on the pool, the passes run inline, its finite
        # differences too: the outer map is the one that asks for helper
        # threads. The metastudy asks for none: its functions run on one
        # forked worker and the caller, and their maps run inline
        cpus(2)
        ishigami = builtin("ishigami").model
        widths.clear()
        estimate_entropy_indices(ishigami, 2000, HistogramSpec(10, 4), 4,
                                 np.random.default_rng(0))
        assert widths == [2]
        widths.clear()
        forks.clear()
        entrosa.studies.metastudy(10, 1000, 0)
        assert widths == [] and forks == [os.getpid()]

    @pytest.mark.parametrize("k", [1, 2])
    def test_the_error_raised_is_the_first_failing_block_in_row_order(self, k, cpus):
        # blocks 1 and 2 fail, block 2 first at two CPUs
        cpus(k)

        def evaluator(x):
            block = int(x[0, 0]) // _BLOCK_ROWS
            if block == 1:
                time.sleep(0.05)
            if block in (1, 2):
                raise NumericalError(f"block {block}")
            return x[:, 0]

        x = np.arange(3 * _BLOCK_ROWS, dtype=float)[:, None]
        with pytest.raises(NumericalError, match="block 1"):
            evaluate_batch(Model("m", (Uniform(0.0, x.size),), evaluator), x)

    def test_one_non_finite_block_fails_the_rate_check_not_the_batch(self, cpus):
        cpus(2)
        model = Model("second block non-finite", (Uniform(0.0, 1.0),),
                      lambda x: x[:, 0] if x[0, 0] < _BLOCK_ROWS else np.full(len(x), np.nan))
        y = evaluate_batch(model, np.arange(2 * _BLOCK_ROWS, dtype=float)[:, None])
        assert np.isfinite(y[:_BLOCK_ROWS]).all() and np.isnan(y[_BLOCK_ROWS:]).all()
        with pytest.raises(NumericalError, match="non-finite value rate 50.00%"):
            finite_within_rate(y, "second block")

    def test_every_item_runs_once_under_frequent_thread_switches(self, cpus):
        # more threads than cores, switching every microsecond
        cpus(8)
        ran = [0] * 20_000

        def item(i):
            ran[i] += 1
            return 3 * i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = _map_in_order(item, range(len(ran)))
        finally:
            sys.setswitchinterval(interval)
        assert results == [3 * i for i in range(len(ran))]
        assert ran == [1] * len(ran)

    def test_a_forked_child_gets_a_pool_of_its_own(self, cpus):
        cpus(2)
        meet = threading.Barrier(2, timeout=30)

        def meet_and_name_the_thread(_):
            meet.wait()
            return threading.get_ident()

        def on_two_threads():
            return len(set(_map_in_order(meet_and_name_the_thread, range(2)))) == 2

        assert on_two_threads()  # the parent's pool has started its thread
        child = multiprocessing.get_context("fork").Process(
            target=lambda: sys.exit(0 if on_two_threads() else 1))
        child.start()
        child.join(60)
        if child.is_alive():
            child.kill()
        assert child.exitcode == 0


def _no_child_left() -> bool:
    """Whether this process has no child left to reap."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@contextmanager
def _alarm(seconds: int):
    """Raise ``TimeoutError`` in the main thread after ``seconds``."""
    def ring(signum, frame):
        raise TimeoutError(f"no answer in {seconds} s")

    handler = signal.signal(signal.SIGALRM, ring)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


class TestMapRuns:
    """Whole runs on forked workers: the caller and w - 1 children take the
    items round-robin, with ``_map_in_order``'s contract."""

    @pytest.mark.parametrize("runner", [_map_in_order, _map_runs])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_the_loop_s_results_or_the_lowest_failing_item_s_error(self, runner, k, data,
                                                                  cpus):
        # failing items of two types, each item taking its own time, so
        # that the failures end in any order
        cpus(k)
        n = data.draw(st.integers(1, 10), label="n")
        failing = data.draw(st.sets(st.integers(0, n - 1)), label="failing")
        sleeps = data.draw(st.lists(st.sampled_from((0.0, 0.002, 0.01)), min_size=n,
                                    max_size=n), label="sleeps")

        def item(i):
            time.sleep(sleeps[i])
            if i in failing:
                raise (ValueError, ConfigurationError)[i % 2](f"item {i}", i)
            return np.full(3, i)

        if not failing:
            results = runner(item, range(n))
            assert [r.tolist() for r in results] == [[i] * 3 for i in range(n)]
        else:
            first = min(failing)
            with pytest.raises((ValueError, ConfigurationError)) as raised:
                runner(item, range(n))
            assert type(raised.value) is (ValueError, ConfigurationError)[first % 2]
            assert raised.value.args == (f"item {first}", first)
        assert _no_child_left()

    @pytest.mark.parametrize("runner", [_map_in_order, _map_runs])
    def test_a_child_s_failure_has_the_child_s_traceback_as_its_cause(self, runner, cpus):
        # at two workers item 3 runs in the child, or on a helper thread
        cpus(2)

        def fail_at_three(i):
            if i == 3:
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match="item 3") as raised:
            runner(fail_at_three, range(6))
        line = fail_at_three.__code__.co_firstlineno + 2
        if runner is _map_runs:
            cause = str(raised.value.__cause__)
            assert f'line {line}, in fail_at_three' in cause and "ValueError: item 3" in cause
        else:
            # a thread's failure keeps its own frames
            assert raised.value.__cause__ is None
            assert any(entry.name == "fail_at_three" and entry.lineno + 1 == line
                       for entry in raised.traceback)
        assert _no_child_left()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_results_are_the_loop_s_in_item_order(self, k, cpus):
        cpus(k)
        caller = os.getpid()

        def item(i):
            return np.random.default_rng(i).random(1000), os.getpid(), entrosa.model._map_width(8)

        results = _map_runs(item, range(7))
        assert len(results) == 7
        for i, (values, pid, width) in enumerate(results):
            assert values.tobytes() == np.random.default_rng(i).random(1000).tobytes()
            # item i runs on worker i % k, the caller being worker 0, and a
            # map inside it runs inline
            assert (pid == caller) == (i % k == 0)
            assert width == 1
        assert len({pid for _, pid, _ in results}) == k
        assert _no_child_left()

    def test_the_first_failure_in_item_order_is_raised(self, cpus):
        # at three workers, item 3 (the caller's) and item 4 (the first
        # child's) fail after item 2 (the second child's) has started, and
        # before it fails
        cpus(3)

        def item(i):
            if i in (2, 3, 4):
                time.sleep(0.2 if i > 2 else 0.5)
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError) as raised:
            _map_runs(item, range(9))
        assert type(raised.value) is ValueError and raised.value.args == ("item 2",)
        assert _no_child_left()

    def test_items_not_started_when_a_failure_is_seen_never_run(self, cpus, tmp_path):
        # every start is logged to one file, from whichever process runs it
        cpus(2)
        log = tmp_path / "started"

        def item(i):
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            os.write(fd, f"{i}\n".encode())
            os.close(fd)
            time.sleep(0.05)
            if i == 1:
                raise ConfigurationError("item 1")
            return i

        with pytest.raises(ConfigurationError, match="item 1"):
            _map_runs(item, range(20))
        started = [int(i) for i in log.read_text().split()]
        assert len(set(started)) == len(started)
        assert {0, 1} <= set(started) and len(started) < 20
        assert _no_child_left()

    def test_a_child_that_ends_without_its_results_raises(self, cpus):
        cpus(2)
        caller = os.getpid()

        def item(i):
            if os.getpid() != caller:
                os._exit(1)
            return i

        with _alarm(60), pytest.raises(ChildProcessError, match="before it sent its results"):
            _map_runs(item, range(4))
        assert _no_child_left()

    def test_an_error_in_the_caller_kills_and_reaps_the_children(self, cpus):
        # the caller's share ends at once, and the alarm rings while it waits
        # for a child that would run for a minute
        cpus(2)
        caller = os.getpid()

        def item(i):
            if os.getpid() != caller:
                time.sleep(60)
            return i

        started = time.perf_counter()
        with _alarm(1), pytest.raises(TimeoutError):
            _map_runs(item, range(2))
        assert time.perf_counter() - started < 30
        assert _no_child_left()

    @pytest.mark.parametrize("where", ["off Linux", "beside another thread", "inside a task"])
    def test_where_fork_is_unsafe_the_runs_take_threads(self, where, cpus, monkeypatch):
        cpus(2)

        def no_fork():
            raise AssertionError("forked")

        def item(i):
            return i, os.getpid()

        monkeypatch.setattr(os, "fork", no_fork)
        expected = [(i, os.getpid()) for i in range(4)]
        if where == "off Linux":
            monkeypatch.setattr(entrosa.model, "_FORKS", False)
            assert _map_runs(item, range(4)) == expected
        elif where == "beside another thread":
            release = threading.Event()
            other = threading.Thread(target=release.wait)
            other.start()
            try:
                assert _map_runs(item, range(4)) == expected
            finally:
                release.set()
                other.join()
        else:
            assert _map_in_order(lambda _: _map_runs(item, range(4)), range(2)) == [expected] * 2

    def test_the_metastudy_forks_from_one_thread(self, cpus, monkeypatch):
        # the helper pool has started a thread, and is shut down before the
        # fork, which so copies one thread: Python 3.12 and later warn on a
        # fork from more
        cpus(2)
        assert _map_in_order(lambda i: i, range(2)) == [0, 1]
        assert threading.active_count() > 1
        threads, fork = [], os.fork

        def counted_fork():
            threads.append(threading.active_count())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entrosa.studies.metastudy(10, 2000, 0, n_deriv=100)
        assert threads == [1]
        assert not [w for w in caught if "fork" in str(w.message)]
        assert _no_child_left()


def _deriv_by_copy(model, n, h, seed, groups):
    """mu, nu, l and the floored share per group, by whole-array formulas on
    shifted copies of the sample."""
    x = sample_inputs(model, n, np.random.default_rng(seed))
    y0 = evaluate_batch(model, x)
    floor = np.maximum(np.finfo(float).eps * np.abs(y0) / h, GRAD_FLOOR)
    measures = []
    for group in groups:
        mag = np.abs(_fd_by_copy(model, x, y0, group, h))
        keep = np.isfinite(mag)
        mag, floor_k = mag[keep], floor[keep]
        floored = mag <= floor_k
        measures.append((mag.mean(), (mag * mag).mean(),
                         -np.inf if floored.all() else np.log(np.maximum(mag, floor_k)).mean(),
                         floored.mean()))
    return np.array(measures).T


def _variance_by_copy(model, n, seed):
    """V(Y) and the V_Ti of pick-and-freeze on hybrid copies of A."""
    rng = np.random.default_rng(seed)
    a, b = sample_inputs(model, n, rng), sample_inputs(model, n, rng)
    y_a = evaluate_batch(model, a)
    y = np.concatenate([y_a, evaluate_batch(model, b)])
    v_total = []
    for i in range(model.dim):
        hybrid = a.copy(order="F")
        hybrid[:, i] = b[:, i]
        diff = y_a - evaluate_batch(model, hybrid)
        diff = diff[np.isfinite(diff)]
        v_total.append(0.5 * float(np.mean(diff * diff)))
    return float(np.var(y[np.isfinite(y)], ddof=1)), np.array(v_total)


def _kl_by_copy(model, n, bins, seed):
    """The KL index and floored mass per input, on frozen copies of x."""
    x = sample_inputs(model, n, np.random.default_rng(seed))
    y0 = evaluate_batch(model, x)
    y0 = y0[np.isfinite(y0)]
    kl, floored_mass = [], []
    for i, dist in enumerate(model.inputs):
        frozen = x.copy(order="F")
        frozen[:, i] = dist.mean()
        y1 = evaluate_batch(model, frozen)
        y1 = y1[np.isfinite(y1)]
        codes, _ = _axis_codes(np.concatenate([y0, y1]), bins)
        cells0, starts0 = _cell_counts(codes[:y0.size])
        cells1, starts1 = _cell_counts(codes[y0.size:])
        counts0, counts1 = _run_lengths(starts0, y0.size), _run_lengths(starts1, y1.size)
        at = np.minimum(np.searchsorted(cells0, cells1), cells0.size - 1)
        p0 = np.where(cells0[at] == cells1, counts0[at] / y0.size, 0.0)
        p1 = counts1 / y1.size
        floored_mass.append(p1[p0 == 0].sum())
        kl.append((p1 * np.log(p1 / np.maximum(p0, 0.5 / y0.size))).sum())
    return np.array(kl), np.array(floored_mass)


def _rarely_nan(x):
    # NaN on about 5e-5 of the rows, below the excluded-rate cap
    return np.where(x[:, 0] < 5e-5, np.nan, _columnwise(x))


def _rarely_inf(x):
    # g = inf on about 5e-5 of the rows: a step off such a row gives an
    # infinite derivative on an infinite floor, floored but not kept
    return np.where(x[:, 0] < 5e-5, np.inf, _columnwise(x))


def _raise_in_block_1(x):
    # x2 is the row index: the block that starts in rows 2^16 to 2^17 - 1
    # raises, and the others give NaN
    if int(x[0, 1]) // _BLOCK_ROWS == 1:
        raise NumericalError("block 1")
    return np.full(len(x), np.nan)


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
class TestFusedPasses:
    """The estimators' per-input passes run in row blocks, their tallies
    are exact, and every other reduction stays whole-array: three blocks,
    or four at two CPUs, give the whole-array formulas' bits at one CPU and
    at two, with and without a few non-finite outputs."""

    N = 2 * _BLOCK_ROWS + 3
    MODELS = (Model("columnwise", (Uniform(0, 1), Uniform(-1, 2), Uniform(0, 1)), _columnwise),
              Model("rarely NaN", (Uniform(0, 1),) * 3, _rarely_nan),
              Model("rarely inf", (Uniform(0, 1),) * 3, _rarely_inf))

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_the_evaluation_pass_tallies_its_outputs(self, model, cpus):
        # the non-finite count, np.min and np.max of a whole-array
        # evaluation, a NaN included
        x = sample_inputs(model, self.N, np.random.default_rng(4))
        y = model.evaluator(x)
        expected = (np.count_nonzero(~np.isfinite(y)), np.min(y), np.max(y))

        def block(rows, x_rows, evaluate):
            evaluate()

        for k in (1, 2):
            cpus(k)
            assert np.array_equal(_map_evaluations(model, x, block), expected, equal_nan=True)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    @pytest.mark.parametrize("groups", [None, ((0, 2), (1,), (0, 1, 2))])
    def test_derivative_measures(self, model, groups, cpus):
        # a step of 1e-3 goes backward on about a thousandth of each column's rows
        h = 1e-3
        reference = _deriv_by_copy(model, self.N, h, 5,
                                   groups or [(i,) for i in range(model.dim)])
        x = sample_inputs(model, self.N, np.random.default_rng(5))
        assert all(((x[:, i] + h > dist.support()[1]).sum() > 10)
                   for i, dist in enumerate(model.inputs))
        for k in (1, 2):
            cpus(k)
            m = estimate_deriv_measures(model, self.N, h, np.random.default_rng(5), groups)
            assert np.array_equal(np.stack([m.mu, m.nu, m.l, m.zero_derivative_fraction]),
                                  reference)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_pick_and_freeze(self, model, cpus):
        v_y, v_total = _variance_by_copy(model, self.N, 6)
        for k in (1, 2):
            cpus(k)
            vr = estimate_total_effect_variance(model, self.N, np.random.default_rng(6))
            assert vr.v_y == v_y
            assert np.array_equal(vr.v_total, v_total)
            assert np.array_equal(vr.s_total, v_total / v_y)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_kl(self, model, cpus):
        kl, floored_mass = _kl_by_copy(model, self.N, 64, 7)
        for k in (1, 2):
            cpus(k)
            res = kl_total_index(model, self.N, HistogramSpec(64, 2), np.random.default_rng(7))
            assert np.array_equal(res.kl, kl)
            assert np.array_equal(res.floored_mass, floored_mass)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_entropy_repetition(self, model, cpus):
        # the coder's spans and the non-finite count come from the passes
        # that draw and evaluate the sample
        spec = HistogramSpec(64, 8)
        x = sample_inputs(model, self.N, np.random.default_rng(8).spawn(1)[0])
        y = evaluate_batch(model, x)
        good = np.isfinite(y)
        x, y = x[good], y[good]
        h_t = [conditional_entropy(y, np.delete(x, i, axis=1), spec) for i in range(3)]
        for k in (1, 2):
            cpus(k)
            report = estimate_entropy_indices(model, self.N, spec, 1, np.random.default_rng(8))
            assert report.h_y == entropy_histogram(y, spec)
            assert report.h_total.tolist() == h_t

    # a sample whose x1 is 0.25, x2 the row index and x3 0 (B's x1 is 0.75
    # and x3 1), and the evaluator's fault on the blocks of that sample
    # where a pass has changed x1
    FAULTS = {
        "shape": lambda x: np.ones((len(x), 2)),
        "non-finite": lambda x: np.full(len(x), np.nan),
        "raises in block 1": _raise_in_block_1,
    }

    @staticmethod
    def _passes(monkeypatch, a):
        b = a.copy(order="F")
        b[:, 0], b[:, 2] = 0.75, 1.0
        drawn = {entrosa.variance: [a, b], entrosa.entropy: [a]}
        for module, samples in drawn.items():
            monkeypatch.setattr(module, "sample_inputs",
                                lambda model, n, rng, samples=samples: samples.pop(0))
        n = len(a)
        return {
            "finite differences": lambda model: fd_directional_batch(model, a, np.zeros(n), (0,)),
            "pick-and-freeze": lambda model: estimate_total_effect_variance(model, n, None),
            "kl": lambda model: kl_total_index(model, n, rng=np.random.default_rng(0)),
        }

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("name", ["finite differences", "pick-and-freeze", "kl"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_a_faulty_evaluator_fails_a_pass_as_it_fails_evaluate_batch(
            self, k, name, fault, cpus, monkeypatch):
        cpus(k)
        a = np.zeros((self.N, 3), order="F")
        a[:, 0], a[:, 1] = 0.25, np.arange(self.N)
        before = a.copy(order="F")
        inputs = (Uniform(0, 1), Uniform(0, self.N), Uniform(0, 1))

        def evaluator(x):
            # g(A) and g(B) are sound; the blocks a pass changed are not
            changed = x[0, 0] != 0.25 and x[0, 2] == 0.0
            return self.FAULTS[fault](x) if changed else x[:, 0] + x[:, 1]

        model = Model("m", inputs, evaluator)
        changed = a.copy(order="F")
        changed[:, 0] = 0.5
        with pytest.raises(NumericalError) as expected:
            evaluate_batch(model, changed)
        with pytest.raises(NumericalError) as raised:
            self._passes(monkeypatch, a)[name](model)
        assert str(raised.value) == str(expected.value)
        assert np.array_equal(a, before)

