"""Model evaluation, finite differences, and variable fixing."""

import logging
import math

import numpy as np
import pytest

from entrosa import (ConfigurationError, Gaussian, Model, NumericalError,
                     Uniform, builtin, estimate_deriv_measures, estimate_group_l,
                     estimate_total_effect_variance, evaluate_batch,
                     fd_directional_batch, fix_variables, sample_inputs)


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
        estimate_group_l(model, (0, 1), 1000, rng=np.random.default_rng(0))
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
        estimate_group_l(model(), (0, 1), 1000, rng=np.random.default_rng(0))


def test_dimension_mismatch_rejected():
    model = builtin("ishigami").model
    with pytest.raises(ConfigurationError):
        evaluate_batch(model, np.zeros((4, 2)))


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
        with pytest.raises(ConfigurationError):
            fix_variables(builtin("ishigami").model, {5: 0.0})

    def test_value_outside_support_rejected(self):
        with pytest.raises(ConfigurationError):
            fix_variables(builtin("gfunction3").model, {0: 2.0})

    def test_cannot_fix_everything(self):
        with pytest.raises(ConfigurationError):
            fix_variables(builtin("mono2").model, {0: 0.5, 1: 0.5})


def test_gaussian_inputs_sampling_shape():
    model = Model("lin", (Gaussian(0, 1), Gaussian(0, 4)), lambda x: x.sum(axis=1))
    x = sample_inputs(model, 1000, np.random.default_rng(0))
    assert x.shape == (1000, 2)
    assert abs(x[:, 1].std() - 2.0) < 0.15
