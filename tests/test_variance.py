"""Pick-and-freeze total-effect variance and the derivative-based bound."""

import warnings

import numpy as np
import pytest

import entrosa.variance
from entrosa import (ConfigurationError, Gaussian, Model, NumericalError,
                     Uniform, builtin,
                     estimate_deriv_measures, estimate_total_effect_variance,
                     variance_upper_bound)
from entrosa.model import finite_within_rate
from entrosa.variance import poincare_constant


def test_mono5_two_variable_shares():
    bench = builtin("mono5", a=(1.0, 2.0))
    report = estimate_total_effect_variance(bench.model, 100_000,
                                            np.random.default_rng(0))
    np.testing.assert_allclose(report.s_total, [0.2, 0.8], atol=0.01)


def test_ratio_chi2_near_tie():
    bench = builtin("ratio_chi2")
    report = estimate_total_effect_variance(bench.model, 100_000,
                                            np.random.default_rng(1))
    expected = bench.analytic["s_total"].values
    np.testing.assert_allclose(report.s_total, expected, atol=0.02)
    assert abs(report.s_total[0] - report.s_total[1]) < 0.02  # indistinguishable pair


def test_total_effect_below_total_variance():
    for name in ("ishigami", "gfunction3", "mono2"):
        report = estimate_total_effect_variance(builtin(name).model, 20_000,
                                                np.random.default_rng(2))
        assert np.all(report.v_total <= report.v_y * 1.05)


def test_constant_model_reports_undefined_shares():
    model = Model("const", (Uniform(0, 1),) * 2,
                  lambda x: np.full(x.shape[0], 3.25))
    report = estimate_total_effect_variance(model, 1000, np.random.default_rng(3))
    assert np.isnan(report.s_total).all()


@pytest.mark.parametrize("inputs, message", [
    # x1's differences square past float64
    ((Uniform(0, 1e200), Uniform(0, 1)), "^v_total of input 1 overflows float64$"),
    # sixteen inputs share V(Y), whose sum of squares overflows, though no
    # V_Ti's does
    ((Uniform(0, 1.34e153),) * 16, "^v_y of the output of 'sum' overflows float64$"),
])
def test_an_overflowing_variance_fails_naming_it_and_nothing_else(inputs, message):
    model = Model("sum", inputs, lambda x: x.sum(axis=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=message):
            estimate_total_effect_variance(model, 100, np.random.default_rng(5))


def test_requires_minimum_base_sample():
    with pytest.raises(ConfigurationError):
        estimate_total_effect_variance(builtin("mono2").model, 10,
                                       np.random.default_rng(0))


def test_fixed_seed_determinism():
    model = builtin("ishigami").model
    a = estimate_total_effect_variance(model, 5000, np.random.default_rng(9))
    b = estimate_total_effect_variance(model, 5000, np.random.default_rng(9))
    np.testing.assert_array_equal(a.s_total, b.s_total)


class TestPoincareBound:
    def test_closed_form_constants(self):
        assert poincare_constant(Gaussian(0, 4.0)) == 4.0
        assert poincare_constant(Uniform(1, 3)) == pytest.approx(4 / np.pi ** 2)
        assert poincare_constant(builtin("ratio_chi2").model.inputs[0]) is None

    def test_a_constant_that_overflows_fails_the_bound_naming_its_input(self):
        # (b - a)^2 overflows float64, and so does every bound it enters
        assert poincare_constant(Uniform(0, 1e200)) == np.inf
        model = Model("wide-second", (Uniform(0, 1), Uniform(0, 1e200)),
                      lambda x: x[:, 0] + 1e-200 * x[:, 1])
        m = estimate_deriv_measures(model, 1000, rng=np.random.default_rng(4))
        with pytest.raises(NumericalError, match="^variance_bound of input 2 overflows float64"):
            variance_upper_bound(m, model.inputs)

    def test_gaussian_linear_equality_regime(self):
        # constant derivatives: C_i * nu_i equals the analytic V_Ti exactly
        bench = builtin("mono5")
        m = estimate_deriv_measures(bench.model, 1000, rng=np.random.default_rng(4))
        pb = variance_upper_bound(m, bench.model.inputs)
        np.testing.assert_allclose(pb.variance_bound, bench.analytic["v_total"].values, rtol=1e-7)
        assert pb.source == ("closed-form",) * 5

    def test_uniform_constant_derivative(self):
        model = Model("lin", (Uniform(0, 1),), lambda x: 2.0 * x[:, 0])
        m = estimate_deriv_measures(model, 100, rng=np.random.default_rng(5))
        pb = variance_upper_bound(m, model.inputs)
        assert pb.variance_bound[0] == pytest.approx(m.nu[0] / np.pi ** 2, rel=1e-12)

    def test_bound_dominates_total_effect_with_slack(self):
        bench = builtin("mono5", a=(1.0, -2.0, 0.5))
        rng = np.random.default_rng(6)
        vr = estimate_total_effect_variance(bench.model, 50_000, rng)
        m = estimate_deriv_measures(bench.model, 2000, rng=rng)
        pb = variance_upper_bound(m, bench.model.inputs)
        assert np.all(vr.v_total <= pb.variance_bound * 1.05)

    def test_missing_constant_names_variable(self):
        # chi-squared laws have no closed form and ratio_chi2 no table
        # constant: each input's source is "none" and its bound NaN
        bench = builtin("ratio_chi2")
        m = estimate_deriv_measures(bench.model, 100, rng=np.random.default_rng(7))
        pb = variance_upper_bound(m, bench.model.inputs)
        assert pb.source == ("none", "none")
        assert np.isnan(pb.variance_bound).all()

    def test_table_constants_and_normalization(self):
        bench = builtin("flood")
        m = estimate_deriv_measures(bench.model, 2000, rng=np.random.default_rng(8))
        pb = variance_upper_bound(m, bench.model.inputs,
                                  table_constants=bench.poincare_constants)
        assert pb.source == ("table",) * 8
        # uniform dyke level has a unit derivative, so its bound is its constant
        assert pb.variance_bound[4] == pytest.approx(0.405, rel=1e-6)

    def test_flood_bounds_match_reference_table(self):
        bench = builtin("flood")
        m = estimate_deriv_measures(bench.model, 100_000, rng=np.random.default_rng(9))
        pb = variance_upper_bound(m, bench.model.inputs,
                                  table_constants=bench.poincare_constants)
        expected = bench.analytic["variance_bound"].values
        np.testing.assert_allclose(pb.variance_bound, expected, atol=0.03)


def test_nonfinite_differences_count_against_the_rate():
    # about 0.07% of outputs are NaN, which g(A) and g(B) each tolerate, but
    # g(A) - g(AB_1) is NaN wherever A's or B's first column is bad: about 0.14%
    def evaluator(x):
        return np.where(x[:, 0] < 7e-4, np.nan, x[:, 0] + x[:, 1])
    model = Model("rare-nan", (Uniform(0, 1),) * 2, evaluator)
    with pytest.raises(NumericalError, match="variance x1"):
        estimate_total_effect_variance(model, 20_000, np.random.default_rng(0))


def test_every_difference_vector_is_scanned(monkeypatch):
    # one non-finite rule: the policy counts each input's differences itself
    seen = []

    def spy(values, where, n_bad=None):
        if where.startswith("variance x"):
            seen.append(n_bad)
        return finite_within_rate(values, where, n_bad)

    monkeypatch.setattr(entrosa.variance, "finite_within_rate", spy)
    estimate_total_effect_variance(builtin("ishigami").model, 1000, np.random.default_rng(0))
    assert seen == [None, None, None]
    # finite outputs whose differences overflow float64 are counted
    seen.clear()
    model = Model("far-apart", (Uniform(0, 1),) * 2,
                  lambda x: np.where(x[:, 1] < 0.5, -1.5e308, 1.5e308))
    with np.errstate(over="ignore"), pytest.raises(
            NumericalError, match="^variance x2: non-finite value rate"):
        estimate_total_effect_variance(model, 1000, np.random.default_rng(0))
    assert seen == [None, None]


def test_every_evaluated_matrix_has_contiguous_columns():
    # g(A), g(B) and every g(AB_i) see the Fortran layout sample_inputs gives
    layouts = []

    def evaluator(x):
        layouts.append(x.flags.f_contiguous)
        return x.sum(axis=1)
    model = Model("spy", (Uniform(0, 1),) * 3, evaluator)
    estimate_total_effect_variance(model, 200, np.random.default_rng(4))
    assert layouts == [True] * 5
