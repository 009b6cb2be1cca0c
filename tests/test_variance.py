"""Pick-and-freeze total-effect variance and the derivative-based bound."""

import numpy as np
import pytest

from entrosa import (ConfigurationError, Gaussian, Model, NumericalError,
                     Uniform, builtin,
                     estimate_deriv_measures, estimate_total_effect_variance,
                     variance_upper_bound)
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
    assert report.degenerate
    assert np.isnan(report.s_total).all()


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

    def test_gaussian_linear_equality_regime(self):
        # constant derivatives: C_i * nu_i equals the analytic V_Ti exactly
        bench = builtin("mono5")
        m = estimate_deriv_measures(bench.model, 1000, rng=np.random.default_rng(4))
        pb = variance_upper_bound(m, bench.model.inputs)
        np.testing.assert_allclose(pb.bound, bench.analytic["v_total"].values, rtol=1e-7)
        assert pb.source == ("closed-form",) * 5

    def test_uniform_constant_derivative(self):
        model = Model("lin", (Uniform(0, 1),), lambda x: 2.0 * x[:, 0])
        m = estimate_deriv_measures(model, 100, rng=np.random.default_rng(5))
        pb = variance_upper_bound(m, model.inputs)
        assert pb.bound[0] == pytest.approx(m.nu[0] / np.pi ** 2, rel=1e-12)

    def test_bound_dominates_total_effect_with_slack(self):
        bench = builtin("mono5", a=(1.0, -2.0, 0.5))
        rng = np.random.default_rng(6)
        vr = estimate_total_effect_variance(bench.model, 50_000, rng)
        m = estimate_deriv_measures(bench.model, 2000, rng=rng)
        pb = variance_upper_bound(m, bench.model.inputs)
        assert np.all(vr.v_total <= pb.bound * 1.05)

    def test_missing_constant_names_variable(self):
        bench = builtin("ratio_chi2")
        m = estimate_deriv_measures(bench.model, 100, rng=np.random.default_rng(7))
        with pytest.raises(ConfigurationError, match="input 1"):
            variance_upper_bound(m, bench.model.inputs)

    def test_table_constants_and_normalization(self):
        bench = builtin("flood")
        m = estimate_deriv_measures(bench.model, 2000, rng=np.random.default_rng(8))
        pb = variance_upper_bound(m, bench.model.inputs,
                                  table_constants=bench.poincare_constants)
        assert pb.source == ("table",) * 8
        # uniform dyke level has a unit derivative, so its bound is its constant
        assert pb.bound[4] == pytest.approx(0.405, rel=1e-6)

    def test_flood_bounds_match_reference_table(self):
        bench = builtin("flood")
        m = estimate_deriv_measures(bench.model, 100_000, rng=np.random.default_rng(9))
        pb = variance_upper_bound(m, bench.model.inputs,
                                  table_constants=bench.poincare_constants)
        expected = bench.analytic["variance_bound"].values
        np.testing.assert_allclose(pb.bound, expected, atol=0.03)


def test_nonfinite_differences_count_against_the_rate():
    # about 0.07% of outputs are NaN, which g(A) and g(B) each tolerate, but
    # g(A) - g(AB_1) is NaN wherever A's or B's first column is bad: about 0.14%
    def evaluator(x):
        return np.where(x[:, 0] < 7e-4, np.nan, x[:, 0] + x[:, 1])
    model = Model("rare-nan", (Uniform(0, 1),) * 2, evaluator)
    with pytest.raises(NumericalError, match="variance x1"):
        estimate_total_effect_variance(model, 20_000, np.random.default_rng(0))
