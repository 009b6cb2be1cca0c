"""Derivative-based sensitivity measures and the group extension."""

import math
import tracemalloc

import numpy as np
import pytest

from entrosa import (ConfigurationError, Model, Uniform, builtin,
                     estimate_deriv_measures)
from entrosa.benchmarks import MetaFunctionSpec, build_metafunction


def test_mono3_measures_are_exact():
    model = builtin("mono3").model
    m = estimate_deriv_measures(model, 100, rng=np.random.default_rng(0))
    np.testing.assert_allclose(m.l, [0.0, math.log(3)], atol=1e-6)
    np.testing.assert_allclose(m.mu, [1.0, 3.0], atol=1e-6)
    np.testing.assert_allclose(m.nu, [1.0, 9.0], atol=1e-5)
    assert m.zero_derivative_fraction.tolist() == [0.0, 0.0]


def test_mono5_constant_derivatives():
    bench = builtin("mono5")  # a = (1..5), unit Gaussians
    m = estimate_deriv_measures(bench.model, 500, rng=np.random.default_rng(1))
    np.testing.assert_allclose(m.l, [math.log(a) for a in (1, 2, 3, 4, 5)], atol=1e-8)
    np.testing.assert_allclose(m.nu, [a * a for a in (1, 2, 3, 4, 5)], rtol=1e-8)


@pytest.mark.parametrize("name", ["ishigami", "gfunction3"])
def test_chain_inequality_exact_on_shared_samples(name):
    # l_i <= ln mu_i <= 0.5 ln nu_i with zero tolerance (Jensen / Cauchy-Schwarz,
    # asserted in the log domain where the algebra is float-stable)
    model = builtin(name).model
    m = estimate_deriv_measures(model, 5000, rng=np.random.default_rng(2))
    assert np.all(m.l <= np.log(m.mu))
    assert np.all(np.log(m.mu) <= 0.5 * np.log(m.nu))


def test_chain_inequality_on_random_functions():
    rng = np.random.default_rng(3)
    for _ in range(10):
        from entrosa import draw_metafunction
        _, model = draw_metafunction(rng)
        m = estimate_deriv_measures(model, 2000, rng=rng)
        lnmu = np.where(m.mu > 0, np.log(np.maximum(m.mu, 1e-300)), -np.inf)
        assert np.all(m.l <= lnmu + 0.0)
        with np.errstate(divide="ignore"):
            assert np.all(lnmu <= 0.5 * np.log(np.maximum(m.nu, 1e-300)) + 1e-15)


def test_ishigami_bounds_match_reference():
    # H(X_i) + l_i for the Ishigami function; a zero-measured derivative must
    # contribute the finite-difference resolution, not an unbounded log outlier
    bench = builtin("ishigami")
    m = estimate_deriv_measures(bench.model, 400_000, rng=np.random.default_rng(33))
    h_x = math.log(2 * math.pi)
    bounds = h_x + m.l
    np.testing.assert_allclose(bounds, (1.9024, 3.0906, 0.6626), atol=0.02)


def test_fixed_seed_determinism():
    model = builtin("ishigami").model
    a = estimate_deriv_measures(model, 1000, rng=np.random.default_rng(42))
    b = estimate_deriv_measures(model, 1000, rng=np.random.default_rng(42))
    np.testing.assert_array_equal(a.mu, b.mu)
    np.testing.assert_array_equal(a.nu, b.nu)
    np.testing.assert_array_equal(a.l, b.l)


def test_dummy_coordinate_reports_negative_infinity():
    spec = MetaFunctionSpec(u=(1, 7, 2), v=(1, 1), w=(1, 1, 1),
                            alpha=(1.0, 1.0, 1.0), beta=0.5, gamma=0.25)
    model = build_metafunction(spec)
    m = estimate_deriv_measures(model, 2000, rng=np.random.default_rng(4))
    assert m.l[1] == -math.inf
    assert m.mu[1] == 0.0
    assert m.zero_derivative_fraction[1] == 1.0
    assert math.isfinite(m.l[0]) and math.isfinite(m.l[2])


def test_the_pass_holds_five_n_vectors_beyond_the_sample(cpus):
    # the differences, their floored logs and the floors, with the row blocks'
    # temporaries on two threads; nu squares the magnitudes in place once mu
    # is taken, so no n-vector of squares is held
    cpus(2)
    model = builtin("gfunction9_case1").model
    n = 2 ** 18
    tracemalloc.start()
    try:
        estimate_deriv_measures(model, n, rng=np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # x is d n-vectors and y0 one
    assert peak / (8 * n) - model.dim - 1 < 5.5


def test_a_row_with_an_infinite_magnitude_and_floor_is_dropped_and_not_floored():
    # g is infinite on x1 < 5e-4 and x2 elsewhere, so a step of 1e-3 along
    # x1 takes each infinite row to a finite output: there the magnitude and
    # its floor are both infinite. The row is dropped, and every x1
    # derivative kept is a floored zero
    model = Model("step", (Uniform(0, 1),) * 2,
                  lambda x: np.where(x[:, 0] < 5e-4, np.inf, x[:, 1]))
    with np.errstate(invalid="ignore"):  # inf - inf on the rows stepped within x1 < 5e-4
        m = estimate_deriv_measures(model, 20_000, 1e-3, np.random.default_rng(10))
    assert m.zero_derivative_fraction.tolist() == [1.0, 0.0]
    assert m.l[0] == -math.inf and m.mu[0] == 0.0


def test_minimum_sample_size():
    with pytest.raises(ConfigurationError):
        estimate_deriv_measures(builtin("mono3").model, 5, rng=np.random.default_rng(0))


class TestGroup:
    def test_singleton_group_matches_per_variable_l(self):
        model = builtin("ishigami").model
        m = estimate_deriv_measures(model, 40_000, rng=np.random.default_rng(5))
        g = estimate_deriv_measures(model, 40_000, rng=np.random.default_rng(6),
                                    groups=[(1,)])
        assert g.l[0] == pytest.approx(m.l[1], abs=0.02)

    @pytest.mark.parametrize("name", ["ishigami", "flood"])
    def test_singleton_group_is_bitwise_the_partial(self, name):
        # the default groups are the single inputs: explicit singleton groups
        # on the same seed give the same derivatives bit for bit
        model = builtin(name).model
        m = estimate_deriv_measures(model, 2000, rng=np.random.default_rng(9))
        g = estimate_deriv_measures(model, 2000, rng=np.random.default_rng(9),
                                    groups=[(i,) for i in range(model.dim)])
        for key in ("mu", "nu", "l", "zero_derivative_fraction"):
            np.testing.assert_array_equal(getattr(g, key), getattr(m, key), key)

    def test_mono3_pair_group_is_log_four(self):
        # directional derivative of x1 + 3 x2 along (1, 1) is exactly 4
        model = builtin("mono3").model
        g = estimate_deriv_measures(model, 1000, rng=np.random.default_rng(6),
                                    groups=[(0, 1)])
        assert g.l[0] == pytest.approx(math.log(4.0), abs=1e-5)

    def test_group_validation(self):
        model = builtin("gfunction9_case1").model
        rng = np.random.default_rng(7)
        for groups in ([()], [(0, 0)], [(0, 12)], [(0, 1), (-1,)]):
            with pytest.raises(ConfigurationError):
                estimate_deriv_measures(model, 100, rng=rng, groups=groups)

    def test_zero_function_group(self):
        model = Model("zero", (Uniform(0, 1),) * 2,
                      lambda x: np.zeros(x.shape[0]))
        g = estimate_deriv_measures(model, 100, rng=np.random.default_rng(8),
                                    groups=[(0, 1)])
        assert g.l[0] == -math.inf
        assert g.zero_derivative_fraction[0] == 1.0
