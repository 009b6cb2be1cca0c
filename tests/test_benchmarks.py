"""Benchmark catalogue and the randomized metafunction generator."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare

from entrosa import (ConfigurationError, MetaFunctionSpec, builtin,
                     builtin_names, build_metafunction, draw_metafunction,
                     evaluate_batch, sample_inputs)
from entrosa.benchmarks import AnalyticValue


def test_every_builtin_constructs():
    for name in builtin_names():
        bench = builtin(name)
        assert bench.model.dim >= 1


def test_unknown_name_rejected():
    with pytest.raises(ConfigurationError):
        builtin("rosenbrock")


def test_an_unknown_parameter_is_refused_naming_the_constructors_parameters():
    takes = {name: "none" for name in builtin_names()}
    takes.update(mono4="r", mono5="a, sigma")
    assert list(takes.values()).count("none") == 10
    for name, expected in takes.items():
        # "name" too: the builtin's own name is not one of its parameters
        for params in ({"bogus": 1.0}, {"name": 1.0}):
            with pytest.raises(ConfigurationError, match=re.escape(
                    f"{name} got unexpected parameters {sorted(params)}; it takes {expected}")):
                builtin(name, **params)


def test_monotone_uniform_builtins_share_one_record():
    # on U(0,1)^2 inputs H(X_i) = 0, and each model is monotone, so H_Ti
    # meets its bound H(X_i) + l_i: h_total, l and h_bound are one record
    cases = [("mono1", {}, (0.0, 0.5)), ("mono2", {}, (-1.0, -1.0)),
             ("mono3", {}, (0.0, math.log(3.0)))]
    cases += [("mono4", {"r": r}, (-r, math.log(r) - r)) for r in (1.0, 2.0, 3.5)]
    for name, params, record in cases:
        analytic = builtin(name, **params).analytic
        for key in ("h_total", "l", "h_bound"):
            assert analytic[key] == AnalyticValue(record, "closed-form"), (name, params, key)


def test_the_bound_gap_of_each_record_is_the_log_of_its_preimage_count():
    # H(X_i) + l_i - H_Ti = ln N_i, with N_i the most points along x_i that
    # share one output: a monotone input meets its bound, |4 x_i - 2| folds a
    # G-function's inputs in two, and sin, sin^2 and x^4 fold ishigami's
    preimages = {"mono1": (1, 1), "mono2": (1, 1), "mono3": (1, 1), "mono4": (1, 1),
                 "mono5": (1,) * 5, "ratio_chi2": (1, 1), "ishigami": (2, 4, 2),
                 "gfunction3": (2,) * 3,
                 **{f"gfunction9_case{case}": (2,) * 9 for case in (1, 2, 3)}}
    assert set(preimages) == {name for name in builtin_names()
                              if {"h_bound", "h_total"} <= set(builtin(name).analytic)}
    cases = [(name, {}, n) for name, n in preimages.items()]
    cases += [("mono4", {"r": 3.0}, (1, 1)), ("mono5", {"a": (1.0, -2.0)}, (1, 1))]
    for name, params, n in cases:
        analytic = builtin(name, **params).analytic
        gap = np.subtract(analytic["h_bound"].values, analytic["h_total"].values)
        assert gap == pytest.approx(np.log(n), abs=1e-12, rel=0), (name, params)


def test_evaluators_match_reference_expressions_bitwise():
    # the evaluators reuse a sine, multiply factors column by column and work
    # in place; the bits must be those of the plain whole-matrix expressions,
    # for C- and F-order inputs, and the inputs must be left unchanged
    from entrosa.benchmarks import _G9_CASES, _gfunction
    rng = np.random.default_rng(17)
    x = rng.uniform(-math.pi, math.pi, size=(20_000, 3))
    expected = (np.sin(x[:, 0]) + 7.0 * np.sin(x[:, 1]) ** 2
                + 0.1 * (x[:, 2] * x[:, 2]) ** 2 * np.sin(x[:, 0]))
    assert np.array_equal(builtin("ishigami").model.evaluator(x), expected)

    coefficients = [np.array([-0.5, 0.0, 0.5])] + [np.array(a) for a in _G9_CASES.values()]
    for _ in range(10):
        for d in (3, 9):
            a = rng.uniform(0.0, 99.0, d) * (rng.random(d) < 0.7)
            coefficients.append(a)
    for a in coefficients:
        x = rng.random((2_000, a.size))
        x[:3] = np.array([0.0, 0.5, 1.0])[:, None]   # every factor's kink and ends
        x[rng.random(x.shape) < 0.05] = 0.5
        expected = ((np.abs(4.0 * x - 2.0) + a) / (1.0 + a)).prod(axis=1)
        for order in "CF":
            x = np.asarray(x, order=order)
            before = x.copy(order="K")
            assert np.array_equal(_gfunction(a)(x), expected), (a, order)
            assert np.array_equal(x, before)

    # the flood evaluator works in place on n-vectors, in this expression's order
    model = builtin("flood").model
    x = sample_inputs(model, 20_000, rng)
    q, ks, zv, zm, dd, cb, length, width = (x[:, i] for i in range(8))
    expected = zv + (q / (width * ks * np.sqrt((zm - zv) / length))) ** 0.6 - dd - cb
    for order in "CF":
        x = np.asarray(x, order=order)
        before = x.copy(order="K")
        assert np.array_equal(model.evaluator(x), expected), order
        assert np.array_equal(x, before)


def test_ishigami_closed_form_matches_quadrature():
    # E ln(1 + 0.1 x^4) by its antiderivative, against adaptive quadrature
    from scipy.integrate import quad
    from entrosa.benchmarks import _ishigami_mean_log_amplitude
    ref = quad(lambda t: math.log(1 + 0.1 * t ** 4), 0, math.pi, epsabs=1e-12)[0] / math.pi
    assert abs(_ishigami_mean_log_amplitude() - ref) <= 4 * math.ulp(ref)


def test_mono4_analytic_record():
    bench = builtin("mono4", r=2.0)
    assert bench.analytic["h_total"].values == pytest.approx((-2.0, math.log(2) - 2))
    assert bench.analytic["h_total"].source == "closed-form"


def test_mono5_analytic_record():
    bench = builtin("mono5", a=(1.0, 2.0, 3.0))
    half = 0.5 * math.log(2 * math.pi * math.e)
    assert bench.analytic["l"].values == pytest.approx((0.0, math.log(2), math.log(3)))
    assert bench.analytic["h_total"].values == pytest.approx(
        tuple(half + v for v in (0.0, math.log(2), math.log(3))))
    assert bench.analytic["s_total"].values == pytest.approx((1 / 14, 4 / 14, 9 / 14))


def test_flood_inputs_match_reference_table():
    bench = builtin("flood")
    assert bench.var_names == ("Q", "Ks", "Zv", "Zm", "Dd", "Cb", "L", "B")
    widths = bench.analytic["exp_input_entropy"].values
    refs = (2051, 30, 1.65, 1.65, 2, 0.825, 16.5, 8.24)
    for got, ref in zip(widths, refs):
        assert got == pytest.approx(ref, rel=2e-3)
    assert bench.poincare_constants == (3.93e5, 5.77e1, 1.73e-1, 1.73e-1,
                                        4.05e-1, 4.32e-2, 1.73e1, 4.32e0)
    assert dict(bench.entropy_fix) == {3: 55.0, 5: 55.5, 6: 5000.0, 7: 300.0}


def test_gfunction9_cases_carry_groups():
    for case in (1, 2, 3):
        bench = builtin(f"gfunction9_case{case}")
        assert bench.model.dim == 9
        assert bench.groups == ((0, 1, 2), (3, 4, 5), (6, 7, 8))


def test_ratio_chi2_analytic_total_variance_shares():
    vals = builtin("ratio_chi2").analytic["s_total"].values
    assert vals[0] == pytest.approx(0.5449, abs=5e-4)
    assert vals[1] == pytest.approx(0.5461, abs=5e-4)


class TestMetafunction:
    def test_fixed_seed_reproduces_spec_and_outputs(self):
        spec1, model1 = draw_metafunction(np.random.default_rng(99), seed=99)
        spec2, model2 = draw_metafunction(np.random.default_rng(99), seed=99)
        assert spec1 == spec2
        probe = np.random.default_rng(0).random((256, 3))
        np.testing.assert_array_equal(evaluate_batch(model1, probe),
                                      evaluate_batch(model2, probe))

    def test_all_dummy_spec_is_identically_zero(self):
        spec = MetaFunctionSpec(u=(7, 7, 7), v=(1, 2), w=(1, 2, 3),
                                alpha=(1.0, 2.0, 3.0), beta=4.0, gamma=5.0)
        model = build_metafunction(spec)
        probe = np.random.default_rng(1).random((512, 3))
        np.testing.assert_array_equal(evaluate_batch(model, probe), np.zeros(512))

    def test_basis_ids_uniform_over_draws(self):
        rng = np.random.default_rng(2024)
        ids = np.concatenate([draw_metafunction(rng)[0].u for _ in range(1000)])
        counts = np.bincount(ids, minlength=10)[1:]
        assert chisquare(counts).pvalue > 0.01

    def test_interaction_indices_uniform_over_draws(self):
        rng = np.random.default_rng(2025)
        idx = np.concatenate([draw_metafunction(rng)[0].v + draw_metafunction(rng)[0].w
                              for _ in range(600)])
        counts = np.bincount(idx, minlength=4)[1:]
        assert chisquare(counts).pvalue > 0.01

    def test_coefficient_mixture_second_moment(self):
        # equal-weight mixture of variances 0.5 and 5 has variance 2.75
        rng = np.random.default_rng(2026)
        coefs = []
        for _ in range(4000):
            s = draw_metafunction(rng)[0]
            coefs.extend(s.alpha + (s.beta, s.gamma))
        coefs = np.array(coefs)
        assert abs(coefs.mean()) < 0.05
        assert np.var(coefs) == pytest.approx(2.75, rel=0.05)

    def test_spec_serialization_round_trip(self):
        spec, _ = draw_metafunction(np.random.default_rng(5), seed=5)
        again = MetaFunctionSpec.from_dict(spec.to_dict())
        assert again == spec
        probe = np.random.default_rng(6).random((64, 3))
        np.testing.assert_array_equal(
            evaluate_batch(build_metafunction(spec), probe),
            evaluate_batch(build_metafunction(again), probe))

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            MetaFunctionSpec(u=(0, 1, 2), v=(1, 1), w=(1, 1, 1),
                             alpha=(0.0, 0.0, 0.0), beta=0.0, gamma=0.0)
        with pytest.raises(ConfigurationError):
            MetaFunctionSpec(u=(1, 1, 1), v=(4, 1), w=(1, 1, 1),
                             alpha=(0.0, 0.0, 0.0), beta=0.0, gamma=0.0)

    def test_interaction_term_wiring(self):
        # u=(1,7,7): only x1 has a live basis; v=(1,1) squares it
        spec = MetaFunctionSpec(u=(1, 7, 7), v=(1, 1), w=(3, 3, 3),
                                alpha=(1.0, 1.0, 1.0), beta=2.0, gamma=5.0)
        model = build_metafunction(spec)
        probe = np.random.default_rng(7).random((128, 3))
        expected = probe[:, 0] + 2.0 * probe[:, 0] ** 2  # gamma term is zero
        np.testing.assert_allclose(evaluate_batch(model, probe), expected, rtol=1e-12)

    def test_evaluator_matches_the_stacked_formulation_bitwise(self):
        # the evaluator fills its basis columns in place, a chunk of rows at a
        # time, and multiplies the interaction factors in order; the bits are
        # those of np.stack/np.prod over the whole array, within one chunk,
        # across chunk boundaries with a short last chunk, and on a full block
        from entrosa.benchmarks import _CHUNK_ROWS, BASIS_FUNCTIONS
        from entrosa.model import _BLOCK_ROWS
        rng = np.random.default_rng(31)
        for _ in range(200):
            spec, model = draw_metafunction(rng, seed=1)
            for rows in (2000, 3 * _CHUNK_ROWS + 517, _BLOCK_ROWS):
                x = np.asfortranarray(rng.random((rows, 3)))
                fx = np.stack([BASIS_FUNCTIONS[spec.u[i] - 1](x[:, i]) for i in range(3)],
                              axis=1)
                expected = fx @ np.array(spec.alpha)
                expected = expected + spec.beta * np.prod([fx[:, j - 1] for j in spec.v],
                                                          axis=0)
                expected = expected + spec.gamma * np.prod([fx[:, k - 1] for k in spec.w],
                                                           axis=0)
                assert np.array_equal(model.evaluator(x), expected), (spec, rows)

    def test_step_basis_is_bitwise_the_where_form(self):
        from entrosa.benchmarks import BASIS_FUNCTIONS
        x = np.concatenate([np.random.default_rng(53).random(10_000),
                            [0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(1.0, 0.0)]])
        step = BASIS_FUNCTIONS[5](x)
        assert step.dtype == np.float64
        assert np.array_equal(step, np.where(x >= 0.5, 1.0, 0.0))
        assert step[-4:].tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_evaluator_temporaries_are_bounded_by_the_chunk(self):
        # beyond its output, one call holds at most 6 vectors of chunk length,
        # however long the block it is given
        from entrosa.benchmarks import _CHUNK_ROWS
        rng = np.random.default_rng(47)
        xs = [np.asfortranarray(rng.random((rows, 3))) for rows in (2 ** 15, 2 ** 16)]
        for _ in range(60):
            spec, model = draw_metafunction(rng, seed=1)
            for x in xs:
                tracemalloc.start()
                try:
                    model.evaluator(x)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak - x.shape[0] * 8 <= 6 * _CHUNK_ROWS * 8, (spec, x.shape[0], peak)
