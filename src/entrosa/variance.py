"""Variance-based baseline: pick-and-freeze total-effect indices and the
derivative-based variance screening bound.

The total-effect estimator is the Jansen form: with base matrices A and B and
hybrids AB_i (column i of A replaced by B's), ``V_Ti = mean((g(A)-g(AB_i))^2)/2``.
Total cost is n_base * (d + 2) evaluations. Each AB_i is A itself with B's
column i swapped in for its evaluation, so no hybrid matrix is ever
allocated: one pass of row blocks swaps B's rows in, evaluates, writes
g(A) - g(AB_i) into a difference vector shared by the inputs and restores
A's rows. The non-finite policy scans that vector only when the tallies
cannot show it finite: g(A) and the pass's outputs all finite, and their
largest magnitudes summing to a finite float, so that no difference
overflows. g(A) and g(B) are
written side by side into one vector, and the evaluation passes' tallies
of non-finite outputs, minimum and maximum spare V(Y) and the
constant-output test a further scan of a finite sample. Every reduction is
whole-array and the tallies exact, so V_Ti is the same at any number of
CPUs. A V_Ti or V(Y) that overflows float64 raises ``NumericalError``,
under the bounds' overflow rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deriv import DerivMeasures
from .distributions import Distribution, Gaussian, Uniform
from .errors import ConfigurationError, NumericalError
from .model import (Model, _evaluate_into, _finite_part, _map_evaluations, _refuse_overflow,
                    finite_within_rate, sample_inputs)

__all__ = ["VarianceReport", "PoincareBound", "estimate_total_effect_variance",
           "variance_upper_bound", "poincare_constant"]


@dataclass(frozen=True)
class VarianceReport:
    v_y: float
    v_total: np.ndarray
    s_total: np.ndarray          # NaN when the output is constant


def estimate_total_effect_variance(model: Model, n_base: int,
                                   rng: np.random.Generator) -> VarianceReport:
    if n_base < 100:
        raise ConfigurationError(f"pick-and-freeze needs n_base >= 100, got {n_base}")
    d = model.dim
    a = sample_inputs(model, n_base, rng)
    b = sample_inputs(model, n_base, rng)
    y = np.empty(2 * n_base)
    y_a = y[:n_base]
    (bad_a, lo_a, hi_a), (bad_b, lo_b, hi_b) = (_evaluate_into(model, a, y_a),
                                                _evaluate_into(model, b, y[n_base:]))
    y, lo, hi = _finite_part(y, "variance", (bad_a + bad_b, np.minimum(lo_a, lo_b),
                                             np.maximum(hi_a, hi_b)))
    # finite outputs far apart overflow V(Y) and the V_Ti, overflows named below
    with np.errstate(over="ignore", invalid="ignore"):
        v_y = float(np.var(y, ddof=1))
    # constant by the histogram coder's rule, which no rescaling of g changes
    constant = hi == lo

    v_total = np.empty(d)
    diff = np.empty(n_base)
    # the largest |g(A)|; with a swap pass's tallies it can show every
    # difference finite, as finite values whose magnitudes sum to a finite
    # float have a finite difference
    reach_a = max(abs(float(lo_a)), abs(float(hi_a)))
    for i in range(d):
        def swap(rows: slice, a_rows: np.ndarray, evaluate) -> None:
            a_rows[:, i] = b[rows, i]
            np.subtract(y_a[rows], evaluate(), out=diff[rows])

        n_bad, lo_ab, hi_ab = _map_evaluations(model, a, swap, (i,))
        finite = not (bad_a or n_bad) and math.isfinite(
            reach_a + max(abs(float(lo_ab)), abs(float(hi_ab))))
        good = finite_within_rate(diff, f"variance x{i + 1}", 0 if finite else None)
        kept = diff if good is None else diff[good]
        with np.errstate(over="ignore", invalid="ignore"):
            v_total[i] = 0.5 * float(np.mean(np.multiply(kept, kept, out=kept)))
    # the outputs and differences kept are finite, so a V_Ti or V(Y) that
    # is not has overflowed float64
    _refuse_overflow(v_total, np.ones(d, dtype=bool), "v_total")
    if not math.isfinite(v_y):
        raise NumericalError(f"v_y of the output of {model.name!r} overflows float64")

    s_total = np.full(d, np.nan) if constant else v_total / v_y
    return VarianceReport(v_y=v_y, v_total=v_total, s_total=s_total)


def poincare_constant(dist: Distribution) -> float | None:
    """Optimal constant for the supported closed-form kinds, else None.

    Gaussian: the variance. Uniform(a, b): (b - a)^2 / pi^2, inf when
    that overflows float64.
    """
    if isinstance(dist, Gaussian):
        return dist.var
    if isinstance(dist, Uniform):
        try:
            return (dist.b - dist.a) ** 2 / np.pi ** 2
        except OverflowError:
            return math.inf
    return None


@dataclass(frozen=True)
class PoincareBound:
    variance_bound: np.ndarray        # C_i * nu_i
    source: tuple[str, ...]           # "closed-form", "table" or "none" per variable


def variance_upper_bound(measures: DerivMeasures, inputs: tuple[Distribution, ...],
                         table_constants: tuple[float | None, ...] | None = None
                         ) -> PoincareBound:
    """Derivative-based upper bound ``C_i * nu_i`` on the total-effect variance.

    Input i takes ``table_constants[i]`` when that is given and not None,
    else the closed form of its law (Gaussian or Uniform); an input with
    neither has no bound: its entry is NaN, its source ``"none"``, and the
    overflow rule passes it by. Requires independent inputs.
    """
    d = len(inputs)
    if measures.dim != d:
        raise ConfigurationError("derivative measures and input list disagree on dimension")
    constants = np.full(d, np.nan)
    source = []
    for i, dist in enumerate(inputs):
        c = poincare_constant(dist)
        if table_constants is not None and table_constants[i] is not None:
            constants[i] = table_constants[i]
            source.append("table")
        elif c is not None:
            constants[i] = c
            source.append("closed-form")
        else:
            source.append("none")
    with np.errstate(over="ignore", invalid="ignore"):
        bound = constants * measures.nu
    terms_finite = np.isfinite(measures.nu) & ~np.isnan(constants)
    return PoincareBound(variance_bound=_refuse_overflow(bound, terms_finite, "variance_bound"),
                         source=tuple(source))
