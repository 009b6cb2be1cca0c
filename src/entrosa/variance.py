"""Variance-based baseline: pick-and-freeze total-effect indices and the
derivative-based variance screening bound.

The total-effect estimator is the Jansen form: with base matrices A and B and
hybrids AB_i (column i of A replaced by B's), ``V_Ti = mean((g(A)-g(AB_i))^2)/2``.
Total cost is n_base * (d + 2) evaluations. Each AB_i is A itself with B's
column i swapped in for its evaluation, so no hybrid matrix is ever
allocated: one pass of row blocks swaps B's rows in, evaluates, writes
g(A) - g(AB_i) into a difference vector shared by the inputs, restores
A's rows and counts the block's non-finite differences. g(A) and g(B) are
written side by side into one vector, with the count, minimum and maximum
of each block, so V(Y) and the constant-output test need no further scan
of a finite sample. The mean of the squares is whole-array and the
tallies exact, so V_Ti is the same at any number of CPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deriv import DerivMeasures
from .distributions import Distribution, Gaussian, Uniform
from .errors import ConfigurationError
from .model import (Model, _add_range_tallies, _evaluate_into, _map_evaluations, _non_finite,
                    _refuse_overflow, finite_within_rate, sample_inputs)

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
    n_bad, lo, hi = _add_range_tallies([_evaluate_into(model, a, y_a),
                                        _evaluate_into(model, b, y[n_base:])])
    good = finite_within_rate(y, "variance", n_bad)
    if good is not None:
        y = y[good]
        lo, hi = y.min(), y.max()
    v_y = float(np.var(y, ddof=1))
    # constant by the histogram coder's rule, which no rescaling of g changes
    constant = hi == lo

    v_total = np.empty(d)
    diff = np.empty(n_base)
    for i in range(d):
        def swap(rows: slice, a_rows: np.ndarray, evaluate) -> int:
            a_rows[:, i] = b[rows, i]
            return _non_finite(np.subtract(y_a[rows], evaluate(), out=diff[rows]))

        n_bad = sum(_map_evaluations(model, a, swap, (i,)))
        good = finite_within_rate(diff, f"variance x{i + 1}", n_bad)
        kept = diff if good is None else diff[good]
        v_total[i] = 0.5 * float(np.mean(np.multiply(kept, kept, out=kept)))

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
    source: tuple[str, ...]           # "closed-form" or "table" per variable


def variance_upper_bound(measures: DerivMeasures, inputs: tuple[Distribution, ...],
                         table_constants: tuple[float | None, ...] | None = None
                         ) -> PoincareBound:
    """Derivative-based upper bound ``C_i * nu_i`` on the total-effect variance.

    Input i takes ``table_constants[i]`` when that is given and not None,
    else the closed form of its law (Gaussian or Uniform); an input with
    neither is a configuration error naming it. Requires independent inputs.
    """
    d = len(inputs)
    if measures.dim != d:
        raise ConfigurationError("derivative measures and input list disagree on dimension")
    constants = np.empty(d)
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
            raise ConfigurationError(
                f"no variance-bound constant for input {i + 1} ({type(dist).__name__}): "
                "closed forms exist only for Gaussian and Uniform laws, and no "
                "table constant is given for it")
    with np.errstate(over="ignore", invalid="ignore"):
        bound = constants * measures.nu
    return PoincareBound(
        variance_bound=_refuse_overflow(bound, np.isfinite(measures.nu), "variance_bound"),
        source=tuple(source))
