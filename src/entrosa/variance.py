"""Variance-based baseline: pick-and-freeze total-effect indices and the
derivative-based variance screening bound.

The total-effect estimator is the Jansen form: with base matrices A and B and
hybrids AB_i (column i of A replaced by B's), ``V_Ti = mean((g(A)-g(AB_i))^2)/2``.
Total cost is n_base * (d + 2) evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deriv import DerivMeasures
from .distributions import Distribution, Gaussian, Uniform
from .errors import ConfigurationError
from .model import (Model, clean_outputs, evaluate_batch, finite_within_rate,
                    sample_inputs)

__all__ = ["VarianceReport", "PoincareBound", "estimate_total_effect_variance",
           "variance_upper_bound", "poincare_constant"]

_VAR_EPS = 1e-12


@dataclass(frozen=True)
class VarianceReport:
    v_y: float
    v_total: np.ndarray
    s_total: np.ndarray          # NaN when the output is (near) constant

    @property
    def degenerate(self) -> bool:
        return not np.isfinite(self.s_total).any()


def estimate_total_effect_variance(model: Model, n_base: int,
                                   rng: np.random.Generator) -> VarianceReport:
    if n_base < 100:
        raise ConfigurationError(f"pick-and-freeze needs n_base >= 100, got {n_base}")
    d = model.dim
    a = sample_inputs(model, n_base, rng)
    b = sample_inputs(model, n_base, rng)
    y_a = evaluate_batch(model, a)
    y_b = evaluate_batch(model, b)
    v_y = float(np.var(clean_outputs(np.concatenate([y_a, y_b]), "variance"), ddof=1))

    v_total = np.empty(d)
    for i in range(d):
        ab = a.copy()
        ab[:, i] = b[:, i]
        y_ab = evaluate_batch(model, ab)
        diff = y_a - y_ab
        diff = diff[finite_within_rate(diff, f"variance x{i + 1}")]
        v_total[i] = 0.5 * float(np.mean(diff * diff))

    if v_y <= _VAR_EPS:
        s_total = np.full(d, np.nan)
    else:
        s_total = v_total / v_y
    return VarianceReport(v_y=v_y, v_total=v_total, s_total=s_total)


def poincare_constant(dist: Distribution) -> float | None:
    """Optimal constant for the supported closed-form kinds, else None.

    Gaussian: the variance. Uniform(a, b): (b - a)^2 / pi^2.
    """
    if isinstance(dist, Gaussian):
        return dist.var
    if isinstance(dist, Uniform):
        return (dist.b - dist.a) ** 2 / np.pi ** 2
    return None


@dataclass(frozen=True)
class PoincareBound:
    bound: np.ndarray                 # C_i * nu_i
    source: tuple[str, ...]           # "closed-form" or "table" per variable


def variance_upper_bound(measures: DerivMeasures, inputs: tuple[Distribution, ...],
                         table_constants: tuple[float, ...] | None = None) -> PoincareBound:
    """Derivative-based upper bound ``C_i * nu_i`` on the total-effect variance.

    Constants come from closed forms where available, otherwise from
    ``table_constants``; a missing constant is a configuration error naming
    the variable. Requires independent inputs.
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
                f"no variance-bound constant available for input {i + 1} "
                f"({type(dist).__name__}); supply table_constants")
    return PoincareBound(bound=constants * measures.nu, source=tuple(source))
