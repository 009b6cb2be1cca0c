"""Deterministic model abstraction: batch evaluation, forward differences,
and variable fixing.

A model is a pure map from a d-vector to a real, evaluated row-wise over
(n, d) input matrices. Evaluators must be vectorized: they receive the full
matrix and return an (n,) output vector. Models are immutable and shareable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import Distribution
from .errors import ConfigurationError, NumericalError

__all__ = ["Model", "evaluate_batch", "fd_directional_batch", "fix_variables",
           "sample_inputs", "DEFAULT_FD_STEP", "MAX_BAD_FRACTION"]

log = logging.getLogger(__name__)

DEFAULT_FD_STEP = 1e-5
# estimator runs abort above this rate of non-finite model outputs
MAX_BAD_FRACTION = 1e-3


@dataclass(frozen=True)
class Model:
    name: str
    inputs: tuple[Distribution, ...]
    evaluator: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __post_init__(self):
        if len(self.inputs) < 1:
            raise ConfigurationError("model needs at least one input distribution")

    @property
    def dim(self) -> int:
        return len(self.inputs)


def sample_inputs(model: Model, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (n, d) matrix of independent inputs, one column per distribution."""
    cols = [dist.sample(n, rng) for dist in model.inputs]
    return np.column_stack(cols)


def evaluate_batch(model: Model, inputs: np.ndarray) -> np.ndarray:
    """Row-wise, order-preserving evaluation of the model.

    Non-finite outputs are preserved for the caller's ``finite_within_rate``
    check; the batch as a whole fails only when every row is non-finite.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.shape[1] != model.dim:
        raise ConfigurationError(
            f"input matrix has {inputs.shape[1]} columns, model {model.name!r} has dim {model.dim}"
        )
    y = np.asarray(model.evaluator(inputs), dtype=float)
    if y.shape != (inputs.shape[0],):
        raise NumericalError(
            f"evaluator of {model.name!r} returned shape {y.shape}, expected ({inputs.shape[0]},)"
        )
    if not np.isfinite(y).any():
        raise NumericalError(f"all {y.size} outputs of {model.name!r} are non-finite")
    return y


def finite_within_rate(values: np.ndarray, where: str) -> np.ndarray:
    """The finite mask of ``values``, the one non-finite policy of every
    estimator: non-finite values are logged and may be excluded, and a rate
    above ``MAX_BAD_FRACTION`` raises ``NumericalError``."""
    good = np.isfinite(values)
    n_bad = int(values.size - good.sum())
    if n_bad:
        rate = n_bad / values.size
        log.warning("%s: excluded %d non-finite values (rate %.4f%%)", where, n_bad, 100 * rate)
        if rate > MAX_BAD_FRACTION:
            raise NumericalError(
                f"{where}: non-finite value rate {rate:.2%} exceeds {MAX_BAD_FRACTION:.2%}"
            )
    return good


def clean_outputs(y: np.ndarray, where: str = "estimator") -> np.ndarray:
    """Drop non-finite rows under the ``finite_within_rate`` policy."""
    good = finite_within_rate(y, where)
    return y if good.all() else y[good]


def fd_directional_batch(model: Model, x: np.ndarray, y0: np.ndarray,
                         group: tuple[int, ...], h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Forward difference along the common perturbation of a variable group.

    ``y0`` is ``g(x)``. Every coordinate in ``group`` moves by the same
    signed step s*h, with s = -1 on rows where a group member would leave its
    support and +1 elsewhere; returns (g(x + s*h*1_group) - y0) / (s*h) per
    row. A one-element group gives a partial derivative. One batch
    evaluation; rows with a non-finite evaluation get a non-finite result.
    """
    if not h > 0:
        raise ConfigurationError(f"finite-difference step must be positive, got {h}")
    sign = np.ones(x.shape[0])
    for i in group:
        _, upper = model.inputs[i].support()
        sign = np.where(x[:, i] + h <= upper, sign, -1.0)
    step = sign * h
    shifted = x.copy()
    for i in group:
        shifted[:, i] += step
    return (evaluate_batch(model, shifted) - y0) / step


def fix_variables(model: Model, fixed: dict[int, float]) -> Model:
    """Reduce the model by pinning coordinates to constants.

    The reduced model has dimension ``d - len(fixed)``; its evaluator injects
    the fixed values into the original input layout, and the fixed
    coordinates' distributions are dropped.
    """
    if not fixed:
        return model
    d = model.dim
    for i, v in fixed.items():
        if not 0 <= i < d:
            raise ConfigurationError(f"fixed index {i} out of range for dim {d}")
        lo, hi = model.inputs[i].support()
        if not lo <= v <= hi:
            raise ConfigurationError(f"fixed value {v} outside support of input {i}")
    if len(fixed) >= d:
        raise ConfigurationError("cannot fix every variable of the model")

    free = tuple(i for i in range(d) if i not in fixed)
    fixed_items = tuple(sorted(fixed.items()))
    base_eval = model.evaluator

    def reduced_eval(xr: np.ndarray) -> np.ndarray:
        full = np.empty((xr.shape[0], d), dtype=float)
        full[:, list(free)] = xr
        for i, v in fixed_items:
            full[:, i] = v
        return base_eval(full)

    label = ",".join(f"x{i + 1}={v:g}" for i, v in fixed_items)
    return Model(
        name=f"{model.name}[{label}]",
        inputs=tuple(model.inputs[i] for i in free),
        evaluator=reduced_eval,
    )
