"""Deterministic model abstraction: batch evaluation, finite-difference
gradients, and variable fixing.

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

__all__ = ["Model", "evaluate_batch", "fd_gradient", "fd_gradient_batch",
           "fix_variables", "sample_inputs", "DEFAULT_FD_STEP", "MAX_BAD_FRACTION"]

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

    Non-finite outputs are preserved (callers decide how to treat them); the
    batch as a whole fails only when every row is non-finite.
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
    n_bad = int(np.size(y) - np.isfinite(y).sum())
    if n_bad:
        log.warning("%s: %d of %d outputs non-finite", model.name, n_bad, y.size)
    return y


def clean_outputs(y: np.ndarray, where: str = "estimator") -> np.ndarray:
    """Drop non-finite rows; abort when the exclusion rate exceeds 0.1%."""
    good = np.isfinite(y)
    n_bad = int(y.size - good.sum())
    if n_bad == 0:
        return y
    rate = n_bad / y.size
    log.warning("%s: excluded %d non-finite outputs (rate %.4f%%)", where, n_bad, 100 * rate)
    if rate > MAX_BAD_FRACTION:
        raise NumericalError(
            f"{where}: non-finite output rate {rate:.2%} exceeds {MAX_BAD_FRACTION:.2%}"
        )
    return y[good]


def _shifted(model: Model, x: np.ndarray, i: int, h: float):
    """Per-row forward step in coordinate i, backward at the upper support edge.

    Returns the shifted matrix and the signed step (+h or -h) per row.
    """
    _, upper = model.inputs[i].support()
    step = np.where(x[:, i] + h <= upper, h, -h)
    shifted = x.copy()
    shifted[:, i] += step
    return shifted, step


def fd_gradient_batch(model: Model, x: np.ndarray, h: float = DEFAULT_FD_STEP,
                      return_resolution: bool = False):
    """Forward-difference gradients for every row of ``x``; (n, d) result.

    Costs d+1 batch evaluations. Rows whose evaluation is non-finite get NaN
    gradient entries. With ``return_resolution`` the per-row magnitude below
    which the finite difference cannot distinguish a derivative from zero
    (the rounding of g divided by the step) is returned as well.
    """
    if not h > 0:
        raise ConfigurationError(f"finite-difference step must be positive, got {h}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y0 = evaluate_batch(model, x)
    grad = np.empty_like(x)
    for i in range(model.dim):
        shifted, step = _shifted(model, x, i, h)
        yi = evaluate_batch(model, shifted)
        grad[:, i] = (yi - y0) / step
    if return_resolution:
        return grad, fd_resolution(y0, h)
    return grad


def fd_resolution(y0: np.ndarray, h: float) -> np.ndarray:
    """Smallest derivative magnitude a forward difference can resolve."""
    return np.finfo(float).eps * np.abs(y0) / h


def fd_gradient(model: Model, x: np.ndarray, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Finite-difference gradient at a single point (length-d vector)."""
    return fd_gradient_batch(model, np.asarray(x, dtype=float)[None, :], h)[0]


def fd_directional_batch(model: Model, x: np.ndarray, direction_idx: tuple[int, ...],
                         h: float = DEFAULT_FD_STEP,
                         return_resolution: bool = False):
    """Directional derivative along the common perturbation of a variable group.

    Perturbs every coordinate in ``direction_idx`` by the same signed step and
    returns (g(x + h*1_g) - g(x)) / h per row. Two batch evaluations.
    """
    if not h > 0:
        raise ConfigurationError(f"finite-difference step must be positive, got {h}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y0 = evaluate_batch(model, x)
    # one shared sign per row: backward if any group member would leave support
    sign = np.ones(x.shape[0])
    for i in direction_idx:
        _, upper = model.inputs[i].support()
        sign = np.where(x[:, i] + h <= upper, sign, -1.0)
    shifted = x.copy()
    for i in direction_idx:
        shifted[:, i] += sign * h
    y1 = evaluate_batch(model, shifted)
    deriv = (y1 - y0) / (sign * h)
    if return_resolution:
        return deriv, fd_resolution(y0, h)
    return deriv


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
