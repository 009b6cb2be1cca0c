"""Derivative-based global sensitivity measures.

For each input the estimator averages, over a Monte Carlo sample of the input
space, the absolute partial derivative (``mu``), its square (``nu``), and its
log magnitude (``l``). All three are computed from one shared derivative
sample so that the chain ``exp(l) <= mu <= sqrt(nu)`` holds per sample set
(Jensen / Cauchy-Schwarz) up to machine rounding. A group variant averages
the log of the directional derivative along a common perturbation of all
group members.

Both use one step rule, ``model.fd_directional_batch``: a forward difference
of step h along the group's common direction (a one-element group for a
partial), taken backward on rows where a member would leave its support.
Both floor each magnitude at the resolution eps*|g(x)|/h, and at least at
``GRAD_FLOOR``, before the log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .model import (DEFAULT_FD_STEP, Model, evaluate_batch,
                    fd_directional_batch, finite_within_rate, sample_inputs)

__all__ = ["DerivMeasures", "GroupLogDerivative", "estimate_deriv_measures",
           "estimate_group_l", "GRAD_FLOOR"]

# hard lower floor for log-derivative magnitudes; the effective floor per
# sample is the finite-difference resolution eps*|g(x)|/h, so a measured zero
# contributes the log of the smallest derivative the scheme could have seen
# rather than an arbitrarily large negative outlier
GRAD_FLOOR = 1e-300


@dataclass(frozen=True)
class DerivMeasures:
    mu: np.ndarray                        # E[|dg/dx_i|]
    nu: np.ndarray                        # E[(dg/dx_i)^2]
    l: np.ndarray                         # E[ln|dg/dx_i|], -inf if all floored
    zero_derivative_fraction: np.ndarray  # share of samples at/below the floor

    @property
    def dim(self) -> int:
        return self.mu.size


def _fd_floor(y0: np.ndarray, h: float) -> np.ndarray:
    """Per-row floor for derivative magnitudes: the rounding of g divided by
    the step, the smallest derivative a forward difference can resolve."""
    return np.maximum(np.finfo(float).eps * np.abs(y0) / h, GRAD_FLOOR)


def _floored_log_mean(deriv: np.ndarray, floor: np.ndarray, where: str):
    """Drop non-finite samples under the ``finite_within_rate`` policy;
    return the kept magnitudes, the mean log magnitude with each sample
    raised to its floor (-inf if all are at or below it) and the share at or
    below the floor."""
    mag = np.abs(deriv)
    keep = finite_within_rate(mag, where)
    mag, floor = mag[keep], floor[keep]
    floored = mag <= floor
    l = -np.inf if floored.all() else float(np.log(np.maximum(mag, floor)).mean())
    return mag, l, float(floored.mean())


def estimate_deriv_measures(model: Model, n: int, h: float = DEFAULT_FD_STEP,
                            rng: np.random.Generator | None = None) -> DerivMeasures:
    """Monte Carlo estimate of mu_i, nu_i, l_i over ``n`` input draws.

    Costs (d+1) * n model evaluations: g(x) once, then one forward
    difference per input on the shared g(x). Samples with a non-finite
    partial (a non-finite g(x) makes every partial of its row non-finite)
    are dropped for that input; more than ``MAX_BAD_FRACTION`` of them for
    any input raises ``NumericalError``.
    """
    if n < 10:
        raise ConfigurationError(f"derivative estimation needs n >= 10, got {n}")
    if rng is None:
        raise ConfigurationError("an explicit rng stream is required")
    x = sample_inputs(model, n, rng)
    y0 = evaluate_batch(model, x)
    floor = _fd_floor(y0, h)

    d = model.dim
    mu = np.empty(d)
    nu = np.empty(d)
    l = np.empty(d)
    zfrac = np.empty(d)
    for i in range(d):
        col, l[i], zfrac[i] = _floored_log_mean(
            fd_directional_batch(model, x, y0, (i,), h), floor, f"derivative x{i + 1}")
        mu[i] = col.mean()
        nu[i] = (col * col).mean()
    return DerivMeasures(mu=mu, nu=nu, l=l, zero_derivative_fraction=zfrac)


@dataclass(frozen=True)
class GroupLogDerivative:
    l: float
    zero_derivative_fraction: float


def estimate_group_l(model: Model, group: tuple[int, ...], n: int,
                     h: float = DEFAULT_FD_STEP,
                     rng: np.random.Generator | None = None) -> GroupLogDerivative:
    """E[ln|dg/dz|] for a variable group, with dg/dz the directional
    derivative along the common perturbation of all group members
    (the sum of the group's partials). Non-finite samples follow
    ``estimate_deriv_measures``."""
    group = tuple(group)
    if not group or len(set(group)) != len(group):
        raise ConfigurationError(f"group must be non-empty with distinct indices, got {group}")
    if any(not 0 <= i < model.dim for i in group):
        raise ConfigurationError(f"group index out of range for dim {model.dim}: {group}")
    if n < 10:
        raise ConfigurationError(f"group derivative estimation needs n >= 10, got {n}")
    if rng is None:
        raise ConfigurationError("an explicit rng stream is required")

    x = sample_inputs(model, n, rng)
    y0 = evaluate_batch(model, x)
    _, l, zfrac = _floored_log_mean(fd_directional_batch(model, x, y0, group, h),
                                    _fd_floor(y0, h), "group derivative")
    return GroupLogDerivative(l=l, zero_derivative_fraction=zfrac)
