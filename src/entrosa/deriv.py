"""Derivative-based global sensitivity measures.

For each group of inputs the estimator averages, over a Monte Carlo sample
of the input space, the absolute directional derivative along the common
perturbation of the group's members (``mu``), its square (``nu``), and its
log magnitude (``l``). The default groups are the single inputs, so the
derivatives are the partials. All three come from one shared derivative
sample, so the chain ``exp(l) <= mu <= sqrt(nu)`` holds per sample set
(Jensen / Cauchy-Schwarz) up to machine rounding.

One x and one g(x) serve every group, through one step rule,
``model.fd_directional_batch``: a forward difference of step h along the
group's common direction, taken backward on rows where a member would
leave its support. Each magnitude is floored at the resolution
eps*|g(x)|/h, and at least at ``GRAD_FLOOR``, before the log.

Per group, ``fd_directional_batch`` returns the differences, one pass of
row blocks that steps, evaluates and differences; a second pass takes
their magnitudes in place, and their squares and floored logs into two
n-vectors allocated once per call and shared by the groups. A group's
differences are released before the next group's are taken.
The second pass also tallies, per block, the non-finite magnitudes and
the floored ones, so that a sample with no non-finite derivative needs no
mask and no whole-array scan besides the means. The means are
whole-array and the counts exact, so the measures are the same at any
number of CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .model import (DEFAULT_FD_STEP, Model, _map_rows, _non_finite, evaluate_batch,
                    fd_directional_batch, finite_within_rate, sample_inputs)

__all__ = ["DerivMeasures", "estimate_deriv_measures", "GRAD_FLOOR"]

# hard lower floor for log-derivative magnitudes; the effective floor per
# sample is the finite-difference resolution eps*|g(x)|/h, so a measured zero
# contributes the log of the smallest derivative the scheme could have seen
# rather than an arbitrarily large negative outlier
GRAD_FLOOR = 1e-300


@dataclass(frozen=True)
class DerivMeasures:
    mu: np.ndarray                        # E[|dg/dz_k|] per group k
    nu: np.ndarray                        # E[(dg/dz_k)^2]
    l: np.ndarray                         # E[ln|dg/dz_k|], -inf if all floored
    zero_derivative_fraction: np.ndarray  # share of samples at/below the floor
    y: np.ndarray                         # g(x) on the derivative sample, as evaluated

    @property
    def dim(self) -> int:
        return self.mu.size


def estimate_deriv_measures(model: Model, n: int, h: float = DEFAULT_FD_STEP,
                            rng: np.random.Generator | None = None,
                            groups: tuple[tuple[int, ...], ...] | None = None
                            ) -> DerivMeasures:
    """Monte Carlo estimate of mu, nu and l over ``n`` input draws, one entry
    per group of input indices, with dg/dz the directional derivative along
    the common perturbation of the group's members (the sum of its
    partials). ``groups`` defaults to one single-input group per input.

    Costs (G+1) * n model evaluations for G groups: g(x) once, then one
    forward difference per group on the shared x and g(x). Samples with a
    non-finite derivative (a non-finite g(x) makes every derivative of its
    row non-finite) are dropped for that group under the
    ``finite_within_rate`` policy.
    """
    d = model.dim
    groups = [(i,) for i in range(d)] if groups is None else [tuple(g) for g in groups]
    for g in groups:
        if not g or len(set(g)) != len(g):
            raise ConfigurationError(f"group must be non-empty with distinct indices, got {g}")
        bad = next((i for i in g if not 0 <= i < d), None)
        if bad is not None:
            raise ConfigurationError(f"group names x{bad + 1}, but the model has inputs x1..x{d}")
    if n < 10:
        raise ConfigurationError(f"derivative estimation needs n >= 10, got {n}")
    if rng is None:
        raise ConfigurationError("an explicit rng stream is required")
    x = sample_inputs(model, n, rng)
    y0 = evaluate_batch(model, x)
    # the rounding of g divided by the step: the smallest derivative a
    # forward difference can resolve
    floor = np.maximum(np.finfo(float).eps * np.abs(y0) / h, GRAD_FLOOR)

    # per group: the square of |derivative| and the log of its floored
    # magnitude, in n-vectors shared by every group
    square, log_mag = np.empty((2, n))

    def stats(rows: slice) -> tuple[int, int]:
        m = np.abs(mag[rows], out=mag[rows])
        np.multiply(m, m, out=square[rows])
        n_floored = int(np.count_nonzero(m <= floor[rows]))
        np.log(np.maximum(m, floor[rows], out=log_mag[rows]), out=log_mag[rows])
        return _non_finite(m), n_floored

    mu, nu, l, zfrac = np.empty((4, len(groups)))
    for k, g in enumerate(groups):
        mag = fd_directional_batch(model, x, y0, g, h)
        n_bad, n_floored = map(sum, zip(*_map_rows(stats, n)))
        keep = finite_within_rate(mag, f"derivative x{g[0] + 1}" if len(g) == 1
                                  else f"group derivative {[i + 1 for i in g]}", n_bad)
        m, sq, log_m = mag, square, log_mag
        if keep is not None:
            # a row whose magnitude and floor are both infinite is floored
            # but not kept
            m, sq, log_m = mag[keep], square[keep], log_mag[keep]
            n_floored = int(np.count_nonzero(m <= floor[keep]))
        mu[k] = m.mean()
        nu[k] = sq.mean()
        l[k] = -np.inf if n_floored == m.size else log_m.mean()
        zfrac[k] = n_floored / m.size
        # the group's differences and any kept copy go before the next
        # group's are allocated, so at most one of them is alive
        del mag, m, sq, log_m
    return DerivMeasures(mu=mu, nu=nu, l=l, zero_derivative_fraction=zfrac, y=y0)
