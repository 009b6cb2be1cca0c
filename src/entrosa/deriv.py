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

Per group, one pass of row blocks steps, evaluates and writes the
differences, and a second takes their magnitudes, squares, floored logs
and floored mask, all into n-vectors allocated once per call and shared
by the groups. The means over them are whole-array, so the measures are
the same at any number of CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .model import (DEFAULT_FD_STEP, Model, _fd_into, _map_rows, evaluate_batch,
                    finite_within_rate, sample_inputs)

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
        if any(not 0 <= i < d for i in g):
            raise ConfigurationError(f"group index out of range for dim {d}: {g}")
    if n < 10:
        raise ConfigurationError(f"derivative estimation needs n >= 10, got {n}")
    if rng is None:
        raise ConfigurationError("an explicit rng stream is required")
    x = sample_inputs(model, n, rng)
    y0 = evaluate_batch(model, x)
    # the rounding of g divided by the step: the smallest derivative a
    # forward difference can resolve
    floor = np.maximum(np.finfo(float).eps * np.abs(y0) / h, GRAD_FLOOR)

    # per group: |derivative|, its square, the log of its floored magnitude
    # and the floored mask, in n-vectors shared by every group
    mag, square, log_mag = np.empty((3, n))
    floored = np.empty(n, dtype=bool)

    def stats(rows: slice) -> None:
        m = np.abs(mag[rows], out=mag[rows])
        np.multiply(m, m, out=square[rows])
        np.less_equal(m, floor[rows], out=floored[rows])
        np.log(np.maximum(m, floor[rows], out=log_mag[rows]), out=log_mag[rows])

    mu, nu, l, zfrac = np.empty((4, len(groups)))
    for k, g in enumerate(groups):
        _fd_into(model, x, y0, g, h, mag)
        _map_rows(stats, n)
        keep = finite_within_rate(mag, f"derivative x{g[0] + 1}" if len(g) == 1
                                  else f"group derivative {[i + 1 for i in g]}")
        kept = (mag, square, log_mag, floored)
        if not keep.all():
            kept = tuple(v[keep] for v in kept)
        m, sq, log_m, fl = kept
        mu[k] = m.mean()
        nu[k] = sq.mean()
        l[k] = -np.inf if fl.all() else log_m.mean()
        zfrac[k] = fl.mean()
    return DerivMeasures(mu=mu, nu=nu, l=l, zero_derivative_fraction=zfrac, y=y0)
