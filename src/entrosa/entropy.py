"""Histogram-based differential entropy estimation and the entropy-based
sensitivity indices with their derivative-based upper bounds.

The estimators grid each axis with equal-width cells spanning the sample
min/max and plug in cell frequencies:

* marginal:     H(Y)   ~ -sum (k_j/N) ln(k_j/N) + ln(dy)
* conditional:  H(Y|X) ~ -sum (k_ij/N) ln(k_ij/k_i) + ln(dy)

where i indexes the (possibly multi-dimensional) conditioning cell and j the
output cell. Every conditional entropy goes through one kernel that folds
per-axis cell codes into joint cell codes and counts them;
``estimate_entropy_indices`` codes each axis once per repetition, takes H(Y)
from the output codes and shares the codes across all d leave-one-out
conditionings.

A grid of at most 3 cells per sample (``bins_cond^k * bins_output <= 3n``,
with k the number of non-constant conditioning columns) is counted with
``np.bincount``, which holds an int64 count for every cell of the grid: at
most 24 bytes per sample, 36 MB at n = 1.5e6. A larger grid is counted by
sorting the joint codes, which materializes only occupied cells, so grids far
larger than memory are fine there. Both paths give the same counts in the
same order, so the estimate does not depend on which one runs.

Bin counts drive a bias trade-off: coarse conditioning inflates the estimate
(within-cell variation leaks into the conditional law), fine grids starve
cells and deflate it. Defaults suit moderate problems; studies that target a
specific sampling regime should pass an explicit ``HistogramSpec``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .deriv import DerivMeasures
from .distributions import Distribution
from .errors import ConfigurationError, NumericalError, SparseGridError
from .model import Model, clean_outputs, evaluate_batch, sample_inputs

__all__ = ["HistogramSpec", "EntropyReport", "EntropyBounds", "KLResult",
           "entropy_histogram", "conditional_entropy", "estimate_entropy_indices",
           "entropy_upper_bounds", "kl_total_index"]

log = logging.getLogger(__name__)

MAX_CONDITIONING_DIMS = 4
_SINGLETON_ERROR_SHARE = 0.5
_SPARSE_WARN_MEAN_COUNT = 10.0
# A grid of at most this many cells per sample is counted with np.bincount
# over every cell; a larger one by sorting the joint codes. On a 2-core x86
# box with numpy 2.4 the dense count broke even with the sort at about 7
# cells per sample for n <= 2.5e5 and at about 3 for n = 1.5e6, where the
# dense array outgrows the cache.
_DENSE_CELLS_PER_SAMPLE = 3


@dataclass(frozen=True)
class HistogramSpec:
    bins_output: int = 100
    bins_per_conditioning_dim: int = 20

    def __post_init__(self):
        if self.bins_output < 2 or self.bins_per_conditioning_dim < 2:
            raise ConfigurationError("histogram needs at least 2 bins per dimension")


def _axis_codes(values: np.ndarray, bins: int) -> tuple[np.ndarray, float]:
    """Equal-width cell index per sample and the cell width; grid spans the
    sample min/max with no padding. Returns (None, 0) on a degenerate range."""
    # the one float temporary; contiguous, so a strided column x[:, j] is
    # read once instead of on each pass below
    scaled = np.array(values, dtype=float)
    lo = scaled.min()
    hi = scaled.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericalError("histogram input contains non-finite values")
    if hi <= lo:
        return None, 0.0
    width = (hi - lo) / bins
    scaled -= lo
    scaled *= bins / (hi - lo)
    # scaled >= 0, so truncating before the clip gives the same codes as after
    codes = scaled.astype(np.int64)
    del scaled
    np.minimum(codes, bins - 1, out=codes)
    return codes, float(width)


def _entropy_from_codes(codes: np.ndarray, width: float, bins: int) -> float:
    """Plug-in differential entropy from cell codes in [0, bins) of cell width
    ``width``; occupied bins are summed in code order."""
    counts = np.bincount(codes, minlength=bins)
    p = counts[counts > 0] / codes.size
    return float(-(p * np.log(p)).sum() + math.log(width))


def _check_grid(k: int, spec: HistogramSpec) -> None:
    """Refuse conditioning grids that cannot be populated or coded."""
    if k < 1:
        raise ConfigurationError("need at least one conditioning variable")
    if k > MAX_CONDITIONING_DIMS:
        raise SparseGridError(
            f"refusing a {k}-dimensional conditioning grid (max {MAX_CONDITIONING_DIMS}); "
            "fix variables to reduce the model first")
    if spec.bins_per_conditioning_dim ** k * spec.bins_output >= 2 ** 62:
        raise ConfigurationError(
            f"conditioning grid {spec.bins_per_conditioning_dim}^{k} x {spec.bins_output} "
            "overflows cell codes")


def _conditional_from_codes(ycodes: np.ndarray, width: float, cond_codes: list,
                            spec: HistogramSpec) -> float:
    """Plug-in H(Y|X) from the output cell codes (cell width ``width``) and one
    code array per conditioning axis, None for a constant column, which
    carries no information. Escalates to an error when more than half of the
    occupied conditioning cells hold a single sample."""
    n = ycodes.size
    bins_out = spec.bins_output
    joint = np.zeros(n, dtype=np.int64)
    n_cond = 1
    for codes in cond_codes:
        if codes is not None:
            joint *= spec.bins_per_conditioning_dim
            joint += codes
            n_cond *= spec.bins_per_conditioning_dim
    joint *= bins_out
    joint += ycodes

    # Both branches yield the occupied cells' counts and their conditioning
    # cells' totals in ascending cell-code order, so the sum below is the same
    # bit for bit whichever branch runs.
    if n_cond * bins_out <= _DENSE_CELLS_PER_SAMPLE * n:
        full = np.bincount(joint, minlength=n_cond * bins_out)
        del joint
        k_cond = full.reshape(n_cond, bins_out).sum(axis=1)
        cells = np.flatnonzero(full > 0)   # a bool mask takes numpy's fast path
        counts = full[cells]
        del full
        k_i_full = k_cond[cells // bins_out]
        del cells
        k_i = k_cond[k_cond > 0]
    else:
        cells, counts = np.unique(joint, return_counts=True)
        del joint
        # cells arrive sorted, so conditioning-cell blocks are contiguous
        starts = np.flatnonzero(np.r_[True, np.diff(cells // bins_out) != 0])
        del cells
        k_i = np.add.reduceat(counts, starts)
        k_i_full = np.repeat(k_i, np.diff(np.r_[starts, counts.size]))

    occupied = k_i.size
    singleton_share = float((k_i == 1).mean())
    if singleton_share > _SINGLETON_ERROR_SHARE:
        raise SparseGridError(
            f"{singleton_share:.0%} of {occupied} occupied conditioning cells hold a "
            "single sample; use fewer bins or more samples")
    mean_count = n / occupied
    if mean_count < _SPARSE_WARN_MEAN_COUNT:
        log.warning("sparse conditioning grid: %.1f samples per occupied cell "
                    "(%d cells)", mean_count, occupied)

    h = -(counts / n * np.log(counts / k_i_full)).sum() + math.log(width)
    return float(h)


def entropy_histogram(samples: np.ndarray, spec: HistogramSpec = HistogramSpec()) -> float:
    """Differential entropy (nats) of a 1-D sample. A degenerate range (all
    samples equal) is reported as -inf."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 1:
        raise ConfigurationError("entropy_histogram needs at least one sample")
    codes, width = _axis_codes(samples, spec.bins_output)
    if codes is None:
        return -math.inf
    return _entropy_from_codes(codes, width, spec.bins_output)


def conditional_entropy(y: np.ndarray, x_cond: np.ndarray,
                        spec: HistogramSpec = HistogramSpec()) -> float:
    """Expected conditional entropy H(Y|X) over a dense conditioning grid.

    ``x_cond`` is (n,) or (n, k) with k <= 4; beyond that the grid cannot be
    populated at sane sample sizes and the operation refuses (fix variables
    first to reduce the dimension). Escalates to an error when more than half
    of the occupied conditioning cells hold a single sample.
    """
    y = np.asarray(y, dtype=float).ravel()
    x_cond = np.asarray(x_cond, dtype=float)
    if x_cond.ndim == 1:
        x_cond = x_cond[:, None]
    n, k = x_cond.shape
    if n != y.size:
        raise ConfigurationError("y and x_cond disagree on sample count")
    _check_grid(k, spec)
    ycodes, width = _axis_codes(y, spec.bins_output)
    if ycodes is None:
        return -math.inf
    cond_codes = [_axis_codes(x_cond[:, j], spec.bins_per_conditioning_dim)[0]
                  for j in range(k)]
    return _conditional_from_codes(ycodes, width, cond_codes, spec)


@dataclass(frozen=True)
class EntropyReport:
    h_y: float
    h_y_std: float
    h_total: np.ndarray
    h_total_std: np.ndarray
    eta: np.ndarray
    eta_std: np.ndarray
    kappa: np.ndarray
    kappa_std: np.ndarray
    kappa_clipped: np.ndarray            # True where exp(H_Ti - H_Y) > 1 was clipped


def estimate_entropy_indices(model: Model, n: int,
                             spec: HistogramSpec = HistogramSpec(),
                             repetitions: int = 1,
                             rng: np.random.Generator | None = None) -> EntropyReport:
    """Total-effect entropy indices for every input of the model.

    Per repetition: draw n inputs, evaluate, code the output and every input
    column once, then for each variable i compute the conditional entropy of
    the output given all other input columns from the shared codes.
    Reports means and stds over repetitions for H(Y), H_Ti, eta_Ti and
    kappa_Ti; kappa values that exceed 1 from estimator noise are clipped
    to 1 and flagged.
    """
    if rng is None:
        raise ConfigurationError("an explicit rng stream is required")
    if repetitions < 1:
        raise ConfigurationError("repetitions must be >= 1")
    d = model.dim
    _check_grid(d - 1, spec)
    h_y = np.empty(repetitions)
    h_t = np.empty((repetitions, d))
    for r in range(repetitions):
        x = sample_inputs(model, n, rng)
        y = evaluate_batch(model, x)
        good = np.isfinite(y)
        if not good.all():
            y = clean_outputs(y, model.name)
            x = x[good]
        ycodes, width = _axis_codes(y, spec.bins_output)
        if ycodes is None:  # constant output
            h_y[r] = h_t[r] = -math.inf
            continue
        h_y[r] = _entropy_from_codes(ycodes, width, spec.bins_output)
        cols = [_axis_codes(x[:, j], spec.bins_per_conditioning_dim)[0] for j in range(d)]
        # free the samples before the counting passes; the codes are all they need
        del x, y
        for i in range(d):
            try:
                h_t[r, i] = _conditional_from_codes(ycodes, width, cols[:i] + cols[i + 1:],
                                                    spec)
            except SparseGridError as exc:
                raise SparseGridError(f"variable {i + 1} of {model.name}: {exc}") from exc
        del ycodes, cols

    # degenerate outputs carry -inf entropies; the NaNs they produce here are
    # deliberate and surface as "undefined" to callers
    with np.errstate(invalid="ignore"):
        eta = h_t / h_y[:, None]
        kappa_raw = np.exp(h_t - h_y[:, None])
        clipped = kappa_raw > 1.0
        if clipped.any():
            log.warning("%s: clipped %d kappa values above 1",
                        model.name, int(clipped.sum()))
        kappa = np.minimum(kappa_raw, 1.0)
        return EntropyReport(
            h_y=float(h_y.mean()), h_y_std=float(h_y.std(ddof=0)),
            h_total=h_t.mean(axis=0), h_total_std=h_t.std(axis=0, ddof=0),
            eta=eta.mean(axis=0), eta_std=eta.std(axis=0, ddof=0),
            kappa=kappa.mean(axis=0), kappa_std=kappa.std(axis=0, ddof=0),
            kappa_clipped=clipped.any(axis=0))


@dataclass(frozen=True)
class EntropyBounds:
    h_bound: np.ndarray         # H(X_i) + l_i
    kappa_bound: np.ndarray     # e^{H(X_i) + l_i} / e^{H(Y)}
    nu_kappa_bound: np.ndarray  # e^{H(X_i)} sqrt(nu_i) / e^{H(Y)}
    h_y: float


def entropy_upper_bounds(measures: DerivMeasures, inputs: tuple[Distribution, ...],
                         h_y: float) -> EntropyBounds:
    """Derivative-based upper bounds for the entropy indices.

    The squared-DGSM bound is reported as its square root so it is directly
    comparable to kappa. A variable with l = -inf gets zero bounds: it is
    certified negligible.
    """
    if measures.dim != len(inputs):
        raise ConfigurationError("derivative measures and input list disagree on dimension")
    h_x = np.array([dist.entropy() for dist in inputs])
    if not np.isfinite(h_x).all():
        raise ConfigurationError("input entropy must be finite for every variable")
    h_bound = h_x + measures.l
    with np.errstate(over="raise"):
        kappa_bound = np.exp(np.where(np.isneginf(h_bound), -np.inf, h_bound - h_y))
        nu_kappa_bound = np.exp(h_x - h_y) * np.sqrt(measures.nu)
    return EntropyBounds(h_bound=h_bound, kappa_bound=kappa_bound,
                         nu_kappa_bound=nu_kappa_bound, h_y=h_y)


@dataclass(frozen=True)
class KLResult:
    value: float
    floored_mass: float   # output probability mass sitting on floored cells
    floor_warning: bool


def kl_total_index(model: Model, i: int, n: int,
                   spec: HistogramSpec = HistogramSpec(),
                   rng: np.random.Generator | None = None) -> KLResult:
    """KL divergence between the output density with x_i frozen at its mean
    and the unconditional output density, on a shared equal-width grid.

    Both samples are coded together by the coder every histogram estimator
    here uses, so a sample falls in the same cell as in the entropy indices.
    The counts can differ from ``np.histogram`` only for a sample exactly on
    a bin edge, which numpy checks against its ``linspace`` edges.

    Grid cells where the unconditional density is empty but the conditional
    one is not are floored at half a sample; a result with more than 5% of
    conditional mass on floored cells carries a warning flag.
    """
    if rng is None:
        raise ConfigurationError("an explicit rng stream is required")
    if not 0 <= i < model.dim:
        raise ConfigurationError(f"variable index {i} out of range")
    mean_i = model.inputs[i].mean()
    if not np.isfinite(mean_i):
        raise ConfigurationError(f"mean of input {i + 1} is not finite")

    x0 = sample_inputs(model, n, rng)
    y0 = clean_outputs(evaluate_batch(model, x0), "kl baseline")
    x1 = sample_inputs(model, n, rng)
    x1[:, i] = mean_i
    y1 = clean_outputs(evaluate_batch(model, x1), "kl conditional")
    del x0, x1

    bins = spec.bins_output
    codes, _ = _axis_codes(np.concatenate([y0, y1]), bins)
    if codes is None:
        return KLResult(0.0, 0.0, False)
    p0 = np.bincount(codes[:y0.size], minlength=bins) / y0.size
    p1 = np.bincount(codes[y0.size:], minlength=bins) / y1.size
    mask = p1 > 0
    floored = mask & (p0 == 0)
    floored_mass = float(p1[floored].sum())
    p0_safe = np.maximum(p0, 0.5 / y0.size)
    value = float((p1[mask] * np.log(p1[mask] / p0_safe[mask])).sum())
    warn = floored_mass > 0.05
    if warn:
        log.warning("kl_total_index(%s, %d): %.1f%% of conditional mass on floored cells",
                    model.name, i + 1, 100 * floored_mass)
    return KLResult(value=value, floored_mass=floored_mass, floor_warning=warn)

