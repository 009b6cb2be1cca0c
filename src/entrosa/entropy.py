"""Histogram (and 1-D kNN) differential entropy estimation and the entropy-based
sensitivity indices with their derivative-based upper bounds.

The estimators grid each axis with equal-width cells spanning the sample
min/max and plug in cell frequencies:

* marginal:     H(Y)   ~ -sum (k_j/N) ln(k_j/N) + ln(dy)
* conditional:  H(Y|X) ~ -sum (k_ij/N) ln(k_ij/k_i) + ln(dy)

where i indexes the (possibly multi-dimensional) conditioning cell and j the
output cell; H(Y) is H(Y|X) with no conditioning axis. Both go through one
kernel that folds per-axis cell codes into joint cell codes and counts them;
``estimate_entropy_indices`` codes each axis once per repetition and shares
the codes across H(Y) and all d leave-one-out conditionings, so a one-input
model gets H_T1 = H(Y). Each repetition draws from its own spawned stream,
and repetitions run concurrently through ``_map_in_order``, with results
independent of the number of threads.
The KL index ``kl_total_index`` takes one input sample for all d inputs:
g(x) is the shared unconditional baseline.

``_cell_counts`` counts every histogram, the KL halves included: it sorts
the cell codes in place and reads the occupied cells and their counts off
the run boundaries. No array spans the whole grid, so grids far larger than
memory are fine. Joint codes take 4 bytes per sample, or 8 when the grid has
at least 2^31 cells, plus run arrays over the occupied cells.

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
from .model import (Model, _map_in_order, _map_rows, _restoring, clean_outputs,
                    evaluate_batch, finite_within_rate, sample_inputs)

__all__ = ["HistogramSpec", "EntropyReport", "EntropyBounds", "KLResult",
           "entropy_histogram", "entropy_knn", "conditional_entropy",
           "estimate_entropy_indices", "entropy_upper_bounds", "kl_total_index"]

log = logging.getLogger(__name__)

MAX_CONDITIONING_DIMS = 4
_SINGLETON_ERROR_SHARE = 0.5
_SPARSE_WARN_MEAN_COUNT = 10.0
# cell codes are int32, so no axis may have more cells than int32 can index
_MAX_BINS = 2 ** 31 - 1


@dataclass(frozen=True)
class HistogramSpec:
    bins_output: int = 100
    bins_per_conditioning_dim: int = 20

    def __post_init__(self):
        if self.bins_output < 2 or self.bins_per_conditioning_dim < 2:
            raise ConfigurationError("histogram needs at least 2 bins per dimension")
        if max(self.bins_output, self.bins_per_conditioning_dim) > _MAX_BINS:
            raise ConfigurationError(f"histogram allows at most {_MAX_BINS} bins per dimension")


def _axis_codes(values: np.ndarray, bins: int) -> tuple[np.ndarray, float]:
    """Equal-width cell index per sample and the cell width; grid spans the
    sample min/max with no padding. Returns (None, 0) on a degenerate range
    and raises NumericalError on a range float64 cannot divide into cells."""
    values = np.asarray(values, dtype=float)
    lo = float(values.min())
    hi = float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericalError("histogram input contains non-finite values")
    if hi <= lo:
        return None, 0.0
    width = (hi - lo) / bins
    # cells per unit; 0 or inf when float64 cannot span the range in cells
    factor = bins / (hi - lo)
    if not 0 < factor < math.inf:
        raise NumericalError(f"sample range [{lo!r}, {hi!r}] is too narrow or too wide "
                             f"for {bins} histogram cells")
    codes = np.empty(values.size, dtype=np.int32)

    def code(rows: slice) -> None:
        # a float temporary of one row block, scaled in place
        scaled = np.subtract(values[rows], lo)
        scaled *= factor
        # scaled >= 0, so truncating before the clip gives the same codes as after
        block = codes[rows]
        np.copyto(block, scaled, casting="unsafe")
        np.minimum(block, bins - 1, out=block)

    _map_rows(code, values.size)
    return codes, width


def _cell_counts(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the cell codes in place and return the occupied cells in
    ascending code order with their counts, read off the run boundaries."""
    codes.sort()
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    return codes[starts], np.diff(starts, append=codes.size)


def _check_grid(k: int, spec: HistogramSpec) -> None:
    """Refuse conditioning grids that cannot be populated or coded."""
    if k > MAX_CONDITIONING_DIMS:
        raise SparseGridError(
            f"refusing a {k}-dimensional conditioning grid (max {MAX_CONDITIONING_DIMS}); "
            "fix variables to reduce the model first")
    if spec.bins_per_conditioning_dim ** k * spec.bins_output >= 2 ** 62:
        raise ConfigurationError(
            f"conditioning grid {spec.bins_per_conditioning_dim}^{k} x {spec.bins_output} "
            "overflows cell codes")


def _conditional_from_codes(ycodes: np.ndarray, width: float, cond_codes: list,
                            spec: HistogramSpec, where: str = "") -> float:
    """Plug-in H(Y|X) from the output cell codes (cell width ``width``) and one
    code array per conditioning axis, None for a constant column, which
    carries no information; with none, this is H(Y). Escalates to an error
    when more than half of the occupied conditioning cells hold a single
    sample. ``where``, such as ``variable 2 of ishigami``, prefixes the
    sparse-grid warning and error."""
    n = ycodes.size
    bins_out = spec.bins_output
    live = [codes for codes in cond_codes if codes is not None]
    n_cells = spec.bins_per_conditioning_dim ** len(live) * bins_out
    joint = np.zeros(n, dtype=np.int32 if n_cells < 2 ** 31 else np.int64)

    def fold(rows: slice) -> None:
        block = joint[rows]
        for codes in live:
            block *= spec.bins_per_conditioning_dim
            block += codes[rows]
        block *= bins_out
        block += ycodes[rows]

    _map_rows(fold, n)

    # the occupied cells come in ascending code order, so the cells of one
    # conditioning cell are a contiguous block of them
    cells, counts = _cell_counts(joint)
    del joint
    blocks = np.flatnonzero(np.r_[True, np.diff(cells // bins_out) != 0])
    del cells
    k_i = np.add.reduceat(counts, blocks)
    k_i_full = np.repeat(k_i, np.diff(blocks, append=counts.size))

    # with no conditioning axis this is H(Y), and no grid can be sparse
    if live:
        occupied = k_i.size
        prefix = f"{where}: " if where else ""
        singleton_share = float((k_i == 1).mean())
        if singleton_share > _SINGLETON_ERROR_SHARE:
            raise SparseGridError(
                f"{prefix}{singleton_share:.0%} of {occupied} occupied conditioning cells "
                "hold a single sample; use fewer bins or more samples")
        mean_count = n / occupied
        if mean_count < _SPARSE_WARN_MEAN_COUNT:
            log.warning("%ssparse conditioning grid: %.1f samples per occupied cell "
                        "(%d cells)", prefix, mean_count, occupied)

    h = -(counts / n * np.log(counts / k_i_full)).sum() + math.log(width)
    return float(h)


def entropy_histogram(samples: np.ndarray, spec: HistogramSpec = HistogramSpec()) -> float:
    """Differential entropy (nats) of a 1-D sample: ``conditional_entropy``
    with no conditioning axis. A degenerate range (all samples equal) is
    reported as -inf."""
    samples = np.asarray(samples, dtype=float).ravel()
    return conditional_entropy(samples, np.empty((samples.size, 0)), spec)


def entropy_knn(samples: np.ndarray) -> float:
    """Kozachenko-Leonenko entropy (nats) of a 1-D sample, k = 3: psi(n) - psi(3) + ln 2 +
    mean ln r. Sorted, a point's 3rd-neighbour distance r is the least, over the 4 windows
    of 4 points that hold it, of its distance to the farther end; r = 0 gives -inf."""
    s = np.sort(np.asarray(samples, dtype=float).ravel())
    if (n := s.size) < 4 or not (math.isfinite(s[0]) and math.isfinite(s[-1])):  # NaN sorts last
        raise ConfigurationError(f"a kNN entropy needs at least 4 samples, all finite, got {n}")
    r, near, far = np.full(n, np.inf), np.empty(n - 3), np.empty(n - 3)
    for o in range(4):  # the point sits o places into the window s[j:j + 4]
        np.maximum(np.subtract(s[o:n - 3 + o], s[:-3], out=near),
                   np.subtract(s[3:], s[o:n - 3 + o], out=far), out=near)
        np.minimum(r[o:n - 3 + o], near, out=r[o:n - 3 + o])
    if not r.min() >= np.finfo(float).tiny:  # an atom, or subnormal; before any log
        return -math.inf
    psi_n = math.log(n) - 1 / (2 * n) - 1 / (12 * n * n)
    return psi_n - (1.5 - np.euler_gamma) + math.log(2.0) + float(np.log(r, out=r).mean())


def conditional_entropy(y: np.ndarray, x_cond: np.ndarray,
                        spec: HistogramSpec = HistogramSpec()) -> float:
    """Expected conditional entropy H(Y|X) on an equal-width conditioning grid.

    ``x_cond`` is (n,) or (n, k) with k <= 4; beyond that the grid cannot be
    populated at sane sample sizes and the operation refuses (fix variables
    first to reduce the dimension); with k = 0 it is H(Y). Escalates to an
    error when more than half of the occupied conditioning cells hold a
    single sample.
    """
    y = np.asarray(y, dtype=float).ravel()
    x_cond = np.asarray(x_cond, dtype=float)
    if x_cond.ndim == 1:
        x_cond = x_cond[:, None]
    n, k = x_cond.shape
    if n != y.size:
        raise ConfigurationError("y and x_cond disagree on sample count")
    if n < 1:
        raise ConfigurationError("a histogram entropy needs at least one sample")
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

    Repetition r draws from its own stream, ``rng.spawn(repetitions)[r]``,
    so its values do not depend on the other repetitions. Per repetition:
    draw n inputs, evaluate, code the output and every input column once,
    then for each variable i compute the conditional entropy of the output
    given all other input columns from the shared codes.
    Reports means and stds over repetitions for H(Y), H_Ti, eta_Ti and
    kappa_Ti; kappa values that exceed 1 from estimator noise are clipped
    to 1 and flagged.

    The repetitions go through ``_map_in_order``, so the report is bitwise
    the same at any width.
    """
    if rng is None:
        raise ConfigurationError("an explicit rng stream is required")
    if repetitions < 1:
        raise ConfigurationError("repetitions must be >= 1")
    d = model.dim
    _check_grid(d - 1, spec)

    def repetition(stream: np.random.Generator) -> tuple[float, list[float]]:
        """H(Y) and the H_Ti of every input from one sample of ``stream``."""
        x = sample_inputs(model, n, stream)
        y = evaluate_batch(model, x)
        good = finite_within_rate(y, model.name)
        if not good.all():
            x, y = x[good], y[good]
        ycodes, width = _axis_codes(y, spec.bins_output)
        if ycodes is None:  # constant output
            return -math.inf, [-math.inf] * d
        cols = [_axis_codes(x[:, j], spec.bins_per_conditioning_dim)[0] for j in range(d)]
        # free the samples before the counting passes; the codes are all they need
        del x, y
        return (_conditional_from_codes(ycodes, width, [], spec),
                [_conditional_from_codes(ycodes, width, cols[:i] + cols[i + 1:], spec,
                                         f"variable {i + 1} of {model.name}")
                 for i in range(d)])

    # a repetition holds its float inputs and outputs, n (8d + 8) bytes, and
    # the int32 codes of every column, n 4(d + 1)
    results = _map_in_order(repetition, rng.spawn(repetitions), n * (12 * d + 12))
    h_y = np.array([h for h, _ in results])
    h_t = np.array([row for _, row in results])

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


def entropy_upper_bounds(measures: DerivMeasures, inputs: tuple[Distribution, ...],
                         h_y: float) -> EntropyBounds:
    """Derivative-based upper bounds for the entropy indices.

    The squared-DGSM bound is reported as its square root so it is directly
    comparable to kappa. A variable with l = -inf gets a zero kappa bound
    and one with nu = 0 a zero nu bound: it is certified negligible, also
    when the output is constant (h_y = -inf).
    """
    if measures.dim != len(inputs):
        raise ConfigurationError("derivative measures and input list disagree on dimension")
    h_x = np.array([dist.entropy() for dist in inputs])
    if not np.isfinite(h_x).all():
        raise ConfigurationError("input entropy must be finite for every variable")
    h_bound = h_x + measures.l
    # a constant output makes -inf - -inf and inf * 0 here, in the entries
    # that the zero derivatives replace
    with np.errstate(over="raise", invalid="ignore"):
        kappa_bound = np.where(np.isneginf(h_bound), 0.0, np.exp(h_bound - h_y))
        nu_kappa_bound = np.where(measures.nu == 0, 0.0,
                                  np.exp(h_x - h_y) * np.sqrt(measures.nu))
    return EntropyBounds(h_bound=h_bound, kappa_bound=kappa_bound,
                         nu_kappa_bound=nu_kappa_bound)


@dataclass(frozen=True)
class KLResult:
    value: np.ndarray          # per input
    floored_mass: np.ndarray   # output probability mass sitting on floored cells
    floor_warning: np.ndarray


def kl_total_index(model: Model, n: int, spec: HistogramSpec = HistogramSpec(),
                   rng: np.random.Generator | None = None) -> KLResult:
    """KL divergence, for each input x_i, between the output density with
    x_i frozen at its mean and the unconditional output density, on a shared
    equal-width grid.

    One input sample serves every input: g(x) is the unconditional baseline,
    and input i's conditional sample is x itself with column i set to its
    mean for the one evaluation and restored after it, so d inputs cost
    (d+1) * n model evaluations and no second (n, d) matrix. Baseline and
    conditional outputs are coded together by the coder every histogram
    estimator here uses, and each half is counted by the one sort-runs
    kernel. p0 is read on the cells p1 occupies, in ascending code order, so
    no array spans the output grid. The counts can differ from
    ``np.histogram`` only for a sample exactly on a bin edge, which numpy
    checks against its edges.

    Grid cells where the unconditional density is empty but the conditional
    one is not are floored at half a sample; a result with more than 5% of
    conditional mass on floored cells carries a warning flag. Needs
    n >= 100, the floor pick-and-freeze uses.
    """
    if n < 100:
        raise ConfigurationError(f"the KL index needs n >= 100, got {n}")
    if rng is None:
        raise ConfigurationError("an explicit rng stream is required")
    means = np.array([dist.mean() for dist in model.inputs])
    if not np.isfinite(means).all():
        raise ConfigurationError(f"input means must be finite, got {means}")

    x = sample_inputs(model, n, rng)
    y0 = clean_outputs(evaluate_batch(model, x), "kl baseline")
    value, floored_mass = np.zeros((2, model.dim))
    for i, mean_i in enumerate(means):
        with _restoring(x, (i,)):
            x[:, i] = mean_i
            y1 = clean_outputs(evaluate_batch(model, x), f"kl conditional x{i + 1}")
        codes, _ = _axis_codes(np.concatenate([y0, y1]), spec.bins_output)
        if codes is None:
            continue
        cells0, counts0 = _cell_counts(codes[:y0.size])
        cells1, counts1 = _cell_counts(codes[y0.size:])
        del codes
        # p0 on the cells p1 occupies, 0 where the baseline has no sample
        at = np.minimum(np.searchsorted(cells0, cells1), cells0.size - 1)
        p0 = np.where(cells0[at] == cells1, counts0[at] / y0.size, 0.0)
        p1 = counts1 / y1.size
        floored_mass[i] = p1[p0 == 0].sum()
        value[i] = (p1 * np.log(p1 / np.maximum(p0, 0.5 / y0.size))).sum()
        if floored_mass[i] > 0.05:
            log.warning("kl_total_index(%s, x%d): %.1f%% of conditional mass on floored "
                        "cells", model.name, i + 1, 100 * floored_mass[i])
    return KLResult(value=value, floored_mass=floored_mass,
                    floor_warning=floored_mass > 0.05)
