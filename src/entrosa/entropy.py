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

One kernel, ``_cell_counts``, counts every histogram, the KL index's
too, and is the one place that sorts cell codes: it sorts them in place
and returns the occupied cells and where each cell's run starts, read
off the run boundaries. Each caller releases the codes and then takes
the cells' counts, the run lengths; a conditioning cell's count is the
span of its runs, and H(Y)'s one conditioning cell spans them all. The
evaluation pass tallies the non-finite outputs and the outputs' minimum
and maximum, and the drawing pass the minimum and maximum of each input
column, so the coder reads the grid's span from them rather than scan the
sample again. No array spans the whole grid, so grids far larger than
memory are fine. Axis codes take 2 bytes per sample, or 4 on an axis of
more than 2^15 cells.
Joint codes take 4 bytes per sample, or 8 when the grid has at least 2^31
cells, plus run starts (int64) and run lengths (int32 below 2^31 samples,
int64 from there) over the occupied cells. A pass frees its sorted joint codes
before it writes the counts, writes its entropy terms in place and frees
each array at its last use, so at one occupied cell per sample it peaks
at about 16-20 bytes per sample (``tracemalloc``, 2^17 samples: 20.4 on
a 39^3 x 53 grid, 16.1 on a 63^2 x 63 one). The H(Y) pass and the d
leave-one-out passes of a repetition run through ``_map_in_order`` too;
each sort and sum is whole-array within its pass, and the sparse-grid
checks run after them in variable order, so the warnings and errors are
the same at any width.

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
from .model import (Model, _draw_inputs, _evaluate_into, _finite_part, _map_evaluations,
                    _map_in_order, _map_rows, _refuse_overflow, finite_within_rate,
                    sample_inputs)

__all__ = ["HistogramSpec", "EntropyReport", "EntropyBounds", "KLResult",
           "entropy_histogram", "entropy_knn", "conditional_entropy",
           "estimate_entropy_indices", "entropy_upper_bounds", "kl_total_index"]

log = logging.getLogger(__name__)

MAX_CONDITIONING_DIMS = 4
_SINGLETON_ERROR_SHARE = 0.5
_SPARSE_WARN_MEAN_COUNT = 10.0
# axis codes are int16 up to this many cells and int32 above, so no axis
# may have more cells than int32 can index
_INT16_BINS = 2 ** 15
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


def _axis_codes(values: np.ndarray, bins: int,
                span: tuple[float, float] | None = None) -> tuple[np.ndarray, float]:
    """Equal-width cell index per sample and the cell width; grid spans the
    sample min/max with no padding. ``span``, when the pass that wrote the
    values has tallied it, is that (min, max) and spares the two scans.
    Returns (None, 0) on a degenerate range and raises NumericalError on a
    range float64 cannot divide into cells."""
    values = np.asarray(values, dtype=float)
    lo, hi = map(float, (values.min(), values.max()) if span is None else span)
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
    codes = np.empty(values.size, dtype=np.int16 if bins <= _INT16_BINS else np.int32)

    def code(rows: slice) -> None:
        # a float temporary of one row block, scaled in place; scaled >= 0, so
        # clipping before the truncation gives the same codes as after, and
        # the top edge, scaled = bins, never meets a type that cannot hold it
        scaled = np.subtract(values[rows], lo)
        scaled *= factor
        np.minimum(scaled, bins - 1, out=scaled)
        np.copyto(codes[rows], scaled, casting="unsafe")

    _map_rows(code, values.size)
    return codes, width


def _run_starts(values: np.ndarray) -> np.ndarray:
    """The indices where the runs of equal values of a sorted array start."""
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return np.flatnonzero(first)


def _run_lengths(starts: np.ndarray, n: int) -> np.ndarray:
    """The lengths of the runs that start at ``starts`` in an array of n
    values, written into one array of ``_count_dtype(n)``."""
    counts = np.empty(starts.size, dtype=_count_dtype(n))
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = n - starts[-1]
    return counts


def _cell_counts(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the cell codes in place and return the occupied cells in
    ascending code order and the index in the sorted codes where each
    cell's run starts: the one sort-runs kernel. A caller takes the
    cells' counts, ``_run_lengths(starts, codes.size)``, once it has
    released the codes."""
    codes.sort()
    starts = _run_starts(codes)
    return codes[starts], starts


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


def _joint_dtype(n_live: int, spec: HistogramSpec) -> np.dtype:
    """The joint code type of a grid on ``n_live`` conditioning axes."""
    n_cells = spec.bins_per_conditioning_dim ** n_live * spec.bins_output
    return np.dtype(np.int32 if n_cells < 2 ** 31 else np.int64)


def _count_dtype(n: int) -> np.dtype:
    """The run-length type of a sample of n rows."""
    return np.dtype(np.int32 if n < 2 ** 31 else np.int64)


def _conditional_from_codes(ycodes: np.ndarray, width: float, cond_codes: list,
                            spec: HistogramSpec) -> tuple[float, int, float]:
    """Plug-in H(Y|X) from the output cell codes (cell width ``width``) and one
    code array per conditioning axis, None for a constant column, which
    carries no information; with none, this is H(Y). Returns it with the
    number of occupied conditioning cells and the share of them that hold a
    single sample, for ``_check_cells``; both are 0 with no conditioning
    axis, as no grid can then be sparse."""
    n = ycodes.size
    bins_out = spec.bins_output
    live = [codes for codes in cond_codes if codes is not None]
    # each axis with its cell count, the output last; the fold starts from
    # the first axis's codes, the integers a fold from zero gives
    axes = [(codes, spec.bins_per_conditioning_dim) for codes in live] + [(ycodes, bins_out)]
    joint = np.empty(n, dtype=_joint_dtype(len(live), spec))

    def fold(rows: slice) -> None:
        block = joint[rows]
        np.copyto(block, axes[0][0][rows])
        for codes, cells in axes[1:]:
            block *= cells
            block += codes[rows]

    _map_rows(fold, n)

    # each array is freed at its last use, and the sorted joint codes before
    # the counts are written, so a pass holds little more than its run starts
    # and counts at any one time
    # the occupied cells come in ascending code order, so the cells of one
    # conditioning cell are a contiguous block of runs, and its count k_i
    # spans them; with no axis, one conditioning cell holds all n samples
    conditioning, starts = _cell_counts(joint)
    del joint
    counts = _run_lengths(starts, n)
    conditioning //= bins_out
    blocks = _run_starts(conditioning)
    del conditioning
    k_i = _run_lengths(starts[blocks], n)
    del starts
    occupied, singleton_share = (k_i.size, float((k_i == 1).mean())) if live else (0, 0.0)
    k_i_full = np.repeat(k_i, _run_lengths(blocks, counts.size))
    del k_i, blocks
    r = np.divide(counts, k_i_full)
    del k_i_full
    # -sum (k_ij/N) ln(k_ij/k_i), each term written in place
    np.log(r, out=r)
    p = np.divide(counts, n)
    del counts
    p *= r
    h = -p.sum() + math.log(width)
    return float(h), occupied, singleton_share


def _check_cells(n: int, occupied: int, singleton_share: float, where: str = "") -> None:
    """Raise when more than half of the ``occupied`` conditioning cells of n
    samples hold a single sample, and warn when they hold fewer than
    ``_SPARSE_WARN_MEAN_COUNT`` on average. ``where``, such as
    ``variable 2 of ishigami``, prefixes the warning and the error."""
    if not occupied:
        return
    prefix = f"{where}: " if where else ""
    if singleton_share > _SINGLETON_ERROR_SHARE:
        raise SparseGridError(
            f"{prefix}{singleton_share:.0%} of {occupied} occupied conditioning cells "
            "hold a single sample; use fewer bins or more samples")
    mean_count = n / occupied
    if mean_count < _SPARSE_WARN_MEAN_COUNT:
        log.warning("%ssparse conditioning grid: %.1f samples per occupied cell "
                    "(%d cells)", prefix, mean_count, occupied)


def entropy_histogram(samples: np.ndarray, spec: HistogramSpec = HistogramSpec()) -> float:
    """Differential entropy (nats) of a 1-D sample: ``conditional_entropy``
    with no conditioning axis. A degenerate range (all samples equal) is
    reported as -inf."""
    samples = np.asarray(samples, dtype=float).ravel()
    return conditional_entropy(samples, np.empty((samples.size, 0)), spec)


def entropy_knn(samples: np.ndarray) -> float | np.ndarray:
    """Kozachenko-Leonenko entropy (nats), k = 3, of each row of samples along the last
    axis: psi(n) - psi(3) + ln 2 + mean ln r. Sorted, a point's 3rd-neighbour distance r is
    the least, over the 4 windows of 4 points that hold it, of its distance to the farther
    end; a row with r = 0 gives -inf. A 1-D sample is one row and gives a float; an (m, n)
    array gives m entropies, each bitwise equal to that of its row alone."""
    s = np.sort(np.atleast_1d(np.asarray(samples, dtype=float)), axis=-1)
    if (n := s.shape[-1]) < 4 or not np.isfinite(s[..., [0, -1]]).all():  # NaN sorts last
        raise ConfigurationError(f"a kNN entropy needs at least 4 samples, all finite, got {n}")
    r, (near, far) = np.full(s.shape, np.inf), np.empty((2, *s.shape[:-1], n - 3))
    for o in range(4):  # the point sits o places into the window s[..., j:j + 4]
        np.maximum(np.subtract(s[..., o:n - 3 + o], s[..., :-3], out=near),
                   np.subtract(s[..., 3:], s[..., o:n - 3 + o], out=far), out=near)
        np.minimum(r[..., o:n - 3 + o], near, out=r[..., o:n - 3 + o])
    atom = ~(r.min(axis=-1) >= np.finfo(float).tiny)  # an atom, or subnormal
    r[atom] = 1.0  # before the log, so that an atom row neither warns nor counts
    psi_n = math.log(n) - 1 / (2 * n) - 1 / (12 * n * n)
    h = np.where(atom, -np.inf,
                 psi_n - (1.5 - np.euler_gamma) + math.log(2.0) + np.log(r, out=r).mean(axis=-1))
    return float(h) if s.ndim == 1 else h


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
    h, occupied, singleton_share = _conditional_from_codes(ycodes, width, cond_codes, spec)
    _check_cells(n, occupied, singleton_share)
    return h


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
    draw n inputs, evaluate, code the output and then every input column
    once, on the spans the drawing and evaluating passes tallied, freeing
    the outputs once they are coded; then for each variable i compute the
    conditional entropy of the output given all other input columns from
    the shared codes.
    Reports means and stds over repetitions for H(Y), H_Ti, eta_Ti and
    kappa_Ti; kappa values that exceed 1 from estimator noise are clipped
    to 1 and flagged.

    The repetitions, and within a repetition that runs alone its d + 1
    counting passes, go through ``_map_in_order``; the sparse-grid warnings
    and errors follow in variable order, so the report and the log are the
    same at any width.
    """
    if rng is None:
        raise ConfigurationError("an explicit rng stream is required")
    if repetitions < 1:
        raise ConfigurationError("repetitions must be >= 1")
    d = model.dim
    _check_grid(d - 1, spec)

    def repetition(stream: np.random.Generator) -> tuple[float, list[float]]:
        """H(Y) and the H_Ti of every input from one sample of ``stream``."""
        # the coder's spans, output first, as the passes that write the
        # sample tally them; rows dropped for a non-finite output void them
        x, x_spans = _draw_inputs(model, n, stream, ranges=True)
        y = np.empty(n)
        n_bad, *y_span = _evaluate_into(model, x, y)
        spans = [y_span, *x_spans.T]
        good = finite_within_rate(y, model.name, n_bad)
        if good is not None:
            x, y, spans = x[good], y[good], [None] * (d + 1)
        ycodes, width = _axis_codes(y, spec.bins_output, spans[0])
        # free each sample once it is coded; the codes are all the passes need
        del y
        if ycodes is None:  # constant output
            return -math.inf, [-math.inf] * d
        cols = [_axis_codes(x[:, j], spec.bins_per_conditioning_dim, spans[j + 1])[0]
                for j in range(d)]
        del x
        # the H(Y) pass, then one pass per input i conditioning on every other
        # input; a pass declares its joint codes and 16 bytes a sample for its
        # run arrays, which at one cell per sample is about its measured peak:
        # 20.4 bytes a sample on flood's 39^3 x 53 grid, where it declares 20,
        # and 16.1 on nonlinear's 63^2 x 63 (tracemalloc, 2^17 samples)
        n_kept = ycodes.size
        passes = _map_in_order(
            lambda cond: _conditional_from_codes(ycodes, width, cond, spec),
            [[]] + [cols[:i] + cols[i + 1:] for i in range(d)],
            n_kept * (_joint_dtype(d - 1, spec).itemsize + 16))
        for i, (_, occupied, singleton_share) in enumerate(passes[1:]):
            _check_cells(n_kept, occupied, singleton_share, f"variable {i + 1} of {model.name}")
        return passes[0][0], [h for h, _, _ in passes[1:]]

    # a repetition holds its float inputs and outputs, n (8d + 8) bytes, and
    # its codes, n 4(d + 1) at most, though they take half that at 2^15 cells
    # an axis or fewer
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
    # a constant output makes -inf - -inf and inf * 0 here, and a wide input
    # law can overflow e^(H(X_i) - H(Y)), in the entries that the zero
    # derivatives replace; an overflow in any other entry names its input
    with np.errstate(over="ignore", invalid="ignore"):
        kappa_terms, nu_terms = h_bound - h_y, h_x - h_y
        kappa_bound = np.where(np.isneginf(h_bound), 0.0, np.exp(kappa_terms))
        nu_kappa_bound = np.where(measures.nu == 0, 0.0,
                                  np.exp(nu_terms) * np.sqrt(measures.nu))
    _refuse_overflow(kappa_bound, np.isfinite(kappa_terms), "kappa_bound")
    _refuse_overflow(nu_kappa_bound, np.isfinite(nu_terms) & np.isfinite(measures.nu),
                     "nu_kappa_bound")
    return EntropyBounds(h_bound=h_bound, kappa_bound=kappa_bound,
                         nu_kappa_bound=nu_kappa_bound)


@dataclass(frozen=True)
class KLResult:
    kl: np.ndarray             # per input
    floored_mass: np.ndarray   # output probability mass sitting on floored cells
    floor_warning: np.ndarray


def kl_total_index(model: Model, n: int, spec: HistogramSpec = HistogramSpec(),
                   rng: np.random.Generator | None = None) -> KLResult:
    """KL divergence, for each input x_i, between the output density with
    x_i frozen at its mean and the unconditional output density, on a shared
    equal-width grid.

    One input sample serves every input: g(x) is the unconditional baseline,
    and input i's conditional sample is x itself with column i set to its
    mean, so d inputs cost (d+1) * n model evaluations and no second (n, d)
    matrix. One pass of row blocks freezes a block's rows, evaluates them
    into a vector shared by the inputs and restores them; like the
    baseline's, the pass tallies the outputs' non-finite count, minimum and
    maximum, so the coder reads the grid's span from the two tallies, with
    no scan when every output is finite. Baseline and conditional outputs
    are coded on that one span by the coder every histogram estimator here
    uses, which codes each sample as it would the two joined. Each is
    sorted by the one sort-runs kernel, ``_cell_counts``, which returns its
    occupied cells and their run starts, and the codes are released before
    the run lengths, the cells' counts, are taken. p0 is read on the cells p1
    occupies, in ascending code order, so no array spans the output grid.
    The counts can differ from ``np.histogram`` only for a sample exactly on
    a bin edge, which numpy checks against its edges.

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
    # the baseline's finite outputs, and each conditional sample's
    y0 = np.empty(n)
    y0, lo0, hi0 = _finite_part(y0, "kl baseline", _evaluate_into(model, x, y0))
    n0 = y0.size
    y1 = np.empty(n)
    kl, floored_mass = np.zeros((2, model.dim))
    for i, mean_i in enumerate(means):
        def freeze(rows: slice, x_rows: np.ndarray, evaluate) -> None:
            x_rows[:, i] = mean_i
            y1[rows] = evaluate()

        kept, lo, hi = _finite_part(y1, f"kl conditional x{i + 1}",
                                    _map_evaluations(model, x, freeze, (i,)))
        n1 = kept.size
        # one grid spans both samples, so each codes as it would with the other
        span = np.minimum(lo0, lo), np.maximum(hi0, hi)
        codes0, _ = _axis_codes(y0, spec.bins_output, span)
        if codes0 is None:
            continue
        cells0, starts0 = _cell_counts(codes0)
        del codes0
        counts0 = _run_lengths(starts0, n0)
        cells1, starts1 = _cell_counts(_axis_codes(kept, spec.bins_output, span)[0])
        counts1 = _run_lengths(starts1, n1)
        # p0 on the cells p1 occupies, 0 where the baseline has no sample
        at = np.minimum(np.searchsorted(cells0, cells1), cells0.size - 1)
        p0 = np.where(cells0[at] == cells1, counts0[at] / n0, 0.0)
        p1 = counts1 / n1
        floored_mass[i] = p1[p0 == 0].sum()
        kl[i] = (p1 * np.log(p1 / np.maximum(p0, 0.5 / n0))).sum()
        if floored_mass[i] > 0.05:
            log.warning("kl_total_index(%s, x%d): %.1f%% of conditional mass on floored "
                        "cells", model.name, i + 1, 100 * floored_mass[i])
    return KLResult(kl=kl, floored_mass=floored_mass,
                    floor_warning=floored_mass > 0.05)
