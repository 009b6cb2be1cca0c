"""Deterministic model abstraction: batch evaluation, forward differences,
and variable fixing.

A model is a pure map from a d-vector to a real, evaluated row-wise over
(n, d) input matrices. Evaluators must be vectorized: they receive row
blocks of at most ``_BLOCK_ROWS`` rows, possibly on several threads at once,
and return one output per row. Models are immutable and shareable.

Every elementwise pass over a sample (evaluation, the laws' transforms, the
histogram's axis and joint codes) runs on those row blocks through
``_map_rows``, and every concurrent map of the package goes through
``_map_in_order``. Stream fills, sorts and reductions stay serial and
whole-array, so no result depends on the number of threads.
"""

from __future__ import annotations

import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .distributions import Distribution
from .errors import ConfigurationError, NumericalError

__all__ = ["Model", "evaluate_batch", "fd_directional_batch", "fix_variables",
           "sample_inputs", "DEFAULT_FD_STEP", "MAX_BAD_FRACTION"]

log = logging.getLogger(__name__)

DEFAULT_FD_STEP = 1e-5
# estimator runs abort above this rate of non-finite model outputs
MAX_BAD_FRACTION = 1e-3
# rows per evaluator call and per elementwise pass over a sample
_BLOCK_ROWS = 2 ** 16
# the running items of a map that declares their bytes hold at most this many
_POOL_BYTES = 64 * 2 ** 20


@dataclass(frozen=True)
class Model:
    """Input laws and a vectorized evaluator from (n, d) inputs to (n,)
    outputs. The evaluator must not modify its input, and it may be called
    again on the same array with one column changed: the estimators step,
    swap or freeze one column of their sample in place rather than copy the
    sample. It is called on row blocks, possibly on several threads at once,
    so it must be row-wise and thread-safe. It may return a view of its
    input, which ``evaluate_batch`` copies."""

    name: str
    inputs: tuple[Distribution, ...]
    evaluator: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __post_init__(self):
        if len(self.inputs) < 1:
            raise ConfigurationError("model needs at least one input distribution")

    @property
    def dim(self) -> int:
        return len(self.inputs)


def _usable_cpus() -> int:
    """The CPUs this process may run on, which bound the width of every map."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# set on a thread while it runs a task of a map, so that a map called there runs inline
_in_task = threading.local()
_pool_lock = threading.Lock()
_pool: tuple[int, int, ThreadPoolExecutor] | None = None  # (pid, threads, executor)


def _helpers(threads: int) -> ThreadPoolExecutor:
    """The process-wide pool of helper threads, built on first use and built
    again with more threads, or in a forked child, whose copy has none."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid() or _pool[1] < threads:
            _pool = (os.getpid(), threads, ThreadPoolExecutor(threads))
        return _pool[2]


def _map_in_order(fn: Callable, items: Iterable, item_bytes: int = 0) -> list:
    """``[fn(item) for item in items]`` on ``width`` threads, the one task
    runner of the package: the calling thread and ``width - 1`` threads of
    one process-wide pool take the items in order, one at a time. The width
    is the least of the number of items, the usable CPUs and, for items that
    hold ``item_bytes`` bytes each, how many fit in ``_POOL_BYTES`` (or 1).

    Results come back in item order, so they are the same at any width, and
    the first failure in item order is the one raised, once every running
    item has ended; the items not yet started when a failure is seen never
    run. At width 1, and inside a task of a map, this is the plain loop:
    maps nest without nesting pools, as an inner map runs on the thread of
    its task."""
    if getattr(_in_task, "marked", False):
        return [fn(item) for item in items]
    items = list(items)
    width = min(len(items), _usable_cpus())
    if item_bytes:
        width = min(width, max(1, _POOL_BYTES // item_bytes))
    if width <= 1:
        return [fn(item) for item in items]
    results = [None] * len(items)
    failures = {}
    indices = iter(range(len(items)))  # next() on it is atomic under the GIL
    stop = False

    def take_items() -> None:
        _in_task.marked = True
        try:
            while not (stop or failures) and (i := next(indices, None)) is not None:
                try:
                    results[i] = fn(items[i])
                except BaseException as exc:  # raised by the caller, in item order
                    failures[i] = exc
        finally:
            _in_task.marked = False

    helpers = [_helpers(width - 1).submit(take_items) for _ in range(width - 1)]
    try:
        take_items()
    finally:
        # the caller alone can run every item: a helper not yet started never will
        stop = True
        wait([helper for helper in helpers if not helper.cancel()])
    if failures:
        raise failures[min(failures)]
    return results


def _map_rows(fn: Callable[[slice], object], n: int) -> list:
    """``_map_in_order`` of ``fn`` over the row blocks of n rows, slices of
    at most ``_BLOCK_ROWS`` rows."""
    blocks = [slice(start, min(start + _BLOCK_ROWS, n)) for start in range(0, n, _BLOCK_ROWS)]
    return _map_in_order(fn, blocks)


@contextmanager
def _restoring(x: np.ndarray, columns: Iterable[int]):
    """Save ``x``'s ``columns`` and write them back, bitwise, when the block
    ends or raises, so the block may change them in place."""
    saved = [(i, x[:, i].copy()) for i in columns]
    try:
        yield
    finally:
        for i, column in saved:
            x[:, i] = column


def sample_inputs(model: Model, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (n, d) matrix of independent inputs in Fortran order, each
    law straight into its own contiguous column: the stream fills the
    column in one call, and the law's transform maps it in row blocks."""
    if n < 1:
        raise ConfigurationError(f"sample size must be >= 1, got {n}")
    try:
        x = np.empty((n, model.dim), order="F")
    except (MemoryError, ValueError) as exc:
        raise ConfigurationError(f"cannot allocate {n} x {model.dim} inputs: {exc}") from None
    for j, dist in enumerate(model.inputs):
        dist._fill(rng, x[:, j])

    def transform(rows: slice) -> None:
        for j, dist in enumerate(model.inputs):
            dist._transform(x[rows, j])

    _map_rows(transform, n)
    return x


def evaluate_batch(model: Model, inputs: np.ndarray) -> np.ndarray:
    """Row-wise, order-preserving evaluation of the model, in row blocks
    through ``_map_rows``; each block's output is copied into the result.

    The output never shares memory with ``inputs``, so the caller may change
    ``inputs`` afterwards. Non-finite outputs are preserved for the caller's
    ``finite_within_rate`` check; the batch as a whole fails only when every
    row is non-finite.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.shape[1] != model.dim:
        raise ConfigurationError(
            f"input matrix has {inputs.shape[1]} columns, model {model.name!r} has dim {model.dim}"
        )
    y = np.empty(inputs.shape[0])

    def evaluate(rows: slice) -> None:
        out = np.asarray(model.evaluator(inputs[rows]), dtype=float)
        if out.shape != y[rows].shape:
            raise NumericalError(
                f"evaluator of {model.name!r} returned shape {out.shape}, "
                f"expected {y[rows].shape}")
        y[rows] = out

    _map_rows(evaluate, y.size)
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

    The step is added to ``x``'s group columns in place, so ``x`` must be
    writeable and must not be read concurrently during the call; the
    columns are restored, bitwise, before the call returns or raises.
    """
    if not h > 0:
        raise ConfigurationError(f"finite-difference step must be positive, got {h}")
    sign = np.ones(x.shape[0])
    for i in group:
        _, upper = model.inputs[i].support()
        sign = np.where(x[:, i] + h <= upper, sign, -1.0)
    step = sign * h
    with _restoring(x, group):
        for i in group:
            x[:, i] += step
        return (evaluate_batch(model, x) - y0) / step


def fix_variables(model: Model, fixed: dict[int, float]) -> Model:
    """Reduce the model by pinning coordinates (0-based keys) to constants.

    The reduced model has dimension ``d - len(fixed)`` and drops the fixed
    coordinates' distributions. Its evaluator calls the original one on a
    Fortran-order copy of the row block it is given, with the fixed columns
    written in.
    """
    if not fixed:
        return model
    d = model.dim
    for i, v in fixed.items():
        if not 0 <= i < d:
            raise ConfigurationError(f"cannot fix x{i + 1}: the model has inputs x1..x{d}")
        lo, hi = model.inputs[i].support()
        if not lo <= v <= hi:
            raise ConfigurationError(f"fixed x{i + 1} = {v} is outside its support [{lo}, {hi}]")
    if len(fixed) >= d:
        raise ConfigurationError("cannot fix every variable of the model")

    free = [i for i in range(d) if i not in fixed]
    pinned, values = map(list, zip(*sorted(fixed.items())))
    base_eval = model.evaluator

    def reduced_eval(xr: np.ndarray) -> np.ndarray:
        # contiguous columns, the layout sample_inputs gives an unreduced model
        x = np.empty((len(xr), d), order="F")
        x[:, pinned] = values
        x[:, free] = xr
        return base_eval(x)

    label = ",".join(f"x{i + 1}={v:g}" for i, v in zip(pinned, values))
    return Model(
        name=f"{model.name}[{label}]",
        inputs=tuple(model.inputs[i] for i in free),
        evaluator=reduced_eval,
    )
