"""Deterministic model abstraction: batch evaluation, forward differences,
and variable fixing.

A model is a pure map from a d-vector to a real, evaluated row-wise over
(n, d) input matrices. Evaluators must be vectorized: they receive row
blocks of at most ``_BLOCK_ROWS`` rows, possibly on several threads at once,
and return one output per row. Models are immutable and shareable.

Every elementwise pass over a sample runs on those row blocks through
``_map_rows``: evaluation, the laws' transforms, the histogram's axis and
joint codes, and the estimators' per-input passes, each one pass of its
row blocks: the finite differences (step, evaluate, difference, restore),
pick-and-freeze (swap in B's column, evaluate, difference, restore) and
the KL index (freeze at the mean, evaluate, restore). Every evaluator call
goes through ``_map_evaluations``, which checks the evaluator's contract.
Every concurrent map whose items share arrays goes through
``_map_in_order`` on threads, the histogram's counting passes included.
Whole runs that share none, a metastudy's functions, go through
``_map_runs`` on forked processes, so that they do not queue on one GIL.
Both run one task loop, ``_take``, under one rule: an item runs unless an
item before it has failed, and the error raised is the lowest failing
item's, from a forked worker too, with the worker's traceback as its cause.

On several threads, a sample's uniform columns are drawn in the same row
blocks as their transforms: each block fills from a copy of the stream
advanced to its first draw, so the draws are those of one serial fill.
Three passes take exact tallies, per block: the evaluation pass counts
the non-finite outputs and takes their minimum and maximum, the drawing
pass takes each input column's minimum and maximum, and the derivative
measures' second pass counts the non-finite and the floored magnitudes.
Counts add and extremes combine exactly, so they replace whole-array
scans. Every other reduction (mean, variance, sort, sum) is whole-array
within its task, so no result depends on the number of threads or on the
blocks.
"""

from __future__ import annotations

import logging
import mmap
import os
import pickle
import signal
import sys
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor, wait
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
# rows per evaluator call and per elementwise pass over a sample, at most
_BLOCK_ROWS = 2 ** 16
# every block boundary is a multiple of this many rows, where a BLAS
# product of a block gives the same bits at any number of blocks
_BLOCK_ALIGN = 1024
# the running items of a map that declares their bytes hold at most this many
_POOL_BYTES = 64 * 2 ** 20


@dataclass(frozen=True)
class Model:
    """Input laws and a vectorized evaluator from (n, d) inputs to (n,)
    outputs. The evaluator must not modify its input, and it may be called
    again on the same array with one column changed: the estimators step,
    swap or freeze one column of their sample in place, a row block at a
    time, rather than copy the sample. It is called on row blocks, possibly
    on several threads at once, so it must be row-wise and thread-safe. It
    may return a view of its input: each pass uses a block's output before
    it restores the block, and ``evaluate_batch`` copies it."""

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


def _map_width(n_items: int, item_bytes: int = 0) -> int:
    """The width of a map of ``n_items`` items that hold ``item_bytes``
    bytes each, the one sizing rule of every map: 1 inside a task of a map,
    else the least of the number of items, the usable CPUs and, for items
    that declare their bytes, how many fit in ``_POOL_BYTES`` (or 1)."""
    if getattr(_in_task, "marked", False):
        return 1
    width = min(n_items, _usable_cpus())
    if item_bytes:
        width = min(width, max(1, _POOL_BYTES // item_bytes))
    return width


def _take(fn: Callable, items: list, indices: Iterable[int], failed) -> list[tuple]:
    """The one task loop of both runners: on this thread, marked as a task,
    run ``fn`` on the item of each index that ``indices`` gives, in
    increasing order, unless an item before it has failed, and return the
    outcomes ``(index, ok, value)``, the value being the result or the
    exception. ``failed[0]``, shared by the loops of a map, is 0 or 1 + the
    index of the lowest failed item that they have seen. Its update is
    check-then-set, unlocked: two failures at once may leave the higher
    index, and items between the two then run, but no item before the
    lowest failing one is ever skipped, so the error raised stays its."""
    outcomes = []
    _in_task.marked = True
    try:
        for i in indices:
            if 0 < failed[0] <= i:
                break
            try:
                outcomes.append((i, True, fn(items[i])))
            except BaseException as exc:  # raised by the caller, in item order
                if not 0 < failed[0] <= i:
                    failed[0] = i + 1
                outcomes.append((i, False, exc))
    finally:
        _in_task.marked = False
    return outcomes


def _in_item_order(outcomes: list[tuple]) -> list:
    """The values of ``_take``'s outcomes in item order, or the exception of
    the lowest failing item raised."""
    outcomes.sort()  # by index, which no two outcomes share
    for _, ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, _, value in outcomes]


def _map_in_order(fn: Callable, items: Iterable, item_bytes: int = 0) -> list:
    """``[fn(item) for item in items]`` on ``_map_width`` threads, the
    task runner of every map whose items share arrays: the calling thread
    and ``width - 1`` threads of one process-wide pool run ``_take`` on one
    iterator of the indices, so they take the items in order, one at a time.

    Results come back in item order, so they are the same at any width. An
    item runs unless an item before it has failed, and the error raised,
    once every running item has ended, is the lowest failing item's. At
    width 1, and inside a task of a map, this is the plain loop: maps nest
    without nesting pools, as an inner map runs on the thread of its task."""
    items = list(items)
    width = _map_width(len(items), item_bytes)
    if width <= 1:
        return [fn(item) for item in items]
    # every loop's arguments: one iterator of the indices, whose next() is atomic
    # under the GIL, and one failure mark
    loop = (fn, items, iter(range(len(items))), [0])
    helpers = [_helpers(width - 1).submit(_take, *loop) for _ in range(width - 1)]
    try:
        outcomes = _take(*loop)
    finally:
        # the caller alone can run every item: a helper not yet started never will
        helpers = [helper for helper in helpers if not helper.cancel()]
        wait(helpers)
    return _in_item_order(outcomes + [outcome for h in helpers for outcome in h.result()])


# fork is safe here with numpy and scipy loaded; elsewhere whole runs take threads
_FORKS = sys.platform.startswith("linux")


class _RemoteTraceback(Exception):
    """The formatted traceback of a forked worker's failure, set as its cause."""


def _map_runs(fn: Callable, items: Iterable) -> list:
    """``_map_in_order`` of items that are whole runs sharing no arrays, on
    ``_map_width`` processes: the caller runs ``_take`` on items 0, w, 2w,
    ... and each of ``w - 1`` children made by ``os.fork`` on its own share
    of the rest, round-robin, so runs that hold the GIL most of their time
    do not queue on one. A child's maps run inline, and it sends back its
    outcomes, pickled over its own pipe, when its share ends.

    As in ``_map_in_order``, results come back in item order, an item runs
    unless an item before it has failed, and the error raised is the lowest
    failing item's; ``failed`` lives in 8 shared bytes. A child's exception
    comes with the child's formatted traceback as its ``__cause__``. The
    helper threads are shut down first, so each fork copies a process of one
    thread. A child that ends without sending its outcomes raises
    ``ChildProcessError``, and any exception in the caller kills and reaps
    the children. At width 1, inside a task, off Linux, or beside other
    running threads, this is ``_map_in_order``."""
    global _pool
    items = list(items)
    width = _map_width(len(items))
    if width > 1 and _FORKS:
        with _pool_lock:
            if _pool is not None and _pool[0] == os.getpid():
                _pool[2].shutdown()
            _pool = None
    if width <= 1 or not _FORKS or threading.active_count() > 1:
        return _map_in_order(fn, items)
    failed = memoryview(mmap.mmap(-1, 8)).cast("q")  # shared with the children
    children = {}  # the children not yet reaped: pid -> the read end of its pipe
    try:
        for first in range(1, width):
            read, write = os.pipe()
            pid = os.fork()
            if not pid:  # a child never returns into the caller's frames
                try:
                    outcomes = _take(fn, items, range(first, len(items), width), failed)
                    sent = [(i, ok, value if ok else (value, traceback.format_exception(value)))
                            for i, ok, value in outcomes]
                    with open(write, "wb") as pipe:
                        pickle.dump(sent, pipe, pickle.HIGHEST_PROTOCOL)
                    os._exit(0)
                except BaseException:
                    traceback.print_exc()
                finally:
                    os._exit(1)
            os.close(write)
            children[pid] = read
        outcomes = _take(fn, items, range(0, len(items), width), failed)
        for pid, read in list(children.items()):
            with open(read, "rb", closefd=False) as pipe:
                sent = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if code:
                raise ChildProcessError(f"a worker process ended with exit code {code} "
                                        "before it sent its results")
            for i, ok, value in pickle.loads(sent):
                if not ok:  # (the exception, the lines of the child's traceback)
                    value, lines = value
                    value.__cause__ = _RemoteTraceback("".join(lines))
                outcomes.append((i, ok, value))
    finally:
        for pid, read in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
    return _in_item_order(outcomes)


def _row_blocks(n: int) -> list[slice]:
    """The row blocks of n >= 1 rows, the one block rule of every pass:
    ceil(n / _BLOCK_ROWS) blocks rounded up to a multiple of the map's width
    w (1 inside a task of a map or on one CPU), as even as whole units of
    ``_BLOCK_ALIGN`` rows allow, so that no thread idles on a short tail;
    none is longer than ``_BLOCK_ROWS`` rows."""
    count = -(-n // _BLOCK_ROWS)
    width = _map_width(count)
    count = -(-count // width) * width
    units = -(-n // _BLOCK_ALIGN)
    bounds = [min(k * units // count * _BLOCK_ALIGN, n) for k in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _map_rows(fn: Callable[[slice], object], n: int) -> list:
    """``_map_in_order`` of ``fn`` over the ``_row_blocks`` of n rows."""
    return _map_in_order(fn, _row_blocks(n))


def _skip(bitgen: np.random.BitGenerator, draws: int) -> None:
    """Move ``bitgen`` past ``draws`` 64-bit draws, where a serial fill of
    that many uniforms leaves it, with the 32-bit buffer that ``advance``
    clears put back."""
    buffered = bitgen.state
    bitgen.advance(draws)
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = buffered["has_uint32"], buffered["uinteger"]
    bitgen.state = state


def sample_inputs(model: Model, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (n, d) matrix of independent inputs in Fortran order, each
    law straight into its own contiguous column, bitwise as each law's
    ``sample`` draws it in column order, and leaving ``rng`` where those
    draws leave it; see ``_draw_inputs``."""
    return _draw_inputs(model, n, rng)[0]


def _draw_inputs(model: Model, n: int, rng: np.random.Generator,
                 ranges: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """``sample_inputs``, and with ``ranges`` each column's minimum and
    maximum, a (2, d) array tallied by the blocks that transform it.

    A law's fill and its transform are split as follows. In one pass of
    ``_row_blocks``, every block transforms its rows of each column. On a
    map of width above 1 and a PCG64 or PCG64DXSM stream, a column
    that fills with uniforms (the base ``Distribution._fill``) is filled in
    the same pass: each block draws its rows from a copy of the stream
    advanced to the column's first draw plus the block's first row. Other
    columns, and every column on a map of width 1, are filled by the caller
    in one stream call each, before the pass."""
    if n < 1:
        raise ConfigurationError(f"sample size must be >= 1, got {n}")
    try:
        x = np.empty((n, model.dim), order="F")
    except (MemoryError, ValueError) as exc:
        raise ConfigurationError(f"cannot allocate {n} x {model.dim} inputs: {exc}") from None
    blocks = _row_blocks(n)
    bitgen = rng.bit_generator
    # streams whose ``advance`` steps one 64-bit draw, as ``random`` draws;
    # named here, as numpy.random is imported with the first stream
    split = (isinstance(bitgen, (np.random.PCG64, np.random.PCG64DXSM))
             and _map_width(len(blocks)) > 1)
    # a split column's fill: the stream state at its first draw
    fills = {}
    for j, dist in enumerate(model.inputs):
        if split and type(dist)._fill is Distribution._fill:
            fills[j] = bitgen.state
            _skip(bitgen, n)
        else:
            dist._fill(rng, x[:, j])

    def draw(rows: slice) -> np.ndarray | None:
        if fills:
            stream = type(bitgen)(0)
            uniforms = np.random.Generator(stream)
            for j, state in fills.items():
                stream.state = state
                stream.advance(rows.start)
                uniforms.random(out=x[rows, j])
        for j, dist in enumerate(model.inputs):
            dist._transform(x[rows, j])
        return np.stack([x[rows].min(axis=0), x[rows].max(axis=0)]) if ranges else None

    tallies = _map_in_order(draw, blocks)
    if not ranges:
        return x, None
    tallies = np.stack(tallies)
    return x, np.stack([np.min(tallies[:, 0], axis=0), np.max(tallies[:, 1], axis=0)])


def _map_evaluations(model: Model, x: np.ndarray,
                     block: Callable[[slice, np.ndarray, Callable[[], np.ndarray]], None],
                     columns: Iterable[int] = ()) -> tuple[int, float, float]:
    """``_map_rows`` of ``block(rows, x_rows, evaluate)`` over the rows of
    ``x``, with ``x_rows = x[rows]``: the one pass that calls the evaluator,
    the one check of its contract and the one tally of its outputs.
    ``evaluate()`` returns the evaluator's output on ``x_rows`` as floats
    and raises ``NumericalError`` unless it holds one value per row. The
    pass returns the outputs' non-finite count, minimum and maximum, as a
    whole-array scan gives them: counts add, and ``np.min`` and ``np.max``
    combine the blocks' extremes, propagating a NaN. It raises
    ``ConfigurationError`` on a sample of no rows and ``NumericalError``
    when no output is finite.

    The block may change the ``columns`` of ``x_rows`` in place before it
    evaluates; they are restored, bitwise, when it ends or raises. The
    output may be a view of ``x_rows``, so the block uses it before it
    returns.
    """
    if not x.shape[0]:
        raise ConfigurationError(f"model {model.name!r} was given no rows to evaluate")
    columns = tuple(columns)

    def run(rows: slice) -> tuple[int, float, float]:
        x_rows = x[rows]
        tally = None

        def evaluate() -> np.ndarray:
            nonlocal tally
            out = np.asarray(model.evaluator(x_rows), dtype=float)
            if out.shape != (x_rows.shape[0],):
                raise NumericalError(
                    f"evaluator of {model.name!r} returned shape {out.shape}, "
                    f"expected {(x_rows.shape[0],)}")
            tally = _non_finite(out), out.min(), out.max()
            return out

        saved = [x_rows[:, i].copy() for i in columns]
        try:
            block(rows, x_rows, evaluate)
        finally:
            for i, column in zip(columns, saved):
                x_rows[:, i] = column
        return tally

    bad, lo, hi = zip(*_map_rows(run, x.shape[0]))
    n_bad = sum(bad)
    if n_bad == x.shape[0]:
        raise NumericalError(f"all {x.shape[0]} outputs of {model.name!r} are non-finite")
    return n_bad, np.min(lo), np.max(hi)


def _non_finite(values: np.ndarray) -> int:
    """The number of non-finite entries of ``values``."""
    return values.size - int(np.count_nonzero(np.isfinite(values)))


def evaluate_batch(model: Model, inputs: np.ndarray) -> np.ndarray:
    """Row-wise, order-preserving evaluation of the model, in row blocks
    through ``_map_evaluations``; each block's output is copied into the
    result.

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
    _evaluate_into(model, inputs, y)
    return y


def _evaluate_into(model: Model, x: np.ndarray, y: np.ndarray) -> tuple[int, float, float]:
    """``evaluate_batch`` of the sample ``x`` into ``y``, returning the
    pass's tally of y: its non-finite count, minimum and maximum."""
    def copy(rows: slice, x_rows: np.ndarray, evaluate: Callable[[], np.ndarray]) -> None:
        y[rows] = evaluate()

    return _map_evaluations(model, x, copy)


def finite_within_rate(values: np.ndarray, where: str,
                       n_bad: int | None = None) -> np.ndarray | None:
    """The finite mask of ``values``, or None when every value is finite:
    the one non-finite policy of every estimator. Non-finite values are
    logged and may be excluded, and a rate above ``MAX_BAD_FRACTION`` raises
    ``NumericalError``. ``n_bad``, the count of non-finite values when a
    pass has tallied it, spares the scan; the mask is built only when some
    value is not finite."""
    if n_bad is None:
        n_bad = _non_finite(values)
    if not n_bad:
        return None
    rate = n_bad / values.size
    log.warning("%s: excluded %d non-finite values (rate %.4f%%)", where, n_bad, 100 * rate)
    if rate > MAX_BAD_FRACTION:
        raise NumericalError(
            f"{where}: non-finite value rate {rate:.2%} exceeds {MAX_BAD_FRACTION:.2%}"
        )
    return np.isfinite(values)


def _finite_part(values: np.ndarray, where: str,
                 tally: tuple[int, float, float]) -> tuple[np.ndarray, float, float]:
    """``values`` under ``finite_within_rate``, given the tally of the pass
    that wrote them (non-finite count, minimum, maximum): the values kept,
    with their minimum and maximum, taken afresh when values were dropped
    and read off the tally when none were."""
    n_bad, lo, hi = tally
    good = finite_within_rate(values, where, n_bad)
    if good is None:
        return values, lo, hi
    kept = values[good]
    return kept, kept.min(), kept.max()


def _refuse_overflow(bound: np.ndarray, terms_finite: np.ndarray, name: str) -> np.ndarray:
    """``bound`` under the one overflow rule of the bounds: an entry that is
    not finite though its terms are overflowed float64, and raises
    ``NumericalError`` naming its input."""
    over = np.flatnonzero(terms_finite & ~np.isfinite(bound))
    if over.size:
        raise NumericalError(f"{name} of input {over[0] + 1} overflows float64")
    return bound


def _check_fd_step(model: Model, group: tuple[int, ...], h: float) -> list[float]:
    """The upper support ends of ``group``'s members, once the step ``h`` is
    known to be positive and no wider than half of each member's support;
    raises ``ConfigurationError`` otherwise. It reads only the supports, so a
    caller can refuse a step before it draws or evaluates anything."""
    if not h > 0:
        raise ConfigurationError(f"finite-difference step must be positive, got {h}")
    supports = [model.inputs[i].support() for i in group]
    for i, (lower, upper) in zip(group, supports):
        if h > (upper - lower) / 2:
            raise ConfigurationError(
                f"finite-difference step h = {h} is wider than half the support "
                f"[{lower}, {upper}] of x{i + 1}")
    return [upper for _, upper in supports]


def fd_directional_batch(model: Model, x: np.ndarray, y0: np.ndarray,
                         group: tuple[int, ...], h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Forward difference along the common perturbation of a variable group.

    ``y0`` is ``g(x)``. Every coordinate in ``group`` moves by the same
    signed step s*h, with s = -1 on rows where a group member would leave its
    support and +1 elsewhere; returns (g(x + s*h*1_group) - y0) / (s*h) per
    row, in an n-vector it allocates. A one-element group gives a partial
    derivative. One evaluation per row; rows with a non-finite evaluation
    get a non-finite result. A step wider than half a member's support
    raises ``ConfigurationError``: some rows could step out of it either way.

    One pass of row blocks: each block takes its step signs, steps its
    group columns in ``x`` in place, evaluates, writes its differences and
    restores the columns, bitwise, before the call returns or raises. So
    ``x`` must be writeable and must not be read concurrently during the
    call.
    """
    uppers = _check_fd_step(model, group, h)
    out = np.empty(x.shape[0])

    def step(rows: slice, x_rows: np.ndarray, evaluate: Callable[[], np.ndarray]) -> None:
        sign = np.ones(x_rows.shape[0])
        for i, upper in zip(group, uppers):
            sign = np.where(x_rows[:, i] + h <= upper, sign, -1.0)
        sign *= h
        for i in group:
            x_rows[:, i] += sign
        np.divide(evaluate() - y0[rows], sign, out=out[rows])

    _map_evaluations(model, x, step, group)
    return out


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
        if not np.isfinite(v):
            raise ConfigurationError(f"fixed x{i + 1} = {v} is not finite")
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
