"""Per-layer timing from outside the program.

``Tracer.install`` replaces every module attribute of the ``entrosa``
package that refers to a public function with a timing wrapper, plus the
two public methods the layer table needs (``Distribution.sample`` and
``SensitivityReport.write``). One function gets one wrapper, wherever it is
referenced: ``entrosa.entropy.sample_inputs`` and
``entrosa.model.sample_inputs`` both record ``model.sample_inputs``.

A span is ``[name, start, end, parent, task, counts]``, kept in memory and
written out by the caller when the run ends; ``counts`` is None for a call
that raised. A new task starts at each
``run_from_config`` call (one model run) and each ``draw_metafunction`` call
(one metastudy function); every span carries the task current when it
opened. Self time is a span's duration minus the durations of its direct
children (calls nest, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
import types
from collections import defaultdict

TASK_ENTRIES = ("studies.run_from_config", "benchmarks.draw_metafunction")
MODULES = ("distributions", "model", "entropy", "deriv", "variance",
           "benchmarks", "studies", "report")


def _grid_cells(args) -> int:
    """Cells of the dense grid a conditional entropy spans: bins_c^k x bins_out."""
    x = args["x_cond"]
    k = x.shape[1] if getattr(x, "ndim", 1) == 2 else 1
    spec = args["spec"]
    return spec.bins_per_conditioning_dim ** k * spec.bins_output


# counts recorded at a boundary: span name -> f(bound arguments, result)
COUNTERS = {
    "distributions.Distribution.sample": lambda a, r: {"rows": a["n"]},
    "model.evaluate_batch": lambda a, r: {"rows": r.size},
    "entropy.conditional_entropy": lambda a, r: {
        "rows": len(a["y"]), "bytes": a["y"].nbytes + a["x_cond"].nbytes,
        "cells": _grid_cells(a)},
    "entropy.entropy_histogram": lambda a, r: {
        "rows": a["samples"].size, "bytes": a["samples"].nbytes},
    "entropy.estimate_entropy_indices": lambda a, r: {"tasks": a["repetitions"]},
    "studies.metastudy": lambda a, r: {
        "attempted": r["summary"]["n_functions"], "included": r["summary"]["included"]},
    "report.SensitivityReport.write": lambda a, r: {"bytes": os.path.getsize(a["path"])},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._task = 0

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in TASK_ENTRIES:
                self._task += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._task, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = counter(bound.arguments, result)
            return result

        return wrapper

    def install(self):
        import entrosa
        modules = [entrosa] + [importlib.import_module(f"entrosa.{m.name}")
                               for m in pkgutil.iter_modules(entrosa.__path__)]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("entrosa")):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.rpartition(".")[2]
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__qualname__}")
                setattr(module, attr, wrappers[id(obj)])
        from entrosa.distributions import Distribution
        from entrosa.report import SensitivityReport
        for cls, method in ((Distribution, "sample"), (SensitivityReport, "write")):
            fn = vars(cls)[method]
            layer = fn.__module__.rpartition(".")[2]
            setattr(cls, method, self._wrap(fn, f"{layer}.{fn.__qualname__}"))


# every per-layer metric and its unit; trace.overhead_s is filled in by the
# launcher (traced wall_s minus untraced wall_s)
LAYER_UNITS = {
    "distributions.sample_s": "s", "distributions.rows": "rows",
    "model.sample_inputs_self_s": "s", "model.evaluate_s": "s",
    "model.evaluate_rows": "rows", "model.fd_self_s": "s",
    "entropy.conditional_s": "s", "entropy.conditional_calls": "calls",
    "entropy.rows_counted": "rows", "entropy.bytes_in_computed": "bytes",
    "entropy.histogram_s": "s", "entropy.indices_self_s": "s",
    "entropy.dense_grid_cells_max": "cells", "entropy.kl_self_s": "s",
    "studies.tasks": "tasks", "studies.included_ratio": "share",
    "report.write_s": "s", "report.bytes_written": "bytes",
    **{f"{module}.self_s": "s" for module in MODULES},
    "trace.spans": "spans", "trace.overhead_s": "s",
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics of one traced workload body."""
    dur = [end - start for _, start, end, *_ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]
    total, self_, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    counts = defaultdict(lambda: defaultdict(float))
    cells_max = 0
    for i, (name, *_, extra) in enumerate(spans):
        total[name] += dur[i]
        self_[name] += dur[i] - child[i]
        calls[name] += 1
        for key, value in (extra or {}).items():
            counts[name][key] += value
        if name == "entropy.conditional_entropy" and extra:   # None if it raised
            cells_max = max(cells_max, extra["cells"])
    module_self = defaultdict(float)
    for name, value in self_.items():
        module_self[name.partition(".")[0]] += value

    cond, hist = "entropy.conditional_entropy", "entropy.entropy_histogram"
    meta = counts["studies.metastudy"]
    m = {
        "distributions.sample_s": total["distributions.Distribution.sample"],
        "distributions.rows": counts["distributions.Distribution.sample"]["rows"],
        "model.sample_inputs_self_s": self_["model.sample_inputs"],
        "model.evaluate_s": total["model.evaluate_batch"],
        "model.evaluate_rows": counts["model.evaluate_batch"]["rows"],
        "model.fd_self_s": self_["model.fd_gradient_batch"]
        + self_["model.fd_directional_batch"],
        "entropy.conditional_s": total[cond],
        "entropy.conditional_calls": calls[cond],
        "entropy.rows_counted": counts[cond]["rows"] + counts[hist]["rows"],
        "entropy.bytes_in_computed": counts[cond]["bytes"] + counts[hist]["bytes"],
        "entropy.histogram_s": total[hist],
        "entropy.indices_self_s": self_["entropy.estimate_entropy_indices"],
        "entropy.dense_grid_cells_max": cells_max,
        "entropy.kl_self_s": self_["entropy.kl_total_index"],
        "studies.tasks": counts["entropy.estimate_entropy_indices"]["tasks"],
        # workloads without a metastudy exclude nothing
        "studies.included_ratio": (meta["included"] / meta["attempted"]
                                   if meta["attempted"] else 1.0),
        "report.write_s": total["report.SensitivityReport.write"],
        "report.bytes_written": counts["report.SensitivityReport.write"]["bytes"],
        "trace.spans": len(spans),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = module_self[module]
    return m
