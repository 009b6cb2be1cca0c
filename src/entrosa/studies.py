"""Experiment orchestration: full runs from a config, the metafunction
ranking-agreement study, convergence ladders, and named table presets.

Every grid a study bins with, in the presets, the metastudy and the
convergence ladders, is a named full-scale ``STUDY_BINS`` entry that
``_scaled_spec`` shrinks by (n/n_full)**(1/3) below full scale, so the
samples per cell stay roughly those of the full-scale study.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import BenchmarkModel, builtin, draw_metafunction
from .deriv import estimate_deriv_measures
from .entropy import (HistogramSpec, entropy_histogram, entropy_knn, entropy_upper_bounds,
                      estimate_entropy_indices, kl_total_index)
from .errors import ConfigurationError, NumericalError, SparseGridError
from .model import Model, _map_runs, finite_within_rate, fix_variables
from .report import (MAX_RUNS, METHODS, ROW_FIELDS, RunConfig, SensitivityReport, json_text,
                     write_atomic)
from .variance import estimate_total_effect_variance, variance_upper_bound

__all__ = ["build_benchmark", "run_from_config", "metastudy", "convergence",
           "run_table_preset", "TABLE_PRESETS"]

log = logging.getLogger(__name__)

# per-study full-scale bins per axis; "ladder" at 1e9 samples is
# round(n**(1/3)) clipped to 8..1000
STUDY_BINS = {
    "mono_fine": HistogramSpec(bins_output=316, bins_per_conditioning_dim=316),
    "mono4": HistogramSpec(bins_output=10_000, bins_per_conditioning_dim=100),
    "paper_1e6": HistogramSpec(bins_output=100, bins_per_conditioning_dim=100),
    "paper_1e7": HistogramSpec(bins_output=215, bins_per_conditioning_dim=215),
    "mono5": HistogramSpec(bins_output=100, bins_per_conditioning_dim=20),
    "flood_kappa": HistogramSpec(bins_output=100, bins_per_conditioning_dim=74),
    "metastudy": HistogramSpec(bins_output=100, bins_per_conditioning_dim=100),
    "ladder": HistogramSpec(bins_output=1000, bins_per_conditioning_dim=1000),
}


def _scaled_spec(spec: HistogramSpec, n: int, n_full: int) -> HistogramSpec:
    """The bins for n samples of a setting pinned for n_full: below n_full
    every axis shrinks by (n/n_full)**(1/3), floored at 8 bins, which keeps
    the cells-per-sample regime roughly constant; at or above it the setting
    is kept as it is."""
    if n >= n_full:
        return spec
    factor = (n / n_full) ** (1.0 / 3.0)
    return HistogramSpec(
        bins_output=max(8, int(round(spec.bins_output * factor))),
        bins_per_conditioning_dim=max(8, int(round(spec.bins_per_conditioning_dim * factor))))


def build_benchmark(config: RunConfig) -> BenchmarkModel:
    """Resolve the configured model: a builtin by name or a drawn random
    function, optionally composed by replacing input laws or pinning
    variables (1-based indices in the config). Unnamed inputs are x1..xd."""
    if config.metafunction_seed is not None:
        rng = np.random.default_rng(config.metafunction_seed)
        spec, model = draw_metafunction(rng, seed=config.metafunction_seed)
        bench = BenchmarkModel(model, metafunction=spec)
    else:
        bench = builtin(config.model, **config.model_params)
    names = bench.var_names or tuple(f"x{i + 1}" for i in range(bench.model.dim))
    if not config.input_overrides and not config.fix:
        return replace(bench, var_names=names)

    from .distributions import parse_distribution

    model = bench.model
    constants = list(bench.poincare_constants or (None,) * model.dim)
    pins = dict(bench.entropy_fix or {})
    if config.input_overrides:
        inputs = list(model.inputs)
        for one_based, text in config.input_overrides:
            if not 1 <= one_based <= model.dim:
                raise ConfigurationError(
                    f"input override index {one_based} out of range for dim {model.dim}")
            inputs[one_based - 1] = parse_distribution(text)
            constants[one_based - 1] = None  # the table's was for the old law
            pins.pop(one_based - 1, None)  # so was the builtin's pin
        model = Model(f"{model.name}[custom inputs]", tuple(inputs), model.evaluator)
    if config.fix:
        fixed = {i - 1: v for i, v in config.fix}
        model = fix_variables(model, fixed)
        names = tuple(n for j, n in enumerate(names) if j not in fixed)
        constants = [c for j, c in enumerate(constants) if j not in fixed]
        pins = {j - sum(i < j for i in fixed): v for j, v in pins.items() if j not in fixed}
    # composed models drop the builtin's analytic record: it no longer applies
    return BenchmarkModel(model, var_names=names, entropy_fix=pins or None,
                          poincare_constants=tuple(constants), metafunction=bench.metafunction)


def _method_streams(seed: int) -> dict[str, np.random.Generator]:
    # "bounds" keeps its child though it draws nothing, so no other stream moves
    children = np.random.SeedSequence(seed).spawn(len(METHODS))
    return {m: np.random.default_rng(c) for m, c in zip(METHODS, children)}


def _knn_output_entropy(y: np.ndarray, spec: HistogramSpec) -> tuple[float, str]:
    """H(Y) of a sample's outputs and its estimator's name: the kNN estimate
    on the finite outputs, or the histogram's where an atom defeats the kNN."""
    good = finite_within_rate(y, "output entropy")
    y = y if good is None else y[good]
    h_y = entropy_knn(y)
    if h_y == -math.inf:
        return entropy_histogram(y, spec), "histogram"
    return h_y, "knn"


def run_from_config(config: RunConfig) -> SensitivityReport:
    """Execute the requested estimators and assemble the report.

    One writer fills the rows: every report column of every result the run
    computes, so a ``bounds`` run's rows hold the derivative measures its
    bounds rest on. A NaN, an estimator's "undefined" (an index of a
    constant output, a variance bound with no Poincaré constant), is left
    out, so it is an empty CSV cell, an absent JSON key and no rank.

    ``metadata["groups"][k]["bound"]`` is exp(l_g - H(Y)), with no
    input-entropy term: it has ``kappa_bound``'s form exp(H(X_i) + l_i -
    H(Y)) only when the group's members have zero entropy, as the
    unit-interval inputs of the G-function cases do; a group of one input
    with another law differs from its ``kappa_bound`` by exp(H(X_i)).

    ``metadata["output_entropy"]``, the H(Y) of the bounds and the groups'
    bounds, is the entropy block's when that block runs and the builtin pins
    none of its inputs. Otherwise it is the kNN estimate (the histogram's
    where an atom defeats the kNN) on the outputs of the derivative sample,
    or of the groups sample in a run without one, taken as soon as that
    sample exists: no later block runs beside those outputs.

    ``metadata["n_evaluations"]`` is the number of input rows the model
    evaluated, counted at the evaluator. Each method block logs one INFO
    line when it ends: the method, its sample count, the model evaluations
    it made and its wall time."""
    t0 = time.perf_counter()
    bench = build_benchmark(config)
    n_evaluations = 0
    # evaluations run on pool threads, and += is not atomic
    tally = threading.Lock()

    def counted(x: np.ndarray) -> np.ndarray:
        nonlocal n_evaluations
        with tally:
            n_evaluations += x.shape[0]
        return bench.model.evaluator(x)

    model = Model(bench.model.name, bench.model.inputs, counted)
    d = model.dim
    names = list(bench.var_names)
    methods = config.methods
    spec = HistogramSpec(config.bins_output, config.bins_cond)
    streams = _method_streams(config.seed)
    rows = [{"variable": name} for name in names]
    metadata = {"config": config.to_mapping(), "toolkit_version": __version__,
                "model": model.name, "dim": d, "variables": names}
    if bench.metafunction:
        metadata["metafunction"] = bench.metafunction.to_dict()

    def put(result, index=range(d)):
        # every field of the result that is a report column, one value per
        # variable; a NaN is the estimator's "undefined", which a row leaves out
        for f in fields(result):
            if f.name in ROW_FIELDS:
                for i, v in zip(index, getattr(result, f.name)):
                    if not math.isnan(v):
                        rows[i][f.name] = float(v)

    @contextmanager
    def stage(method: str, n: int):
        started, evaluated = time.perf_counter(), n_evaluations
        yield
        log.info("%s: %s on %d samples, %d evaluations, %.3f s", model.name, method, n,
                 n_evaluations - evaluated, time.perf_counter() - started)

    # H(Y) is the entropy block's if it runs on every input, else it comes
    # off the first derivative sample's outputs as soon as they exist
    knn_h_y = ("bounds" in methods or "groups" in methods) and (
        "entropy" not in methods or bool(bench.entropy_fix))
    h_y = None
    if "deriv" in methods or "bounds" in methods:
        with stage("deriv", config.n_deriv):
            measures = estimate_deriv_measures(model, config.n_deriv, config.fd_step,
                                               streams["deriv"])
        put(measures)
        if knn_h_y:
            h_y, estimator = _knn_output_entropy(measures.y, spec)
        measures = replace(measures, y=None)  # the bounds need mu, nu and l only

    if "variance" in methods:
        with stage("variance", config.n_base):
            put(estimate_total_effect_variance(model, config.n_base, streams["variance"]))

    if "entropy" in methods:
        fixed = dict(bench.entropy_fix or {})
        with stage("entropy", config.n_samples * config.repetitions):
            er = estimate_entropy_indices(fix_variables(model, fixed), config.n_samples, spec,
                                          config.repetitions, streams["entropy"])
        put(er, [i for i in range(d) if i not in fixed])
        if not fixed:
            h_y, estimator = er.h_y, "entropy"

    if "kl" in methods:
        with stage("kl", config.n_samples):
            put(kl_total_index(model, config.n_samples, spec, streams["kl"]))

    if "groups" in methods:
        with stage("groups", config.n_samples):
            gm = estimate_deriv_measures(model, config.n_samples, config.fd_step,
                                         streams["groups"], config.groups)
        if h_y is None:
            h_y, estimator = _knn_output_entropy(gm.y, spec)
        gm = replace(gm, y=None)

    if "bounds" in methods or "groups" in methods:
        metadata["output_entropy"] = {"h_y": h_y, "exp_h_y": math.exp(h_y),
                                      "estimator": estimator}

    if "bounds" in methods:
        with stage("bounds", config.n_deriv):
            put(entropy_upper_bounds(measures, model.inputs, h_y))
            put(variance_upper_bound(measures, model.inputs,
                                     table_constants=bench.poincare_constants))

    if "groups" in methods:
        metadata["groups"] = [
            {"group": [i + 1 for i in g], "l": float(l), "exp_l": math.exp(l),
             "zero_derivative_fraction": float(z),
             "bound": 0.0 if l == -math.inf else float(np.exp(l - h_y))}
            for g, l, z in zip(config.groups, gm.l, gm.zero_derivative_fraction)]

    metadata["n_evaluations"] = n_evaluations
    metadata["wall_time_s"] = round(time.perf_counter() - t0, 3)
    report = SensitivityReport(metadata=metadata, rows=rows)
    if config.output:
        report.write(config.output)
    return report


# ---------------------------------------------------------------------------
# metafunction ranking-agreement study

def metastudy(n_functions: int, n_samples: int, seed: int,
              output: str | Path | None = None, n_deriv: int = RunConfig.n_deriv) -> dict:
    """Ranking agreement between the exponentiated entropy indices and their
    two derivative-based upper bounds over randomly drawn functions.

    Each function is one ``run_from_config`` run of the entropy, deriv and
    bounds methods, with its spec's seed s as both the metafunction seed and
    the run seed, so ``entrosa run --metafunction-seed s --seed s --methods
    entropy,deriv,bounds`` with the study's counts and the bins in
    ``summary["bins"]`` replays its record bitwise. The grid is 100 × 100 at
    1e6 samples and shrinks below that by the presets' rule
    (``_scaled_spec``). Per function the study records full-ranking,
    top-variable, and bottom-variable agreement for the log-derivative bound
    and the squared-derivative bound. An included record reads its spec off
    its report's ``metadata["metafunction"]``. Degenerate draws (constant
    output) are excluded with a reason and counted.

    The functions go through ``_map_runs``, on forked processes, one per
    usable CPU, or on threads where the platform cannot fork safely. Each
    draws only from its own seed, so the result is bitwise the same
    whatever the number of CPUs.
    """
    if not 10 <= n_functions <= MAX_RUNS:
        raise ConfigurationError(f"metastudy needs 10 to {MAX_RUNS} functions, got {n_functions}")
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    spec = _scaled_spec(STUDY_BINS["metastudy"], n_samples, 10**6)
    master = np.random.default_rng(seed)
    seeds = [int(master.integers(0, 2 ** 62)) for _ in range(n_functions)]
    agree = {"l_bound": {"full": 0, "max": 0, "min": 0},
             "nu_bound": {"full": 0, "max": 0, "min": 0}}
    functions = []
    excluded = []

    def run(fn_seed: int) -> SensitivityReport | dict:
        """The function's report, which records the spec it drew, or else the
        record of its exclusion, whose spec is drawn again as it has no report."""
        try:
            report = run_from_config(RunConfig(
                metafunction_seed=fn_seed, seed=fn_seed, methods=("entropy", "deriv", "bounds"),
                n_samples=n_samples, n_deriv=n_deriv, bins_output=spec.bins_output,
                bins_cond=spec.bins_per_conditioning_dim))
            if not math.isfinite(report.metadata["output_entropy"]["h_y"]):
                raise NumericalError("degenerate output distribution")
        except (NumericalError, SparseGridError) as exc:
            fn_spec = draw_metafunction(np.random.default_rng(fn_seed), seed=fn_seed)[0]
            # the message only: the traceback would hold the run's arrays
            return {"spec": fn_spec.to_dict(), "excluded": str(exc)}
        return report

    # one function per usable CPU: a function holds about 42 MB at 1e6
    # samples, which a byte budget would run one at a time
    for idx, report in enumerate(_map_runs(run, seeds)):
        if isinstance(report, dict):
            excluded.append({"index": idx, **report})
            continue

        kappa_rank = report.rankings["kappa"]["ranks"]
        for family, key in (("l_bound", "kappa_bound"), ("nu_bound", "nu_kappa_bound")):
            rank = report.rankings[key]["ranks"]
            agree[family]["full"] += int(rank == kappa_rank)
            agree[family]["max"] += int(rank.index(1) == kappa_rank.index(1))
            agree[family]["min"] += int(rank.index(3) == kappa_rank.index(3))
        record = {"index": idx, "spec": report.metadata["metafunction"],
                  "h_y": report.metadata["output_entropy"]["h_y"]}
        record.update({key: [row[key] for row in report.rows]
                       for key in ("kappa", "kappa_bound", "nu_kappa_bound")})
        functions.append(record)
    included = len(functions)

    summary = {
        "n_functions": n_functions,
        "included": included,
        "excluded": len(excluded),
        "n_samples": n_samples,
        "n_deriv": n_deriv,
        "seed": seed,
        "bins": {"output": spec.bins_output, "conditioning": spec.bins_per_conditioning_dim},
        "agreement": {
            family: {key: (count / included if included else float("nan"))
                     for key, count in counts.items()}
            for family, counts in agree.items()
        },
    }
    if included == 0:
        summary["warning"] = "no functions survived exclusion"
    result = {"summary": summary, "functions": functions, "excluded_records": excluded}
    if output:
        write_atomic(output, json_text(result, indent=2))
    return result


# ---------------------------------------------------------------------------
# convergence ladders

_CONVERGENCE_COLUMNS = {"entropy": "h_total", "deriv": "l"}  # method -> report column


def convergence(model_name: str, method: str, ladder: list[int], reps: int,
                seed: int, output: str | Path | None = None) -> list[dict]:
    """Estimates along an ascending sample ladder with repetition stds.

    Repetition k of rung n is one ``run_from_config`` run of ``method`` at n
    samples, B = round(n**(1/3)) bins clipped to 8..1000 on every axis
    (``STUDY_BINS["ladder"]``) and seed ``seed + k``, so the rungs are
    independent and ``entrosa run`` replays each run bitwise.
    ``mean`` and ``std`` (ddof 0) are over a rung's runs; a variable the run
    leaves out (pinned by the builtin for its entropy indices) reads NaN.

    For benchmarks with closed-form references the rows carry the reference
    and a relative error on the exponential-entropy scale (well defined even
    when the reference entropy is zero or negative).
    """
    if sorted(ladder) != list(ladder):
        raise ConfigurationError("sample ladder must be ascending")
    if method not in _CONVERGENCE_COLUMNS:
        raise ConfigurationError(f"convergence supports entropy or deriv, got {method!r}")
    if not 1 <= reps <= MAX_RUNS:
        raise ConfigurationError(f"convergence needs 1 to {MAX_RUNS} repetitions, got {reps}")
    column = _CONVERGENCE_COLUMNS[method]
    bench = builtin(model_name)
    analytic = bench.analytic.get(column)
    reference = analytic.values if analytic and analytic.source == "closed-form" else None
    rows = []
    for n in ladder:
        b = _scaled_spec(STUDY_BINS["ladder"], n, 10**9).bins_output
        values = np.array([
            [row.get(column, math.nan) for row in run_from_config(RunConfig(
                model=model_name, methods=(method,), n_samples=n, n_deriv=n,
                bins_output=b, bins_cond=b, seed=seed + k)).rows]
            for k in range(reps)])
        mean, std = values.mean(axis=0), values.std(axis=0)
        row = {"n": n, "mean": [float(v) for v in mean], "std": [float(v) for v in std]}
        if reference is not None:
            row["reference"] = list(reference)
            row["relative_error"] = [
                float(abs(math.exp(m) - math.exp(r)) / math.exp(r))
                for m, r in zip(mean, reference)]
        rows.append(row)
    if output:
        write_atomic(output, json_text({"model": bench.model.name, "method": method,
                                        "seed": seed, "rows": rows}, indent=2))
    return rows


# ---------------------------------------------------------------------------
# table presets

def _table(outdir: Path, name: str, bins: HistogramSpec,
           **config) -> tuple[Path, SensitivityReport]:
    """Run one table's config and write it to ``outdir/name``."""
    path = outdir / name
    report = run_from_config(RunConfig(
        bins_output=bins.bins_output, bins_cond=bins.bins_per_conditioning_dim,
        output=str(path), **config))
    return path, report


def _preset_motivating(outdir: Path, seed: int, scale: float) -> list[Path]:
    n = max(10_000, int(1e7 * scale))
    return [_table(outdir, "table_motivating.csv",
                   _scaled_spec(STUDY_BINS["paper_1e7"], n, int(1e7)),
                   model="ratio_chi2", methods=("deriv", "variance", "entropy", "kl", "bounds"),
                   n_samples=n, n_base=max(1000, int(1e5 * scale)),
                   n_deriv=max(1000, int(1e5 * scale)), repetitions=3, seed=seed)[0]]


def _preset_monotonic(outdir: Path, seed: int, scale: float) -> list[Path]:
    n = max(10_000, int(1e7 * scale))
    out = []
    for name, params, bins in (
            ("mono1", {}, STUDY_BINS["mono_fine"]),
            ("mono2", {}, STUDY_BINS["mono_fine"]),
            ("mono3", {}, STUDY_BINS["mono_fine"]),
            ("mono4", {"r": 2.0}, STUDY_BINS["mono4"]),
            ("mono5", {}, STUDY_BINS["mono5"])):
        methods = ("deriv", "entropy", "bounds")
        if name == "mono5" and n < 1_000_000:
            # a 4-D conditioning grid starves below about a million samples
            methods = ("deriv", "bounds")
        out.append(_table(outdir, f"table_{name}.csv", _scaled_spec(bins, n, int(1e7)),
                          model=name, model_params=params, methods=methods,
                          n_samples=n, n_deriv=10_000, repetitions=3, seed=seed)[0])
    return out


def _preset_nonlinear(outdir: Path, seed: int, scale: float) -> list[Path]:
    n = max(10_000, int(1e6 * scale))
    bins = _scaled_spec(STUDY_BINS["paper_1e6"], n, int(1e6))
    return [_table(outdir, f"table_{name}.csv", bins, model=name,
                   methods=("deriv", "entropy", "bounds"), n_samples=n,
                   n_deriv=10_000, repetitions=20, seed=seed)[0]
            for name in ("ishigami", "gfunction3")]


def _preset_flood(outdir: Path, seed: int, scale: float) -> list[Path]:
    n = max(100_000, int(1e7 * scale))
    path, report = _table(outdir, "table_flood.csv",
                          _scaled_spec(STUDY_BINS["flood_kappa"], n, int(1e7)),
                          model="flood", methods=("deriv", "variance", "entropy", "bounds"),
                          n_samples=n, n_base=max(1000, int(1e5 * scale)),
                          n_deriv=max(1000, int(2e5 * scale)), repetitions=3, seed=seed)
    ranking_path = outdir / "table_flood_ranking.json"
    write_atomic(ranking_path, json_text(report.rankings, indent=2))
    return [path, ranking_path]


def _preset_groups(outdir: Path, seed: int, scale: float) -> list[Path]:
    n = max(10_000, int(1e6 * scale))
    return [_table(outdir, f"table_groups_case{case}.json", HistogramSpec(),
                   model=f"gfunction9_case{case}", methods=("groups",), n_samples=n,
                   seed=seed, groups=builtin(f"gfunction9_case{case}").groups)[0]
            for case in (1, 2, 3)]


def _preset_agreement(outdir: Path, seed: int, scale: float) -> list[Path]:
    n_fn = max(10, int(200 * min(1.0, scale * 10)))
    path = outdir / "metastudy_agreement.json"
    metastudy(n_fn, max(10_000, int(1e6 * scale)), seed, output=path)
    return [path]


TABLE_PRESETS = {
    "motivating": _preset_motivating,
    "monotonic": _preset_monotonic,
    "nonlinear": _preset_nonlinear,
    "flood": _preset_flood,
    "groups": _preset_groups,
    "agreement": _preset_agreement,
}


def run_table_preset(name: str, outdir: str | Path, seed: int = 0,
                     scale: float = 1.0) -> list[Path]:
    """Run a named study preset and write its files under ``outdir``;
    ``scale`` in (0, inf) shrinks sample counts for quick runs."""
    if name not in TABLE_PRESETS:
        raise ConfigurationError(
            f"unknown table preset {name!r}; known: {', '.join(sorted(TABLE_PRESETS))}")
    if not 0 < scale < math.inf:
        raise ConfigurationError(f"scale must be positive and finite, got {scale}")
    return TABLE_PRESETS[name](Path(outdir), seed, scale)
