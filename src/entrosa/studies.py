"""Experiment orchestration: full runs from a config, the metafunction
ranking-agreement study, convergence ladders, and named table presets.

Histogram bin counts follow a cells-scale-with-samples rule in the presets:
for a model with c conditioning axes the per-axis bin count is N**(1/3),
which keeps 3-axis grids at about one sample per cell and leaves 2-axis
grids comfortably populated. Deviations (the flood reduction) are pinned
per study in ``STUDY_BINS``.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import BenchmarkModel, builtin, draw_metafunction
from .deriv import estimate_deriv_measures, estimate_group_l
from .entropy import (HistogramSpec, entropy_histogram, entropy_upper_bounds,
                      estimate_entropy_indices, kl_total_index)
from .errors import ConfigurationError, NumericalError, SparseGridError
from .model import (Model, clean_outputs, evaluate_batch, fix_variables,
                    sample_inputs)
from .report import (METHODS, OUTPUT_DIR_ENV, RunConfig, SensitivityReport,
                     rank_descending, write_atomic)
from .variance import estimate_total_effect_variance, variance_upper_bound

__all__ = ["build_benchmark", "run_from_config", "metastudy", "convergence",
           "run_table_preset", "TABLE_PRESETS", "cube_root_bins"]

# per-study estimator settings for the reproduction presets (per-axis bins)
STUDY_BINS = {
    "mono_fine": HistogramSpec(bins_output=316, bins_per_conditioning_dim=316),
    "mono4": HistogramSpec(bins_output=10_000, bins_per_conditioning_dim=100),
    "paper_1e6": HistogramSpec(bins_output=100, bins_per_conditioning_dim=100),
    "paper_1e7": HistogramSpec(bins_output=215, bins_per_conditioning_dim=215),
    "flood_kappa": HistogramSpec(bins_output=100, bins_per_conditioning_dim=74),
    "metastudy": HistogramSpec(bins_output=100, bins_per_conditioning_dim=100),
}


def cube_root_bins(n: int, lo: int = 8, hi: int = 1000) -> int:
    return int(np.clip(round(n ** (1.0 / 3.0)), lo, hi))


def _scaled_spec(spec: HistogramSpec, n: int, n_full: int) -> HistogramSpec:
    """Shrink a full-scale bin setting for a reduced sample count, keeping the
    cells-per-sample regime roughly constant."""
    if n >= n_full:
        return spec
    factor = (n / n_full) ** (1.0 / 3.0)
    return HistogramSpec(
        bins_output=max(8, int(round(spec.bins_output * factor))),
        bins_per_conditioning_dim=max(8, int(round(spec.bins_per_conditioning_dim * factor))))


def resolve_output_path(path: str | Path) -> Path:
    """Relative outputs land in $ENTROSA_OUTPUT_DIR when it is set."""
    path = Path(path)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def build_benchmark(config: RunConfig) -> BenchmarkModel:
    """Resolve the configured model: a builtin by name or a drawn random
    function, optionally composed by replacing input laws or pinning
    variables (1-based indices in the config)."""
    if config.metafunction_seed is not None:
        rng = np.random.default_rng(config.metafunction_seed)
        _, model = draw_metafunction(rng, seed=config.metafunction_seed)
        bench = BenchmarkModel(name=model.name, model=model)
    else:
        bench = builtin(config.model, **config.model_params)
    if not config.input_overrides and not config.fix:
        return bench

    from .distributions import parse_distribution

    model = bench.model
    if config.input_overrides:
        inputs = list(model.inputs)
        for one_based, text in config.input_overrides:
            if not 1 <= one_based <= model.dim:
                raise ConfigurationError(
                    f"input override index {one_based} out of range for dim {model.dim}")
            inputs[one_based - 1] = parse_distribution(text)
        model = Model(f"{model.name}[custom inputs]", tuple(inputs), model.evaluator)
    names = bench.var_names
    if config.fix:
        fixed = {i - 1: v for i, v in config.fix}
        model = fix_variables(model, fixed)
        if names:
            names = tuple(n for j, n in enumerate(names) if j not in fixed)
    # composed models drop the builtin's analytic record: it no longer applies
    return BenchmarkModel(name=model.name, model=model, var_names=names)


def _method_streams(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(len(METHODS))
    return {m: np.random.default_rng(c) for m, c in zip(METHODS, children)}


def run_from_config(config: RunConfig) -> SensitivityReport:
    """Execute the requested estimators and assemble the report.

    ``metadata["n_evaluations"]`` is the number of input rows the model
    evaluated, counted at the evaluator."""
    t0 = time.perf_counter()
    bench = build_benchmark(config)
    n_evaluations = 0

    def counted(x: np.ndarray) -> np.ndarray:
        nonlocal n_evaluations
        n_evaluations += x.shape[0]
        return bench.model.evaluator(x)

    model = Model(bench.model.name, bench.model.inputs, counted)
    d = model.dim
    names = list(bench.var_names or tuple(f"x{i + 1}" for i in range(d)))
    methods = config.methods
    spec = HistogramSpec(config.bins_output, config.bins_cond)
    streams = _method_streams(config.seed)
    columns = {}  # report column -> {variable index: value}
    metadata = {"config": config.to_mapping(), "toolkit_version": __version__,
                "model": model.name, "dim": d, "variables": names}

    def put(result, keys, index=range(d)):
        for key in keys:
            columns[key] = dict(zip(index, getattr(result, key)))

    measures = h_y = None
    if "deriv" in methods or "bounds" in methods:
        measures = estimate_deriv_measures(model, config.n_deriv, config.fd_step,
                                           streams["deriv"])
        if "deriv" in methods:
            put(measures, ("mu", "nu", "l", "zero_derivative_fraction"))

    if "variance" in methods:
        put(estimate_total_effect_variance(model, config.n_base, streams["variance"]),
            ("s_total", "v_total"))

    if "entropy" in methods:
        fixed = dict(bench.entropy_fix or {})
        er = estimate_entropy_indices(fix_variables(model, fixed), config.n_samples, spec,
                                      config.repetitions, streams["entropy"])
        put(er, ("h_total", "h_total_std", "eta", "eta_std", "kappa", "kappa_std"),
            [i for i in range(d) if i not in fixed])
        if not fixed:
            h_y = er.h_y

    if "kl" in methods:
        columns["kl"] = {i: kl_total_index(model, i, config.n_samples, spec,
                                           streams["kl"]).value for i in range(d)}

    if "bounds" in methods or "groups" in methods:
        if h_y is None:
            y = evaluate_batch(model, sample_inputs(model, config.n_samples, streams["bounds"]))
            h_y = entropy_histogram(clean_outputs(y, "output entropy"), spec)
        metadata["output_entropy"] = {"h_y": h_y, "exp_h_y": math.exp(h_y)}

    if "bounds" in methods:
        put(entropy_upper_bounds(measures, model.inputs, h_y),
            ("h_bound", "kappa_bound", "nu_kappa_bound"))
        columns["variance_bound"] = dict(enumerate(variance_upper_bound(
            measures, model.inputs, table_constants=bench.poincare_constants).bound))

    if "groups" in methods:
        metadata["groups"] = []
        for g in config.groups:
            gl = estimate_group_l(model, g, config.n_samples, config.fd_step,
                                  streams["groups"])
            exp_l = math.exp(gl.l)
            metadata["groups"].append(
                {"group": [i + 1 for i in g], "l": gl.l, "exp_l": exp_l,
                 "zero_derivative_fraction": gl.zero_derivative_fraction,
                 "bound": exp_l / math.exp(h_y)})

    rows = [{"variable": name} for name in names]
    for key, values in columns.items():
        for i, v in values.items():
            rows[i][key] = float(v)
    metadata["n_evaluations"] = n_evaluations
    metadata["wall_time_s"] = round(time.perf_counter() - t0, 3)
    report = SensitivityReport(metadata=metadata, rows=rows)
    report.compute_rankings()
    if config.output:
        report.write(resolve_output_path(config.output), config.format)
    return report


# ---------------------------------------------------------------------------
# metafunction ranking-agreement study

def _ranks(values) -> tuple[int, ...]:
    return tuple(rank_descending(values)[0])


def metastudy(n_functions: int, n_samples: int, seed: int,
              output: str | Path | None = None, n_deriv: int = 1000,
              spec: HistogramSpec | None = None,
              fd_step: float = 1e-5) -> dict:
    """Ranking agreement between the exponentiated entropy indices and their
    two derivative-based upper bounds over randomly drawn functions.

    Per function the study records full-ranking, top-variable, and
    bottom-variable agreement for the log-derivative bound and the
    squared-derivative bound. Degenerate draws (constant output) are excluded
    with a reason and counted.
    """
    if n_functions < 10:
        raise ConfigurationError(f"metastudy needs at least 10 functions, got {n_functions}")
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    spec = spec or STUDY_BINS["metastudy"]
    master = np.random.default_rng(seed)
    agree = {"l_bound": {"full": 0, "max": 0, "min": 0},
             "nu_bound": {"full": 0, "max": 0, "min": 0}}
    functions = []
    excluded = []
    included = 0

    for idx in range(n_functions):
        fn_seed = int(master.integers(0, 2 ** 62))
        frng = np.random.default_rng(fn_seed)
        fn_spec, fmodel = draw_metafunction(frng, seed=fn_seed)
        record = {"index": idx, "spec": fn_spec.to_dict()}
        try:
            er = estimate_entropy_indices(fmodel, n_samples, spec, 1, frng)
            if not np.isfinite(er.h_y) or not np.isfinite(er.h_total).all():
                raise NumericalError("degenerate output distribution")
            dm = estimate_deriv_measures(fmodel, n_deriv, fd_step, frng)
            eb = entropy_upper_bounds(dm, fmodel.inputs, er.h_y)
        except (NumericalError, SparseGridError) as exc:
            record["excluded"] = str(exc)
            excluded.append(record)
            continue

        kappa_rank = _ranks(er.kappa)
        l_rank = _ranks(eb.kappa_bound)
        nu_rank = _ranks(eb.nu_kappa_bound)
        included += 1
        for family, rank in (("l_bound", l_rank), ("nu_bound", nu_rank)):
            agree[family]["full"] += int(rank == kappa_rank)
            agree[family]["max"] += int(rank.index(1) == kappa_rank.index(1))
            agree[family]["min"] += int(rank.index(3) == kappa_rank.index(3))
        record.update(kappa=[float(v) for v in er.kappa],
                      kappa_bound=[float(v) for v in eb.kappa_bound],
                      nu_kappa_bound=[float(v) for v in eb.nu_kappa_bound],
                      h_y=float(er.h_y))
        functions.append(record)

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
        write_atomic(resolve_output_path(output), json.dumps(result, indent=2, sort_keys=True))
    return result


# ---------------------------------------------------------------------------
# convergence ladders

def convergence(model_name: str, method: str, ladder: list[int], reps: int,
                seed: int, output: str | Path | None = None,
                model_params: dict | None = None) -> list[dict]:
    """Estimates along an ascending sample ladder with repetition stds.

    For benchmarks with closed-form references the rows carry the reference
    and a relative error on the exponential-entropy scale (well defined even
    when the reference entropy is zero or negative).
    """
    if sorted(ladder) != list(ladder):
        raise ConfigurationError("sample ladder must be ascending")
    if method not in ("entropy", "deriv"):
        raise ConfigurationError(f"convergence supports entropy or deriv, got {method!r}")
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    bench = builtin(model_name, **(model_params or {}))
    model = bench.model
    analytic = bench.analytic.get("h_total" if method == "entropy" else "l")
    reference = analytic.values if analytic and analytic.source == "closed-form" else None
    rows = []
    rng = np.random.default_rng(seed)
    for n in ladder:
        if method == "entropy":
            bins = cube_root_bins(n)
            er = estimate_entropy_indices(
                model, n, HistogramSpec(bins, bins), reps, rng)
            mean, std = er.h_total, er.h_total_std
        else:
            samples = np.array([estimate_deriv_measures(model, n, rng=rng).l
                                for _ in range(reps)])
            mean, std = samples.mean(axis=0), samples.std(axis=0, ddof=0)
        row = {"n": n, "mean": [float(v) for v in mean], "std": [float(v) for v in std]}
        if reference is not None:
            row["reference"] = list(reference)
            row["relative_error"] = [
                float(abs(math.exp(m) - math.exp(r)) / math.exp(r))
                for m, r in zip(mean, reference)]
        rows.append(row)
    if output:
        write_atomic(resolve_output_path(output),
                     json.dumps({"model": model.name, "method": method,
                                 "seed": seed, "rows": rows}, indent=2))
    return rows


# ---------------------------------------------------------------------------
# table presets

def _table(outdir: Path, stem: str, bins: HistogramSpec, fmt: str = "csv",
           **config) -> tuple[Path, SensitivityReport]:
    """Run one table's config and write it to ``outdir/stem.fmt``."""
    path = outdir / f"{stem}.{fmt}"
    report = run_from_config(RunConfig(
        bins_output=bins.bins_output, bins_cond=bins.bins_per_conditioning_dim,
        output=str(path), format=fmt, **config))
    return path, report


def _preset_motivating(outdir: Path, seed: int, scale: float) -> list[Path]:
    n = max(10_000, int(1e7 * scale))
    return [_table(outdir, "table_motivating",
                   _scaled_spec(STUDY_BINS["paper_1e7"], n, int(1e7)),
                   model="ratio_chi2", methods=("variance", "entropy", "kl"),
                   n_samples=n, n_base=max(1000, int(1e5 * scale)), repetitions=3,
                   seed=seed)[0]]


def _preset_monotonic(outdir: Path, seed: int, scale: float) -> list[Path]:
    n = max(10_000, int(1e7 * scale))
    out = []
    for name, params, bins in (
            ("mono1", {}, STUDY_BINS["mono_fine"]),
            ("mono2", {}, STUDY_BINS["mono_fine"]),
            ("mono3", {}, STUDY_BINS["mono_fine"]),
            ("mono4", {"r": 2.0}, STUDY_BINS["mono4"]),
            ("mono5", {}, HistogramSpec(100, 20))):
        methods = ("deriv", "entropy", "bounds")
        if name == "mono5" and n < 1_000_000:
            # a 4-D conditioning grid starves below about a million samples
            methods = ("deriv", "bounds")
        out.append(_table(outdir, f"table_{name}", _scaled_spec(bins, n, int(1e7)),
                          model=name, model_params=params, methods=methods,
                          n_samples=n, n_deriv=10_000, repetitions=3, seed=seed)[0])
    return out


def _preset_nonlinear(outdir: Path, seed: int, scale: float) -> list[Path]:
    n = max(10_000, int(1e6 * scale))
    bins = _scaled_spec(STUDY_BINS["paper_1e6"], n, int(1e6))
    return [_table(outdir, f"table_{name}", bins, model=name,
                   methods=("deriv", "entropy", "bounds"), n_samples=n,
                   n_deriv=10_000, repetitions=20, seed=seed)[0]
            for name in ("ishigami", "gfunction3")]


def _preset_flood(outdir: Path, seed: int, scale: float) -> list[Path]:
    n = max(100_000, int(1e7 * scale))
    path, report = _table(outdir, "table_flood",
                          _scaled_spec(STUDY_BINS["flood_kappa"], n, int(1e7)),
                          model="flood", methods=("deriv", "variance", "entropy", "bounds"),
                          n_samples=n, n_base=max(1000, int(1e5 * scale)),
                          n_deriv=max(1000, int(2e5 * scale)), repetitions=3, seed=seed)
    ranking_path = outdir / "table_flood_ranking.json"
    write_atomic(ranking_path, json.dumps(report.rankings, indent=2, sort_keys=True))
    return [path, ranking_path]


def _preset_groups(outdir: Path, seed: int, scale: float) -> list[Path]:
    n = max(10_000, int(1e6 * scale))
    return [_table(outdir, f"table_groups_case{case}", HistogramSpec(), "json",
                   model=f"gfunction9_case{case}", methods=("groups",), n_samples=n,
                   seed=seed, groups=((0, 1, 2), (3, 4, 5), (6, 7, 8)))[0]
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
    """Run a named study preset; ``scale`` shrinks sample counts for quick runs."""
    if name not in TABLE_PRESETS:
        raise ConfigurationError(
            f"unknown table preset {name!r}; known: {', '.join(sorted(TABLE_PRESETS))}")
    outdir = resolve_output_path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return TABLE_PRESETS[name](Path(outdir), seed, scale)
