"""Run configuration, report serialization, rankings, CLI, and studies."""

import contextlib
import csv
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entrosa
from entrosa import ConfigurationError, RunConfig, SensitivityReport, builtin, rank_descending
from entrosa.benchmarks import FLOOD_POINCARE, FLOOD_VAR_NAMES
from entrosa.cli import main
from entrosa.deriv import DerivMeasures, estimate_deriv_measures
from entrosa.entropy import (EntropyBounds, EntropyReport, HistogramSpec, KLResult,
                             kl_total_index)
from entrosa.report import (METHODS, MAX_RUNS, ROW_FIELDS, _map_leaves, _read_config_file,
                            json_text, write_atomic)
from entrosa.studies import (STUDY_BINS, _method_streams, _scaled_spec, build_benchmark,
                             convergence, metastudy, run_from_config, run_table_preset)
from entrosa.variance import PoincareBound, VarianceReport, variance_upper_bound


def load_config_file(path) -> RunConfig:
    """The config a sectioned key = value file gives, as ``entrosa run --config`` reads it."""
    return RunConfig.from_mapping(_read_config_file(path))


def reports_equal(a: SensitivityReport, b: SensitivityReport) -> bool:
    """Value-level equality, ignoring the wall time."""
    meta_a = {k: v for k, v in a.metadata.items() if k != "wall_time_s"}
    meta_b = {k: v for k, v in b.metadata.items() if k != "wall_time_s"}
    return meta_a == meta_b and a.rows == b.rows and a.rankings == b.rankings


def csv_rows(path) -> list[dict]:
    """The rows of a CSV report, keyed by column, its metadata lines skipped."""
    text = Path(path).read_text()
    return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))


class TestRunConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            RunConfig.from_mapping({"model": "ishigami", "bogus": 1})

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown methods"):
            RunConfig.from_mapping({"model": "ishigami", "methods": "entropy,magic"})

    def test_scientific_notation_counts(self):
        cfg = RunConfig.from_mapping({"model": "ishigami", "n_samples": "1e6",
                                      "n_base": "1e4"})
        assert cfg.n_samples == 1_000_000 and cfg.n_base == 10_000

    def test_group_parsing(self):
        cfg = RunConfig.from_mapping({"model": "gfunction9_case1",
                                      "methods": "groups",
                                      "groups": "1-3,4-6,7-9"})
        assert cfg.groups == ((0, 1, 2), (3, 4, 5), (6, 7, 8))

    def test_groups_method_needs_groups(self):
        with pytest.raises(ConfigurationError, match="groups"):
            RunConfig.from_mapping({"model": "gfunction9_case1", "methods": "groups"})
        with pytest.raises(ConfigurationError, match="groups"):
            RunConfig.from_mapping({"model": "gfunction9_case1", "methods": "groups",
                                    "groups": []})

    def test_model_or_seed_required(self):
        with pytest.raises(ConfigurationError):
            RunConfig.from_mapping({"methods": "deriv"})

    def test_round_trip_mapping(self):
        cfg = RunConfig.from_mapping({"model": "mono4", "model_params": {"r": 2.0},
                                      "methods": ["deriv", "entropy"], "seed": 3})
        again = RunConfig.from_mapping(cfg.to_mapping())
        assert again == cfg

    def test_config_file_with_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[run]\nseed = 1\nwhatever = 2\n\n[model]\nname = mono2\n")
        with pytest.raises(ConfigurationError, match="whatever"):
            load_config_file(path)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "[run]\nmethods = deriv, entropy\nn_samples = 1e5\nseed = 11\n"
            "\n[model]\nname = mono4\nr = 2\n"
            "\n[histogram]\nbins_output = 64\nbins_per_conditioning_dim = 16\n")
        cfg = load_config_file(path)
        assert cfg.model == "mono4" and cfg.model_params == {"r": 2.0}
        assert cfg.n_samples == 100_000 and cfg.bins_output == 64 and cfg.bins_cond == 16


FIELDS = [f.name for f in fields(RunConfig)]
FILE_LINES = st.one_of(
    st.text(),
    st.sampled_from(["[run]", "[model]", "[inputs]", "[histogram]", "[groups]",
                     "[DEFAULT]", "[bogus]"]),
    st.builds("{} = {}".format,
              st.sampled_from(["name", "methods", "seed", "fd_step", "n_samples",
                               "metafunction_seed", "fix", "r", "a", "x1", "x2",
                               "bins_per_conditioning_dim", "groups", "format"]),
              st.text()))


@settings(max_examples=300, deadline=None)
@given(data=st.dictionaries(st.sampled_from(FIELDS), st.text()))
def test_any_field_text_parses_or_is_refused(data):
    # parses the mapping only, so a huge fuzzed count never reaches an estimator
    try:
        RunConfig.from_mapping(data)
    except ConfigurationError:
        pass


@settings(max_examples=300, deadline=None)
@given(text=st.lists(FILE_LINES).map("\n".join))
def test_any_config_file_text_parses_or_is_refused(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    try:
        load_config_file(path)
    except ConfigurationError:
        pass


class TestRankings:
    def test_dense_descending(self):
        ranks, tie = rank_descending([0.1, 0.9, 0.5])
        assert ranks == [3, 1, 2] and not tie

    def test_tie_broken_by_index_and_flagged(self):
        ranks, tie = rank_descending([0.5, 0.5, 0.1])
        assert ranks == [1, 2, 3] and tie

    def test_nan_ranks_last(self):
        ranks, _ = rank_descending([float("nan"), 2.0, 1.0])
        assert ranks == [3, 1, 2]

    def test_ties_are_relative_between_finite_values(self):
        assert rank_descending([1e-15, 9e-15])[1] is False
        assert rank_descending([1e20, 1e20 * (1 + 1e-14)])[1] is True
        # a non-finite value ranks last and ties with nothing
        assert rank_descending([0.0, -math.inf, float("nan")]) == ([1, 2, 3], False)


def test_a_report_ranks_its_rows_when_built_and_read_back():
    # flood-like rows: pinned inputs read None, a key absent from a row reads
    # None, values within a relative 1e-12 tie, and non-finite values rank last
    inf, nan = math.inf, math.nan
    families = ("s_total", "variance_bound", "kappa", "kappa_bound", "nu_kappa_bound")
    table = {
        "Q": (0.25, inf, 0.4, 0.5, 0.5),
        "Ks": (0.25 * (1 + 4e-13), 0.3, 0.4 * (1 - 5e-13), nan, 0.5 * (1 + 2e-12)),
        "Zv": (0.1, nan, 0.7, 0.5 * (1 + 9e-13), 0.6),
        "Zm": (-inf, 0.3, None, -inf, 0.0),
        "Dd": (0.0, "absent", 0.05, 0.01, 0.01),
        "Cb": (nan, None, None, 0.02, inf),
    }
    rows = [{"variable": name, **{f: v for f, v in zip(families, values) if v != "absent"}}
            for name, values in table.items()]
    report = SensitivityReport(metadata={"model": "flood"}, rows=rows)
    # rank_descending per family, with no rank where a row has no value
    assert report.rankings == {
        "s_total": {"ranks": [2, 1, 3, 5, 4, 6], "tie_broken": True},
        "variance_bound": {"ranks": [3, 1, 4, 2, None, None], "tie_broken": True},
        "kappa": {"ranks": [2, 3, 1, None, 4, None], "tie_broken": True},
        "kappa_bound": {"ranks": [2, 5, 1, 6, 4, 3], "tie_broken": True},
        "nu_kappa_bound": {"ranks": [3, 2, 1, 5, 4, 6], "tie_broken": False},
    }
    assert "rank_s_total,rank_variance_bound,rank_kappa,rank_kappa_bound," in report.to_csv()
    again = SensitivityReport.from_json(report.to_json())
    assert reports_equal(again, report)
    assert again.to_json() == report.to_json() and again.to_csv() == report.to_csv()
    # a family no row holds gets no ranks
    assert SensitivityReport({}, [{"variable": "x1", "mu": 1.0}]).rankings == {}


def test_no_decision_depends_on_the_output_scale(monkeypatch):
    # 2**-30 scales every output, difference and variance exactly, so the
    # shares, the ranks and the tie flags must not move
    import entrosa.studies as studies
    from entrosa import BenchmarkModel, Model

    config = RunConfig(model="mono3", methods=("variance", "deriv", "bounds"),
                       n_base=2000, n_deriv=500, seed=3)
    plain = run_from_config(config)
    mono3 = builtin("mono3").model
    scaled = Model("mono3", mono3.inputs, lambda x: mono3.evaluator(x) * 2.0 ** -30)
    monkeypatch.setattr(studies, "builtin", lambda name: BenchmarkModel(scaled))
    small = run_from_config(config)
    assert [r["s_total"] for r in small.rows] == [r["s_total"] for r in plain.rows]
    assert small.rankings == plain.rankings


@pytest.fixture(scope="module")
def small_report():
    cfg = RunConfig(model="gfunction3", methods=("deriv", "entropy", "bounds"),
                    n_samples=50_000, n_deriv=2000, repetitions=2,
                    bins_output=64, bins_cond=16, seed=5)
    return cfg, run_from_config(cfg)


class TestRunReports:
    def test_rows_carry_requested_metrics(self, small_report):
        _, report = small_report
        for row in report.rows:
            for key in ("mu", "nu", "l", "h_total", "kappa", "h_bound",
                        "kappa_bound", "variance_bound"):
                assert key in row
        assert report.metadata["n_evaluations"] > 0

    def test_rankings_match_reference_ordering(self, small_report):
        _, report = small_report
        assert report.rankings["kappa"]["ranks"] == [1, 2, 3]
        assert report.rankings["kappa_bound"]["ranks"] == [1, 2, 3]

    def test_replay_is_value_identical(self, small_report):
        cfg, report = small_report
        again = run_from_config(cfg)
        assert reports_equal(report, again)
        # bitwise on every numeric row entry
        for a, b in zip(report.rows, again.rows):
            assert a == b

    def test_csv_and_json_hold_identical_values(self, small_report, tmp_path):
        cfg, report = small_report
        report.write(tmp_path / "report.json")
        report.write(tmp_path / "report.csv")
        loaded = SensitivityReport.from_json((tmp_path / "report.json").read_text())
        lines = (tmp_path / "report.csv").read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#")).split(",")
        first_data = lines[[i for i, l in enumerate(lines)
                            if not l.startswith("#")][0] + 1].split(",")
        csv_row = dict(zip(header, first_data))
        json_row = loaded.rows[0]
        for key, value in csv_row.items():
            if key in ("variable",) or value == "":
                continue
            if key.startswith("rank_"):
                assert int(value) == loaded.rankings[key[5:]]["ranks"][0]
            else:
                assert float(value) == json_row[key]

    def test_atomic_write_leaves_no_temp_files(self, small_report, tmp_path, monkeypatch):
        _, report = small_report
        report.write(tmp_path / "out.json")
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

        # a failed rename leaves neither the target nor a temp file, for
        # every output kind
        def failing_replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", failing_replace)
        failed = tmp_path / "failed"
        writers = (lambda: report.write(failed / "report.csv"),
                   lambda: metastudy(10, 2000, seed=1, output=failed / "meta.json",
                                     n_deriv=100),
                   lambda: convergence("mono3", "deriv", [200], 1, 0,
                                       output=failed / "conv.json"))
        for write in writers:
            with pytest.raises(OSError, match="rename refused"):
                write()
        assert list(failed.iterdir()) == []


def test_every_report_column_is_a_field_of_one_result():
    results = (DerivMeasures, VarianceReport, EntropyReport, KLResult, EntropyBounds,
               PoincareBound)
    for column in ROW_FIELDS:
        owners = [r.__name__ for r in results if column in {f.name for f in fields(r)}]
        assert len(owners) == 1, f"{column} is a field of {owners}"


def test_every_method_fills_its_columns_through_one_path(tmp_path):
    cfg = RunConfig(model="mono3", methods=("variance", "deriv", "entropy", "kl", "bounds",
                                            "groups"),
                    groups=((0, 1),), n_samples=20_000, n_base=1000, n_deriv=1000,
                    repetitions=2, bins_output=32, bins_cond=10, seed=7)
    report = run_from_config(cfg)
    assert all(set(row) == {"variable", *ROW_FIELDS} for row in report.rows)

    bench, streams = build_benchmark(cfg), _method_streams(cfg.seed)
    spec = HistogramSpec(cfg.bins_output, cfg.bins_cond)
    kl = kl_total_index(bench.model, cfg.n_samples, spec, streams["kl"]).kl
    measures = estimate_deriv_measures(bench.model, cfg.n_deriv, cfg.fd_step, streams["deriv"])
    bound = variance_upper_bound(measures, bench.model.inputs,
                                 table_constants=bench.poincare_constants).variance_bound
    assert [row["kl"] for row in report.rows] == kl.tolist()
    assert [row["variance_bound"] for row in report.rows] == bound.tolist()

    report.write(tmp_path / "r.csv")
    header = next(line for line in (tmp_path / "r.csv").read_text().splitlines()
                  if not line.startswith("#")).split(",")
    columns = [c for c in header if not c.startswith("rank_")]
    assert columns == ["variable", *ROW_FIELDS]
    assert all(set(row) == set(columns) for row in report.rows)


def test_an_undefined_value_is_no_cell_no_key_and_no_rank(tmp_path):
    # with x1 pinned at 0 mono2's output is constant: its variance share, its
    # normalized and exponentiated entropy indices and the stds of the
    # entropy columns are NaN, undefined, so the report leaves them out
    argv = ["run", "--model", "mono2", "--fix", "1:0", "--methods",
            "deriv,variance,entropy,bounds", "--n", "1e4", "--n-base", "1000"]
    for suffix in ("csv", "json"):
        assert main(argv + ["--output", str(tmp_path / f"r.{suffix}")]) == 0
    undefined = {"s_total", "eta", "kappa", "h_total_std", "eta_std", "kappa_std"}
    (cells,) = csv_rows(tmp_path / "r.csv")
    assert "nan" not in cells.values() and not undefined & set(cells)
    report = SensitivityReport.from_json((tmp_path / "r.json").read_text())
    (row,) = report.rows
    assert not any(isinstance(v, float) and math.isnan(v) for v in row.values())
    assert not undefined & set(row)
    assert not {"s_total", "kappa"} & set(report.rankings)
    # the defined values of a constant output stay, ranked
    assert row["v_total"] == row["kappa_bound"] == 0.0 and row["h_total"] == -math.inf
    assert report.rankings["kappa_bound"]["ranks"] == [1]


@pytest.mark.parametrize("model", ["ishigami", "ratio_chi2"])
def test_a_bounds_run_reports_the_derivative_measures_it_rests_on(model):
    def rows(methods):
        return run_from_config(RunConfig(model=model, methods=methods, n_deriv=2000,
                                         seed=5)).rows

    alone = rows(("bounds",))
    assert all({"mu", "nu", "l", "zero_derivative_fraction"} <= set(row) for row in alone)
    # bitwise those of the same run with the derivative method asked for
    assert alone == rows(("deriv", "bounds"))


def test_outputs_follow_the_umask(small_report, tmp_path):
    # every output kind is created with the mode open() would give it
    _, report = small_report
    old_umask = os.umask(0o022)
    try:
        report.write(tmp_path / "report.csv")
        metastudy(10, 2000, seed=1, output=tmp_path / "meta.json", n_deriv=100)
        convergence("mono3", "deriv", [200], 1, 0, output=tmp_path / "conv.json")
        flood = run_table_preset("flood", tmp_path / "flood", seed=1, scale=0.001)
    finally:
        os.umask(old_umask)
    for path in [tmp_path / "report.csv", tmp_path / "meta.json",
                 tmp_path / "conv.json"] + flood:
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name


def test_atomic_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    # reading the umask means setting it, and a file another thread creates
    # meanwhile would get the interim value, so the writer never touches it
    calls = []
    old_umask = os.umask(0o027)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(os, "umask", lambda mask: calls.append(mask) or 0o027)
            write_atomic(tmp_path / "out.json", "{}")
    finally:
        os.umask(old_umask)
    assert calls == []
    assert stat.S_IMODE((tmp_path / "out.json").stat().st_mode) == 0o640


def test_flood_run_marks_reduced_variables_absent():
    cfg = RunConfig(model="flood", methods=("entropy",), n_samples=50_000,
                    repetitions=1, bins_output=50, bins_cond=12, seed=2)
    report = run_from_config(cfg)
    by_name = {row["variable"]: row for row in report.rows}
    for fixed in ("Zm", "Cb", "L", "B"):
        assert "kappa" not in by_name[fixed]
    for free in ("Q", "Ks", "Zv", "Dd"):
        assert 0 < by_name[free]["kappa"] <= 1


def test_config_composition_overrides_and_fix():
    # built-ins compose from config: replace an input law, pin variables
    cfg = RunConfig.from_mapping({
        "model": "ishigami", "methods": ["deriv"], "n_deriv": 500, "seed": 1,
        "input_overrides": {3: "uniform(-2.8274334, 2.8274334)"},
        "fix": "2:0.0",
    })
    bench = build_benchmark(cfg)
    assert bench.model.dim == 2
    lo, hi = bench.model.inputs[1].support()
    assert (lo, hi) == (-2.8274334, 2.8274334)
    assert bench.analytic == {}  # composed model, builtin record dropped
    report = run_from_config(cfg)
    assert len(report.rows) == 2


def test_config_file_inputs_section(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "[run]\nmethods = deriv\nn_deriv = 300\nseed = 2\n"
        "\n[model]\nname = flood\nfix = 4:55, 6:55.5, 7:5000, 8:300\n"
        "\n[inputs]\nx2 = Truncated Normal(30, 64, 15, inf)\n")
    cfg = load_config_file(path)
    bench = build_benchmark(cfg)
    assert bench.model.dim == 4
    report = run_from_config(cfg)
    assert len(report.rows) == 4


def test_cli_fix_and_override_flags(capsys):
    code = main(["run", "--model", "ishigami", "--methods", "deriv",
                 "--n-deriv", "200", "--seed", "3", "--fix", "3:0",
                 "--override-input", "1=uniform(-1, 1)"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metadata"]["dim"] == 2


@pytest.mark.parametrize("flags, message", [
    (["--model", "flood", "--fix", "9:1"], "cannot fix x9: the model has inputs x1..x8"),
    (["--model", "flood", "--fix", "1:10"],
     "fixed x1 = 10.0 is outside its support [500.0, 3000.0]"),
    (["--model", "ishigami", "--fix", "2:0,2:1"], "input x2 is pinned more than once"),
    (["--model", "ishigami", "--override-input", "2=Uniform(0,1)",
      "--override-input", "2=Uniform(0,2)"], "input x2 is replaced more than once"),
    (["--model", "mono5", "--fix", "1:inf"], "fixed x1 = inf is not finite"),
    (["--model", "mono5", "--fix=1:-inf"], "fixed x1 = -inf is not finite"),
], ids=["index", "support", "pinned-twice", "replaced-twice", "inf", "minus-inf"])
def test_cli_refuses_a_bad_pin_by_the_input_name(flags, message, capsys):
    code = main(["run", "--methods", "deriv", "--n-deriv", "200", *flags])
    assert code == 2
    assert message in capsys.readouterr().err


def test_cli_fix_keeps_the_names_of_the_free_inputs(capsys):
    code = main(["run", "--model", "ishigami", "--fix", "1:0", "--methods", "deriv",
                 "--n-deriv", "200", "--seed", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metadata"]["variables"] == ["x2", "x3"]
    assert [row["variable"] for row in payload["rows"]] == ["x2", "x3"]


def test_cli_one_free_input_has_kappa_one(capsys):
    code = main(["run", "--model", "mono1", "--fix", "1:0.5",
                 "--methods", "entropy,deriv,bounds", "--n", "1e5"])
    assert code == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["variable"] == "x2" and row["kappa"] == 1.0


def test_report_json_is_strict_and_round_trips(capsys):
    # a constant output gives h_y = -inf and h_bound = -inf; JSON has no such
    # numbers, so they are written as the strings the CSV cells use
    assert main(["run", "--model", "mono2", "--fix", "1:0", "--methods", "bounds"]) == 0
    text = capsys.readouterr().out

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    json.loads(text, parse_constant=refuse)
    report = SensitivityReport.from_json(text)
    assert report.metadata["output_entropy"]["h_y"] == -math.inf
    assert report.rows[0]["h_bound"] == -math.inf
    again = SensitivityReport.from_json(report.to_json())
    assert reports_equal(again, report)
    assert report.to_json() == text.strip()


D, N, N_DERIV, N_BASE, REPS, GROUPS = 3, 2000, 500, 500, 4, ((0, 1), (2,))


@pytest.mark.parametrize("method, cost", [
    ("deriv", (D + 1) * N_DERIV),
    ("variance", N_BASE * (D + 2)),
    ("entropy", N * REPS),
    ("kl", (D + 1) * N),
    ("bounds", (D + 1) * N_DERIV),
    ("groups", (len(GROUPS) + 1) * N),
])
def test_evaluation_count_is_the_documented_cost(method, cost, cpus):
    # entropy repetitions evaluate on two threads, and no count is lost
    cpus(2)
    cfg = RunConfig(model="ishigami", methods=(method,), n_samples=N, n_deriv=N_DERIV,
                    n_base=N_BASE, repetitions=REPS, bins_output=16, bins_cond=8,
                    groups=GROUPS, seed=0)
    assert run_from_config(cfg).metadata["n_evaluations"] == cost


def test_counts_above_the_cap_are_refused_before_any_run(tmp_path, monkeypatch, capsys):
    # cap + 1 only: the refusal comes before any stream is spawned or run started
    import entrosa.studies as studies

    def no_run(config):
        raise AssertionError("a run started")

    monkeypatch.setattr(studies, "run_from_config", no_run)
    too_many = str(MAX_RUNS + 1)
    with pytest.raises(ConfigurationError, match=f"at most {MAX_RUNS}"):
        RunConfig(model="ishigami", methods=("entropy",), repetitions=MAX_RUNS + 1)
    with pytest.raises(ConfigurationError, match="functions"):
        metastudy(MAX_RUNS + 1, 1000, seed=0)
    with pytest.raises(ConfigurationError, match="repetitions"):
        convergence("mono3", "deriv", [200], MAX_RUNS + 1, 0)
    for argv in (["run", "--model", "ishigami", "--methods", "entropy", "--reps", too_many],
                 ["metastudy", "--n-functions", too_many, "--seed", "0",
                  "--output", str(tmp_path / "m.json")],
                 ["convergence", "--model", "mono3", "--ladder", "200", "--reps", too_many,
                  "--output", str(tmp_path / "c.json")]):
        assert main(argv) == 2, argv
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mapping", [
    {"model": "gfunction9_case1", "methods": "deriv,groups", "groups": "1-3,4-9"},
    {"model": "flood", "methods": "deriv,kl", "fix": "8:300",
     "input_overrides": {2: "Uniform(20, 40)"}},
    {"model": "mono5", "model_params": {"a": (1.0, 2.0, 0.5)},
     "methods": "deriv,variance,bounds"},
    {"metafunction_seed": 7, "methods": "deriv,entropy,bounds"},
], ids=["groups", "fix-and-overrides", "mono5-a", "metafunction"])
def test_config_echo_replays_the_report(mapping):
    # the config embedded in a JSON report is enough to reproduce it, both
    # as written and in memory, where a list parameter is read back as a tuple
    report = run_from_config(RunConfig.from_mapping(
        {"n_samples": 5000, "n_deriv": 500, "n_base": 500, "bins_output": 16,
         "bins_cond": 8, "seed": 3, **mapping}))
    first = report.to_json()
    again = run_from_config(RunConfig.from_mapping(json.loads(first)["metadata"]["config"]))
    assert reports_equal(SensitivityReport.from_json(again.to_json()),
                         SensitivityReport.from_json(first))
    assert reports_equal(again, report)


def test_metafunction_config_builds_model():
    cfg = RunConfig(metafunction_seed=77, methods=("deriv",), n_deriv=500, seed=1)
    bench = build_benchmark(cfg)
    assert bench.model.dim == 3
    report = run_from_config(cfg)
    assert len(report.rows) == 3


def test_a_metafunction_run_records_the_spec_it_drew(capsys):
    from entrosa import draw_metafunction
    s = 123
    assert main(["run", "--metafunction-seed", str(s), "--seed", str(s),
                 "--methods", "entropy,deriv,bounds", "--n", "5000", "--n-deriv", "200",
                 "--bins-output", "16", "--bins-cond", "8"]) == 0
    metadata = json.loads(capsys.readouterr().out)["metadata"]
    spec = draw_metafunction(np.random.default_rng(s), seed=s)[0]
    assert metadata["metafunction"] == spec.to_dict()
    # a pinned input leaves the drawn function the same
    composed = run_from_config(RunConfig(metafunction_seed=s, methods=("deriv",),
                                         n_deriv=200, fix=((2, 0.5),)))
    assert composed.metadata["metafunction"] == spec.to_dict()
    assert f"\n# metafunction = {json_text(spec.to_dict())}\n" in composed.to_csv()
    plain = run_from_config(RunConfig(model="mono3", n_deriv=200))
    assert "metafunction" not in plain.metadata
    assert "# metafunction =" not in plain.to_csv()


def _constant_every_third(draw):
    """``draw`` with the function of every seed divisible by 3 made constant,
    which the metastudy excludes."""
    from entrosa import MetaFunctionSpec, build_metafunction

    def drawn(rng, seed=-1):
        if seed % 3:
            return draw(rng, seed)
        spec = MetaFunctionSpec(u=(7, 7, 7), v=(1, 1), w=(1, 1, 1),
                                alpha=(1.0, 1.0, 1.0), beta=1.0, gamma=1.0, seed=seed)
        return spec, build_metafunction(spec)
    return drawn


def _append_line(path, value) -> None:
    """Append ``value`` as one line to ``path``, in one write that lines
    appended by other processes never interleave."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        os.write(fd, f"{value}\n".encode())
    finally:
        os.close(fd)


class TestStudies:
    def test_metastudy_small(self, tmp_path):
        out = tmp_path / "meta.json"
        result = metastudy(10, 20_000, seed=4, output=out, n_deriv=200)
        assert out.exists()
        summary = result["summary"]
        assert summary["included"] + summary["excluded"] == 10
        for family in ("l_bound", "nu_bound"):
            for key in ("full", "max", "min"):
                assert 0.0 <= summary["agreement"][family][key] <= 1.0
        # records replay: specs rebuild into evaluable models
        from entrosa import MetaFunctionSpec, build_metafunction
        spec = MetaFunctionSpec.from_dict(result["functions"][0]["spec"])
        assert build_metafunction(spec).dim == 3

    def test_metastudy_record_replays_with_run(self, capsys):
        # each function is one run of entropy, deriv and bounds seeded by its
        # spec's seed, so the command line gives its record bitwise
        result = metastudy(10, 20_000, seed=4, n_deriv=200)
        record, bins = result["functions"][3], result["summary"]["bins"]
        s = str(record["spec"]["seed"])
        assert main(["run", "--metafunction-seed", s, "--seed", s,
                     "--methods", "entropy,deriv,bounds", "--n", "20000",
                     "--n-deriv", "200", "--bins-output", str(bins["output"]),
                     "--bins-cond", str(bins["conditioning"])]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        for key in ("kappa", "kappa_bound", "nu_kappa_bound"):
            assert [row[key] for row in rows] == record[key], key

    def test_metastudy_output_does_not_depend_on_the_cpu_count(self, tmp_path,
                                                                monkeypatch, cpus):
        import entrosa.studies as studies
        monkeypatch.setattr(studies, "draw_metafunction",
                            _constant_every_third(studies.draw_metafunction))
        texts = []
        for k in (1, 2):
            cpus(k)
            out = tmp_path / f"meta{k}.json"
            result = metastudy(12, 20_000, seed=4, output=out, n_deriv=200)
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        # included and excluded records each come in index order
        for records in (result["functions"], result["excluded_records"]):
            indices = [r["index"] for r in records]
            assert indices == sorted(indices)
        assert result["excluded_records"]
        assert len(result["functions"]) + len(result["excluded_records"]) == 12

    def test_metastudy_draws_only_an_excluded_function_twice(self, monkeypatch, cpus,
                                                             tmp_path):
        # an included record reads its spec off its report, which drew it once;
        # an excluded function has no report, so its spec is drawn again. The
        # functions run in more than one process, so each draw is logged to a file
        from collections import Counter
        import entrosa.studies as studies
        drawn = _constant_every_third(studies.draw_metafunction)
        log = tmp_path / "draws"

        def counted(rng, seed=-1):
            _append_line(log, seed)
            return drawn(rng, seed)

        monkeypatch.setattr(studies, "draw_metafunction", counted)
        cpus(2)
        result = metastudy(20, 20_000, seed=4, n_deriv=200)
        draws = Counter(int(s) for s in log.read_text().split())
        included, excluded = result["functions"], result["excluded_records"]
        assert included and excluded and len(included) + len(excluded) == 20
        assert sorted(draws.values()) == sorted([1] * len(included) + [2] * len(excluded))
        for records, count in ((included, 1), (excluded, 2)):
            for record in records:
                s = record["spec"]["seed"]
                assert draws[s] == count
                assert record["spec"] == drawn(np.random.default_rng(s), s)[0].to_dict()

    def test_first_failing_function_raises_and_cancels_the_rest(self, monkeypatch, cpus,
                                                                tmp_path):
        # every function starts with a short sleep, and function 1 then fails:
        # its error is the one raised, and the functions not yet started when
        # it is seen never run. Each start is logged to a file, from whichever
        # process runs the function
        import time
        import entrosa.studies as studies
        draw = studies.draw_metafunction
        n_functions = 20
        master = np.random.default_rng(4)
        seeds = [int(master.integers(0, 2 ** 62)) for _ in range(n_functions)]
        log = tmp_path / "started"

        def failing_second(rng, seed=-1):
            _append_line(log, seeds.index(seed))
            time.sleep(0.1)
            if seed == seeds[1]:
                raise ConfigurationError("function 1")
            return draw(rng, seed)

        monkeypatch.setattr(studies, "draw_metafunction", failing_second)
        cpus(2)
        with pytest.raises(ConfigurationError, match="function 1"):
            metastudy(n_functions, 20_000, seed=4, n_deriv=200)
        started = log.read_text().split()
        assert len(set(started)) == len(started)
        assert 2 <= len(started) < n_functions

    def test_metastudy_rejects_tiny_runs(self):
        with pytest.raises(ConfigurationError):
            metastudy(5, 1000, seed=0)

    def test_metastudy_excludes_degenerate_functions(self, monkeypatch):
        # constant-output draws are excluded with a reason; an empty summary
        # is flagged rather than reported as agreement over nothing
        from entrosa import MetaFunctionSpec, build_metafunction
        import entrosa.studies as studies

        def all_dummy(rng, seed=-1):
            spec = MetaFunctionSpec(u=(7, 7, 7), v=(1, 1), w=(1, 1, 1),
                                    alpha=(1.0, 1.0, 1.0), beta=1.0, gamma=1.0,
                                    seed=seed)
            return spec, build_metafunction(spec)

        monkeypatch.setattr(studies, "draw_metafunction", all_dummy)
        result = metastudy(10, 2000, seed=1, n_deriv=100)
        summary = result["summary"]
        assert summary["excluded"] == 10 and summary["included"] == 0
        assert summary["warning"]
        assert all(r["excluded"] for r in result["excluded_records"])

    def test_convergence_ladder(self, tmp_path):
        rows = convergence("mono3", "entropy", [1000, 10_000, 100_000], 2, 3,
                           output=tmp_path / "conv.json")
        assert [r["n"] for r in rows] == [1000, 10_000, 100_000]
        assert all("relative_error" in r for r in rows)
        first, last = rows[0], rows[-1]
        assert max(last["relative_error"]) < max(first["relative_error"])
        again = convergence("mono3", "entropy", [1000, 10_000, 100_000], 2, 3)
        assert again == rows  # deterministic replay

    @pytest.mark.parametrize("name", ["mono1", "mono2", "mono3"])
    def test_convergence_reaches_three_percent(self, name):
        # error on the exponential-entropy scale shrinks along the ladder and
        # ends below 3%
        rows = convergence(name, "entropy", [1000, 1_000_000], 2, 5)
        assert max(rows[-1]["relative_error"]) < 0.03
        assert max(rows[-1]["relative_error"]) < max(rows[0]["relative_error"])

    def test_convergence_requires_ascending_ladder(self):
        with pytest.raises(ConfigurationError):
            convergence("mono3", "entropy", [1000, 100], 1, 0)
        with pytest.raises(ConfigurationError, match="repetition"):
            convergence("mono3", "deriv", [1000], 0, 0)

    @pytest.mark.parametrize("method", ["entropy", "deriv"])
    def test_convergence_rungs_are_independent(self, method):
        # a rung's values do not depend on the rungs before it
        assert (convergence("ishigami", method, [1000, 20_000], 2, 4)[1]
                == convergence("ishigami", method, [20_000], 2, 4)[0])

    @pytest.mark.parametrize("method, column", [("entropy", "h_total"), ("deriv", "l")])
    def test_convergence_runs_replay_with_entrosa_run(self, method, column, capsys):
        # repetition k of a rung is `entrosa run` at seed + k, bitwise
        n, b, seed = 5000, 17, 7
        runs = []
        for k in (0, 1):
            assert main(["run", "--model", "mono3", "--methods", method, "--n", str(n),
                         "--n-deriv", str(n), "--bins-output", str(b), "--bins-cond", str(b),
                         "--seed", str(seed + k)]) == 0
            runs.append([row[column] for row in json.loads(capsys.readouterr().out)["rows"]])
            assert convergence("mono3", method, [n], 1, seed + k)[0]["mean"] == runs[-1]
        (rung,) = convergence("mono3", method, [n], 2, seed)
        assert rung["mean"] == np.mean(runs, axis=0).tolist()
        assert rung["std"] == np.std(runs, axis=0).tolist()

    def test_the_ladder_grid_is_the_cube_root_of_n_clipped_to_8_to_1000(self):
        ns = {*range(1, 5001), *(int(10 ** e) for e in np.linspace(0, 12, 2401))}
        for k in range(1, 1101):
            ns |= {k ** 3 - 1, k ** 3, k ** 3 + 1}
            ns |= {math.floor((k + 0.5) ** 3), math.ceil((k + 0.5) ** 3)}
        for n in sorted(ns - {0}):
            b = min(1000, max(8, round(n ** (1 / 3))))
            spec = _scaled_spec(STUDY_BINS["ladder"], n, 10 ** 9)
            assert (spec.bins_output, spec.bins_per_conditioning_dim) == (b, b), n

    def test_convergence_reads_the_inputs_a_builtin_pins_as_nan(self):
        # flood's entropy indices pin four inputs; the other four are estimated
        (rung,) = convergence("flood", "entropy", [20_000], 2, 0)
        free = [math.isfinite(v) for v in rung["mean"]]
        assert free == [True, True, True, False, True, False, False, False]
        assert free == [math.isfinite(v) for v in rung["std"]]

    def test_table_preset_smoke(self, tmp_path):
        paths = run_table_preset("groups", tmp_path, seed=1, scale=0.02)
        assert all(p.exists() for p in paths)
        data = json.loads(paths[0].read_text())
        bounds = [g["bound"] for g in data["metadata"]["groups"]]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_monotonic_preset_scales_bins_down(self, tmp_path):
        # tiny smoke runs shrink the grids instead of tripping the sparse abort
        paths = run_table_preset("monotonic", tmp_path, seed=1, scale=0.001)
        assert [p.name for p in paths] == [f"table_mono{i}.csv" for i in (1, 2, 3, 4, 5)]
        assert all(p.exists() for p in paths)

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_table_preset("nope", tmp_path)


class TestCli:
    def test_verbose_logs_each_stage_to_stderr(self):
        # a fresh interpreter, so that the CLI configures logging itself
        env = {**os.environ, "PYTHONPATH": str(Path(entrosa.__file__).parents[1])}
        argv = ["run", "--model", "mono3", "--methods", "deriv", "--n-deriv", "1000",
                "--seed", "3"]
        runs = [subprocess.run([sys.executable, "-c", "import sys; from entrosa.cli import "
                                "main; sys.exit(main())", *flags, *argv], env=env,
                               capture_output=True, text=True, check=True)
                for flags in ([], ["--verbose"])]
        quiet, verbose = runs
        assert quiet.stderr == ""
        assert re.fullmatch(r"INFO entrosa\.studies: mono3: deriv on 1000 samples, "
                            r"3000 evaluations, \d+\.\d{3} s\n", verbose.stderr)
        # the log changes nothing in the report
        report = json.loads(verbose.stdout)
        assert report["rows"] == json.loads(quiet.stdout)["rows"]

    def test_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["run", "--model", "mono3", "--methods", "deriv",
                     "--n-deriv", "500", "--seed", "1",
                     "--output", str(out)])
        assert code == 0 and out.exists()

    def test_csv_suffix_alone_gives_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["run", "--model", "mono3", "--methods", "deriv", "--n-deriv", "200",
                     "--output", str(out)]) == 0
        assert out.read_text().startswith("# ")

    def test_run_with_param_and_stdout(self, capsys):
        code = main(["run", "--model", "mono4", "--param", "r=2",
                     "--methods", "deriv", "--n-deriv", "200", "--seed", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["dim"] == 2

    def test_nonlinear_tables_do_not_depend_on_the_cpu_count(self, tmp_path, cpus):
        # 20 repetitions per model run on one thread or on two; one output
        # directory, because each report echoes its path
        texts = []
        for k in (1, 2):
            cpus(k)
            paths = run_table_preset("nonlinear", tmp_path, seed=3, scale=0.02)
            texts.append([b"".join(line for line in p.read_bytes().splitlines(keepends=True)
                                   if not line.startswith(b"# wall_time_s ="))
                          for p in paths])
        assert texts[0] == texts[1]

    def test_config_error_exit_code(self, tmp_path, capsys, cpus):
        # malformed values exit 2 with a message, whether argparse or the
        # config validation rejects them; a metastudy's functions run in two
        # processes, and an error in one cancels the rest
        cpus(2)
        run = ["run", "--methods", "deriv", "--n-deriv", "200"]
        files = {"seed": "[run]\nseed = abc\n[model]\nname = mono2\n",
                 "fd_step": "[run]\nfd_step = abc\n[model]\nname = mono2\n",
                 "metafunction_seed": "[model]\nmetafunction_seed = x\n",
                 "model_param": "[model]\nname = mono5\na = 1,2,x\n",
                 "no_header": "seed = 1\n[model]\nname = mono2\n",
                 "duplicate": "[run]\nseed = 1\nseed = 2\n[model]\nname = mono2\n"}
        for name, text in files.items():
            (tmp_path / f"{name}.cfg").write_text(text)
        (tmp_path / "afile").write_text("")
        afile = str(tmp_path / "afile")
        ladder = ["convergence", "--model", "mono2", "--seed", "0", "--output",
                  str(tmp_path / "c.json"), "--ladder"]
        meta = ["metastudy", "--n", "3e4", "--seed", "0", "--output",
                str(tmp_path / "m.json")]
        for argv in (run + ["--model", "not-a-model"],
                     run + ["--model", "mono3", "--n", "inf"],
                     run + ["--model", "mono3", "--n", "1e400"],
                     run + ["--model", "mono3", "--fix", "2"],
                     run + ["--model", "mono3", "--groups", "a-b"],
                     # refused before the range's 10^9 indices are built
                     run + ["--model", "mono2", "--groups", "1-1000000000"],
                     ["run", "--model", "mono2", "--methods", "entropy",
                      "--bins-output", "3e9"],
                     ["run", "--model", "mono2", "--methods", "kl", "--n", "1"],
                     run + ["--model", "mono3", "--override-input", "a=Uniform(0,1)"],
                     run + ["--model", "mono3", "--seed", "-1"],
                     run + ["--metafunction-seed", "-1"],
                     ladder + ["1e3,inf"],
                     ladder + ["1e3,abc"],
                     ladder + ["0,1e3"],
                     ladder + ["1e3,-5"],
                     ladder + ["1e3", "--reps", "1.5"],
                     ["convergence", "--model", "mono2", "--seed", "-1", "--ladder", "1e3",
                      "--output", str(tmp_path / "c.json")],
                     run + ["--model", "mono3", "--reps", "2.5"],
                     meta + ["--n-functions", "10.9"],
                     meta + ["--n-functions", "10", "--n-deriv", "5"],
                     # numpy refuses this size without allocating
                     ["run", "--model", "ishigami", "--methods", "deriv",
                      "--n-deriv", "1e20"],
                     *(run + ["--config", str(tmp_path / f"{name}.cfg")] for name in files),
                     run + ["--model", "mono5", "--param", "a=1,2,abc"],
                     run + ["--model", "mono2", "--fd-step", "inf"],
                     run + ["--model", "mono2", "--fd-step", "nan"],
                     *(run + ["--model", "mono2", "--override-input", f"1={law}"]
                       for law in ("Uniform(0,inf)", "Gaussian(0,inf)", "ChiSquared(inf)",
                                   "Triangular(0,0,inf)", "Uniform(-1e308,1e308)")),
                     run + ["--model", "mono4", "--param", "r=abc"],
                     run + ["--model", "mono5", "--param", "a=abc"],
                     run + ["--model", "mono5", "--param", "a=0,1"],
                     run + ["--model", "mono5", "--param", "a=1,2", "--param", "sigma=-1,1"],
                     run + ["--model", "ishigami", "--param", "x=1"],
                     run + ["--metafunction-seed", "3", "--param", "r=2"],
                     run + ["--model", "mono2", "--output", afile + "/r.json"],
                     meta + ["--n-functions", "10", "--output", afile + "/m.json"],
                     ["tables", "groups", "--outdir", afile + "/x"],
                     *(["tables", "groups", "--outdir", str(tmp_path / "t"), "--scale", v]
                       for v in ("inf", "nan", "0", "-1")),
                     ["run", "--model", "nosuch", "--output",
                      str(tmp_path / "new" / "d" / "r.json")],
                     ["metastudy", "--n-functions", "10", "--n", "1e3", "--n-deriv", "5",
                      "--seed", "1", "--output", str(tmp_path / "new" / "m.json")]):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            assert code == 2, argv
            assert capsys.readouterr().err, argv
        assert not (tmp_path / "c.json").exists()
        assert not (tmp_path / "m.json").exists()
        # a refused command makes no directory
        assert not (tmp_path / "t").exists()
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("argv, fragment", [
        (["--model", "ishigami", "--methods", "entropy", "--n", "1000",
          "--bins-cond", "10000000", "--bins-output", "100000"], "overflows cell codes"),
        (["--model", "ishigami", "--override-input", "1=TruncatedGumbel(0,-1,0,1)"],
         "0 < scale < inf"),
        (["--model", "ishigami", "--override-input", "1=Uniform(a,b)"], "bad parameter list"),
        (["--model", "ishigami", "--override-input", "9=Uniform(0,1)"],
         "out of range for dim 3"),
        (["--model", "mono4", "--param", "r=0.5"], "r >= 1"),
        (["--model", "mono5", "--param", "a=1,2", "--param", "sigma=1"],
         "len(sigma) == len(a)"),
        (["--model", "mono4", "--param", "name=3"], "unexpected parameters ['name']; it takes r"),
        (["--config", "{tmp}/missing.cfg"], "cannot read config file"),
        (["--model", "mono1", "--metafunction-seed", "3"], "not both"),
        (["--model", "mono1", "--methods", "groups", "--groups", ","], "no groups found"),
    ], ids=["cell-code overflow", "gumbel scale", "parameter list", "override index",
            "mono4 r", "mono5 sigma", "parameter called name", "missing config", "model and seed", "empty groups"])
    def test_each_refusal_exits_2_with_its_reason(self, argv, fragment, tmp_path, capsys):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(["run", *argv]) == 2
        assert fragment in capsys.readouterr().err

    def test_a_negative_metastudy_seed_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["metastudy", "--seed", "-1", "--n-functions", "10", "--n", "1e4",
                     "--output", str(out)]) == 2
        assert "non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_the_motivating_preset_writes_every_proxy_finite(self, tmp_path, capsys):
        assert main(["tables", "motivating", "--outdir", str(tmp_path),
                     "--scale", "1e-3"]) == 0
        rows = csv_rows(tmp_path / "table_motivating.csv")
        assert [row["variable"] for row in rows] == ["x1", "x2"]
        for column in ("s_total", "kappa", "kappa_bound"):
            assert column in rows[0]
        assert all(math.isfinite(float(v)) for row in rows
                   for key, v in row.items() if key != "variable")

    @pytest.mark.parametrize("argv", [
        ["tables", "agreement", "--outdir", "{tmp}", "--scale", "0.03"],
        ["tables", "agreement", "--outdir", "{tmp}", "--scale", "1e-3"],
        ["metastudy", "--n-functions", "10", "--n", "1e5", "--seed", "5",
         "--output", "{tmp}/metastudy_agreement.json"],
        ["metastudy", "--n-functions", "10", "--n", "1e4", "--seed", "5",
         "--output", "{tmp}/metastudy_agreement.json"],
    ], ids=["tables agreement", "tables agreement at 1e-3", "metastudy",
            "metastudy at 1e4"])
    def test_an_agreement_study_writes_every_value_finite(self, argv, tmp_path, capsys):
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 0
        result = json.loads((tmp_path / "metastudy_agreement.json").read_text())
        assert result["summary"]["included"] == result["summary"]["n_functions"]
        leaves = []
        _map_leaves(result, leaves.append)
        numbers = [v for v in leaves if not isinstance(v, (str, bool))]
        assert numbers and all(math.isfinite(v) for v in numbers)
        # files spell a non-finite float as a string
        assert not {"inf", "-inf", "nan"} & {v for v in leaves if isinstance(v, str)}

    def test_flags_complete_the_config_file(self, tmp_path, capsys):
        # the file and the flags merge before the config is validated, so a
        # file may leave out what the flags give
        no_model = tmp_path / "no_model.cfg"
        no_model.write_text("[run]\nmethods = deriv\nn_deriv = 200\n")
        no_groups = tmp_path / "no_groups.cfg"
        no_groups.write_text("[run]\nmethods = groups\nn_samples = 2000\n"
                             "\n[model]\nname = gfunction9_case1\n")
        for argv, expected in (
                (["run", "--config", str(no_model), "--model", "mono2"],
                 {"model": "mono2", "n_deriv": 200}),
                (["run", "--config", str(no_groups), "--groups", "1-3,4-9"],
                 {"model": "gfunction9_case1", "groups": [[0, 1, 2], [3, 4, 5, 6, 7, 8]]})):
            assert main(argv) == 0, argv
            config = json.loads(capsys.readouterr().out)["metadata"]["config"]
            assert {key: config[key] for key in expected} == expected

    def test_sparse_grid_exit_code(self, tmp_path, capsys):
        # 9-dim conditioning grid is refused
        code = main(["run", "--model", "gfunction9_case1", "--methods", "entropy",
                     "--n", "2000", "--seed", "0"])
        assert code == 4

    def test_starved_grid_exits_4_alike_at_any_cpu_count(self, capsys, cpus):
        # every repetition starves with its own cell count; the error printed
        # is repetition 0's, the one a single repetition gives, at 1 or 2 CPUs
        run = ["run", "--model", "ishigami", "--methods", "entropy", "--n", "2000",
               "--bins-cond", "100", "--seed", "0", "--reps"]
        errors = set()
        for k, reps in ((1, "1"), (1, "4"), (2, "4")):
            cpus(k)
            assert main(run + [reps]) == 4
            errors.add(capsys.readouterr().err)
        assert len(errors) == 1
        assert errors.pop().startswith("sparse-grid abort: variable 1 of ishigami")

    def test_output_range_too_narrow_to_bin_exit_code(self, capsys):
        code = main(["run", "--model", "mono2", "--override-input", "1=Uniform(0,1e-315)",
                     "--methods", "groups", "--groups", "1,2", "--n", "1e4"])
        assert code == 3

    def test_an_overflowing_bound_exits_3_naming_its_input(self, capsys):
        # the Poincare constant of U(0, 1e200), (b - a)^2 / pi^2, overflows float64
        code = main(["run", "--model", "mono1", "--methods", "bounds",
                     "--override-input", "1=Uniform(0,1e200)"])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: variance_bound of input 1 overflows float64\n")

    def test_an_overflowing_total_effect_variance_exits_3_naming_its_input(self, capsys):
        # x1 ~ U(0, 1e200) squares its pick-and-freeze differences past float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--model", "mono1", "--methods", "variance", "--n-base", "200",
                         "--seed", "1", "--override-input", "1=Uniform(0,1e200)"])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: v_total of input 1 overflows float64\n")

    def test_an_overflow_that_a_zero_derivative_replaces_is_no_failure(self, capsys):
        # e^(H(X_2) - H(Y)) overflows for x2 ~ U(0, 1e308), but x2's derivative
        # is 0, so its entropy bounds are 0; the run goes on to the variance
        # bound, where the chi-squared x1 has no constant and so no bound,
        # and x2's constant (1e308)^2 / pi^2 overflows
        code = main(["run", "--model", "ratio_chi2", "--methods", "bounds",
                     "--override-input", "2=Uniform(0,1e308)"])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: variance_bound of input 2 overflows float64\n")

    def test_the_motivating_model_reports_its_entropy_bounds(self, capsys):
        # y = x1/x2 is monotone in each input, so kappa_bound = kappa: with
        # H(Y) = 0.5622 that is (0.756, 0.633), where the variance shares
        # (0.5450, 0.5460) tie; neither chi-squared input has a variance bound
        l_exact = builtin("ratio_chi2").analytic["l"].values
        for seed in range(5):
            assert main(["run", "--model", "ratio_chi2", "--methods", "deriv,bounds",
                         "--n-deriv", "1e5", "--seed", str(seed)]) == 0
            report = json.loads(capsys.readouterr().out)
            rows = report["rows"]
            assert [row["l"] for row in rows] == pytest.approx(l_exact, abs=0.01)
            assert [row["kappa_bound"] for row in rows] == pytest.approx((0.756, 0.633),
                                                                         abs=0.02)
            assert report["rankings"]["kappa_bound"]["ranks"] == [1, 2]
            assert not any("variance_bound" in row for row in rows)
            assert "variance_bound" not in report["rankings"]

    def test_floating_point_warnings_stay_off_stderr(self, capsys):
        # the first run overflows every output; the second overflows inside
        # the evaluator, on the calling thread and the helpers, and still
        # ends in a finite report
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            codes = [main(["run", "--model", "ishigami", "--methods", "deriv",
                           "--fd-step", "1e300"]),
                     main(["run", "--model", "flood", "--override-input", "2=Uniform(0,1e308)",
                           "--methods", "deriv"])]
        assert codes == [3, 0]
        assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err == (
            "numerical failure: all 1000 outputs of 'ishigami' are non-finite\n")

    def test_a_group_out_of_range_names_its_first_input_alone(self, capsys):
        code = main(["run", "--model", "ishigami", "--methods", "groups", "--groups", "1-65536",
                     "--n", "100"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "configuration error: group names x4, but the model has inputs x1..x3\n"
        assert len(err.encode()) < 200

    def test_mostly_nonfinite_outputs_exit_code(self, capsys):
        # Zm and Zv share one law, so sqrt(Zm - Zv) is NaN on about half the rows
        code = main(["run", "--model", "flood", "--methods", "deriv", "--n-deriv", "1000",
                     "--seed", "0", "--override-input", "4=Triangular(49,50,51)"])
        assert code == 3

    def test_rare_nonfinite_outputs_leave_the_output_entropy(self, tmp_path, capsys):
        # Zm drawn from U(50.9, 60) falls below Zv on a few of the H(Y) rows,
        # where sqrt(Zm - Zv) is NaN: they are excluded, as in every estimator
        out = tmp_path / "groups.json"
        code = main(["run", "--model", "flood", "--methods", "groups", "--groups", "1-2,3-4",
                     "--n", "2e5", "--override-input", "4=Uniform(50.9,60)",
                     "--output", str(out)])
        assert code == 0
        report = SensitivityReport.from_json(out.read_text())
        assert all(math.isfinite(g["bound"]) for g in report.metadata["groups"])

    def test_metastudy_requires_seed(self, capsys):
        with pytest.raises(SystemExit):
            main(["metastudy", "--n-functions", "10", "--output", "x.json"])

    def test_convergence_cli(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = main(["convergence", "--model", "mono2", "--ladder", "1e3,1e4",
                     "--reps", "2", "--seed", "0", "--output", str(out)])
        assert code == 0 and out.exists()

    def test_no_directory_is_made_before_the_report_is_written(self, tmp_path,
                                                                monkeypatch, capsys):
        import entrosa.cli as cli

        out = tmp_path / "new" / "d" / "r.json"

        def run_checked(config):
            assert not (tmp_path / "new").exists()
            return run_from_config(config)

        monkeypatch.setattr(cli, "run_from_config", run_checked)
        assert main(["run", "--model", "mono3", "--methods", "deriv", "--n-deriv", "200",
                     "--output", str(out)]) == 0
        assert out.is_file()

    @pytest.mark.parametrize("argv", [
        ["run", "--model", "mono3", "--methods", "deriv", "--n-deriv", "200"],
        ["metastudy", "--n-functions", "10", "--n", "2000", "--seed", "0"],
        ["convergence", "--model", "mono2", "--ladder", "1e3", "--seed", "0"],
    ], ids=["run", "metastudy", "convergence"])
    def test_an_existing_directory_is_refused_as_output_before_the_computation(
            self, argv, tmp_path, monkeypatch, capsys):
        import entrosa.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("the computation started")

        for name in ("run_from_config", "metastudy", "convergence"):
            monkeypatch.setattr(cli, name, never)
        assert main([*argv, "--output", str(tmp_path)]) == 2
        assert f"{tmp_path} is a directory" in capsys.readouterr().err

    def test_composed_flood_keeps_its_table_constants(self, capsys):
        # pinning an input keeps the other inputs' table constants, and an
        # overridden input falls back to its law's closed form
        def rows(*extra):
            assert main(["run", "--model", "flood", "--methods", "deriv,bounds",
                         "--n", "1e4", "--n-deriv", "200", *extra]) == 0
            return {r["variable"]: r for r in json.loads(capsys.readouterr().out)["rows"]}

        pinned = rows("--fix", "8:300")
        assert list(pinned) == list(FLOOD_VAR_NAMES[:7])
        for name, c in zip(FLOOD_VAR_NAMES[:7], FLOOD_POINCARE):
            assert pinned[name]["variance_bound"] == c * pinned[name]["nu"]
        custom = rows("--override-input", "5=Uniform(7,10)")
        assert custom["Dd"]["variance_bound"] == pytest.approx(9 / math.pi ** 2
                                                               * custom["Dd"]["nu"])
        assert custom["Q"]["variance_bound"] == FLOOD_POINCARE[0] * custom["Q"]["nu"]

    def test_composed_flood_keeps_its_entropy_pins(self, capsys):
        # the builtin's pins of the other inputs stay, re-indexed past a pinned
        # input, so the free inputs' entropies are those of the plain run
        def run(*extra):
            assert main(["run", "--model", "flood", "--methods", "entropy",
                         "--n", "2e4", *extra]) == 0
            payload = json.loads(capsys.readouterr().out)
            return ({r["variable"]: r.get("h_total") for r in payload["rows"]},
                    payload["metadata"]["n_evaluations"])

        (plain, plain_evals), (pinned, pinned_evals) = run(), run("--fix", "8:300")
        assert pinned == {name: h for name, h in plain.items() if name != "B"}
        assert pinned_evals == plain_evals
        custom, _ = run("--override-input", "5=Uniform(7,10)")
        assert [name for name, h in custom.items() if h is not None] == ["Q", "Ks", "Zv", "Dd"]

    def test_missing_variance_constant_names_the_closed_forms(self, capsys, tmp_path):
        # a replaced law without a closed form has no constant at all, so
        # Dd gets no variance bound, no CSV cell and no rank; the other
        # seven inputs keep their table constants' bounds
        out = tmp_path / "r.csv"
        assert main(["run", "--model", "flood", "--methods", "deriv,bounds", "--n", "1e4",
                     "--n-deriv", "200", "--override-input",
                     "5=Triangular(7,8,9)", "--output", str(out)]) == 0
        table = {row["variable"]: row for row in csv_rows(out)}
        assert table["Dd"]["variance_bound"] == table["Dd"]["rank_variance_bound"] == ""
        others = [row for name, row in table.items() if name != "Dd"]
        assert len(others) == 7
        assert all(math.isfinite(float(row["variance_bound"])) for row in others)
        assert sorted(int(row["rank_variance_bound"]) for row in others) == list(range(1, 8))

    def test_output_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ENTROSA_OUTPUT_DIR", str(tmp_path))
        code = main(["run", "--model", "mono3", "--methods", "deriv",
                     "--n-deriv", "200", "--seed", "1", "--output", "sub/r.json"])
        assert code == 0 and (tmp_path / "sub" / "r.json").exists()

    def test_relative_output_dir_env_is_applied_once(self, tmp_path, monkeypatch, capsys):
        # every file lands under $ENTROSA_OUTPUT_DIR once, and each printed
        # path is the one written
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ENTROSA_OUTPUT_DIR", "base")
        assert main(["tables", "flood", "--outdir", "o", "--scale", "0.001"]) == 0
        assert main(["run", "--model", "mono3", "--methods", "deriv", "--n-deriv", "200",
                     "--output", "r.json"]) == 0
        printed = [line.split(": ", 1)[1] for line in capsys.readouterr().out.splitlines()]
        assert sorted(p.name for p in (tmp_path / "base" / "o").iterdir()) == [
            "table_flood.csv", "table_flood_ranking.json"]
        assert not (tmp_path / "base" / "base").exists()
        assert len(printed) == 3 and all(os.path.isfile(p) for p in printed)
        assert printed[-1] == os.path.join("base", "r.json")

    def test_groups_bound_of_a_constant_output_is_zero(self, capsys):
        # with x1 pinned at 0 mono2's output is constant: H(Y) = l = -inf
        code = main(["run", "--model", "mono2", "--fix", "1:0", "--methods", "groups",
                     "--groups", "1", "--n", "1e4"])
        assert code == 0
        (group,) = json.loads(capsys.readouterr().out)["metadata"]["groups"]
        assert group["bound"] == 0.0

    def test_config_file_flow(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[run]\nmethods = deriv\nseed = 9\nn_deriv = 300\n"
                           "\n[model]\nname = mono2\n")
        out = tmp_path / "from_file.json"
        code = main(["run", "--config", str(cfgfile), "--output", str(out)])
        assert code == 0 and out.exists()
        report = SensitivityReport.from_json(out.read_text())
        assert report.metadata["config"]["seed"] == 9


# ``entrosa run`` argument lists one field away from a valid one: a valid
# model and methods with small samples, then one flag's value replaced by a
# malformed, out-of-range or extreme one, or the flag dropped; no value
# draws a large sample
RUN_MODELS = ("ishigami", "mono1", "mono5", "ratio_chi2", "flood", "gfunction9_case1")
RUN_METHODS = ("deriv", "bounds", "variance", "entropy,kl", "groups,bounds", ",".join(METHODS))
RUN_FLAGS = {"--n": "2000", "--n-base": "200", "--n-deriv": "500", "--reps": "2",
             "--bins-output": "20", "--bins-cond": "5", "--fd-step": "1e-5",
             "--groups": "1-2", "--seed": "1"}
COUNTS = ("0", "-5", "1", "3", "10", "99", "100", "1e3", "2.5", "1e400", "nan", "x", "")
BINS = ("0", "1", "2", "3", "2147483647", "2147483648", "1e10", "x")
PERTURBATIONS = {
    "--model": ("gfunction3", "mono2", "nope", ""),
    "--methods": ("entropy,entropy", "kl,bogus", "", ","),
    "--param": ("r=2", "a=1,2,3", "x=1", "r=nan", "a=", "="),
    "--n": COUNTS, "--n-base": COUNTS, "--n-deriv": COUNTS,
    "--reps": ("0", "1", "-1", "2.5", "x", ""),
    "--bins-output": BINS, "--bins-cond": BINS,
    "--fd-step": ("0", "-1e-5", "1e-300", "1e300", "inf", "nan", "x"),
    "--groups": ("1", "1-3", "3-1", "0", "1,1", "1-9", "", "a"),
    "--fix": ("1:0.5", "1:nan", "1:1e300", "9:0", "1:0.5,2:0.5,3:0.5", "x", ""),
    "--override-input": ("1=Uniform(0,1e200)", "2=Uniform(0,1e308)",
                         "1=Uniform(-1e308,1e308)", "1=Uniform(0,1e-315)", "1=Uniform(1,0)",
                         "1=Gaussian(0,1)", "1=Gaussian(0,0)", "2=Triangular(0,0,1)",
                         "1=ChiSquared(3)", "1=TruncatedGaussian(0,1,6.8,inf)",
                         "1=TruncatedGumbel(0,1,-1e308,1e308)", "9=Uniform(0,1)",
                         "1=Bogus(1)"),
    "--seed": ("0", "-1", "18446744073709551616", "1e3", "x"),
}
# tracebacks an earlier probe found, each now a documented exit
PINNED_EXITS = {("mono1", "bounds", "--override-input", "1=Uniform(0,1e200)"): 3,
                ("mono1", "variance", "--override-input", "1=Uniform(0,1e200)"): 3,
                ("ratio_chi2", "bounds", "--override-input", "2=Uniform(0,1e308)"): 3}


@settings(max_examples=100, deadline=None)
@example(model="mono1", methods="bounds", perturbation=("--override-input", "1=Uniform(0,1e200)"))
@example(model="mono1", methods="variance",
         perturbation=("--override-input", "1=Uniform(0,1e200)"))
@example(model="ratio_chi2", methods="bounds",
         perturbation=("--override-input", "2=Uniform(0,1e308)"))
@given(model=st.sampled_from(RUN_MODELS), methods=st.sampled_from(RUN_METHODS),
       perturbation=st.sampled_from(sorted(PERTURBATIONS)).flatmap(
           lambda flag: st.tuples(st.just(flag), st.sampled_from((None,) + PERTURBATIONS[flag]))))
def test_a_perturbed_run_ends_in_a_documented_exit_code(model, methods, perturbation):
    flags = {"--model": model, "--methods": methods, **RUN_FLAGS}
    flag, value = perturbation
    if value is None:
        flags.pop(flag, None)
    else:
        flags[flag] = value
    argv = ["run", *(f"{flag}={value}" for flag, value in flags.items())]
    # a floating-point warning raised as an error, on any thread, is no documented exit
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    assert code == PINNED_EXITS.get((model, methods, *perturbation), code), argv
    assert code in (0, 2, 3, 4), argv
