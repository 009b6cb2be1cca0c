"""Run configuration, report serialization, rankings, CLI, and studies."""

import json
import math
import os
import stat

import pytest

from entrosa import ConfigurationError, RunConfig, SensitivityReport, rank_descending
from entrosa.cli import main
from entrosa.report import load_config_file, reports_equal
from entrosa.studies import (build_benchmark, convergence, metastudy,
                             run_from_config, run_table_preset)


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
        report.write(tmp_path / "report.json", "json")
        report.write(tmp_path / "report.csv", "csv")
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


D, N, N_DERIV, N_BASE, REPS, GROUPS = 3, 2000, 500, 500, 2, ((0, 1), (2,))


@pytest.mark.parametrize("method, cost", [
    ("deriv", (D + 1) * N_DERIV),
    ("variance", N_BASE * (D + 2)),
    ("entropy", N * REPS),
    ("kl", 2 * N * D),
    ("bounds", (D + 1) * N_DERIV + N),
    ("groups", N + 2 * N * len(GROUPS)),
])
def test_evaluation_count_is_the_documented_cost(method, cost):
    cfg = RunConfig(model="ishigami", methods=(method,), n_samples=N, n_deriv=N_DERIV,
                    n_base=N_BASE, repetitions=REPS, bins_output=16, bins_cond=8,
                    groups=GROUPS, seed=0)
    assert run_from_config(cfg).metadata["n_evaluations"] == cost


@pytest.mark.parametrize("mapping", [
    {"model": "gfunction9_case1", "methods": "deriv,groups", "groups": "1-3,4-9"},
    {"model": "flood", "methods": "deriv,kl", "fix": "8:300",
     "input_overrides": {2: "Uniform(20, 40)"}},
    {"model": "mono5", "model_params": {"a": (1.0, 2.0, 0.5)},
     "methods": "deriv,variance,bounds"},
    {"metafunction_seed": 7, "methods": "deriv,entropy,bounds"},
], ids=["groups", "fix-and-overrides", "mono5-a", "metafunction"])
def test_config_echo_replays_the_report(mapping):
    # the config embedded in a JSON report is enough to reproduce it; both
    # reports are compared as written, where a tuple parameter is a list
    first = run_from_config(RunConfig.from_mapping(
        {"n_samples": 5000, "n_deriv": 500, "n_base": 500, "bins_output": 16,
         "bins_cond": 8, "seed": 3, **mapping})).to_json()
    again = run_from_config(RunConfig.from_mapping(json.loads(first)["metadata"]["config"]))
    assert reports_equal(SensitivityReport.from_json(again.to_json()),
                         SensitivityReport.from_json(first))


def test_metafunction_config_builds_model():
    cfg = RunConfig(metafunction_seed=77, methods=("deriv",), n_deriv=500, seed=1)
    bench = build_benchmark(cfg)
    assert bench.model.dim == 3
    report = run_from_config(cfg)
    assert len(report.rows) == 3


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
    def test_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["run", "--model", "mono3", "--methods", "deriv",
                     "--n-deriv", "500", "--seed", "1",
                     "--output", str(out), "--format", "csv"])
        assert code == 0 and out.exists()

    def test_run_with_param_and_stdout(self, capsys):
        code = main(["run", "--model", "mono4", "--param", "r=2",
                     "--methods", "deriv", "--n-deriv", "200", "--seed", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["dim"] == 2

    def test_config_error_exit_code(self, tmp_path, capsys):
        # malformed values exit 2 with a message, whether argparse or the
        # config validation rejects them
        run = ["run", "--methods", "deriv", "--n-deriv", "200"]
        ladder = ["convergence", "--model", "mono2", "--seed", "0", "--output",
                  str(tmp_path / "c.json"), "--ladder"]
        meta = ["metastudy", "--n", "3e4", "--seed", "0", "--output",
                str(tmp_path / "m.json")]
        for argv in (run + ["--model", "not-a-model"],
                     run + ["--model", "mono3", "--n", "inf"],
                     run + ["--model", "mono3", "--n", "1e400"],
                     run + ["--model", "mono3", "--fix", "2"],
                     run + ["--model", "mono3", "--groups", "a-b"],
                     run + ["--model", "mono3", "--override-input", "a=Uniform(0,1)"],
                     run + ["--model", "mono3", "--seed", "-1"],
                     run + ["--metafunction-seed", "-1"],
                     ladder + ["1e3,inf"],
                     ladder + ["1e3,abc"],
                     ladder + ["0,1e3"],
                     ladder + ["1e3,-5"],
                     ladder + ["1e3", "--reps", "1.5"],
                     run + ["--model", "mono3", "--reps", "2.5"],
                     meta + ["--n-functions", "10.9"],
                     meta + ["--n-functions", "10", "--n-deriv", "5"]):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            assert code == 2, argv
            assert capsys.readouterr().err, argv
        assert not (tmp_path / "c.json").exists()
        assert not (tmp_path / "m.json").exists()

    def test_sparse_grid_exit_code(self, tmp_path, capsys):
        # 9-dim conditioning grid is refused
        code = main(["run", "--model", "gfunction9_case1", "--methods", "entropy",
                     "--n", "2000", "--seed", "0"])
        assert code == 4

    @pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt:RuntimeWarning")
    def test_mostly_nonfinite_outputs_exit_code(self, capsys):
        # Zm and Zv share one law, so sqrt(Zm - Zv) is NaN on about half the rows
        code = main(["run", "--model", "flood", "--methods", "deriv", "--n-deriv", "1000",
                     "--seed", "0", "--override-input", "4=Triangular(49,50,51)"])
        assert code == 3

    @pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt:RuntimeWarning")
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

    def test_output_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ENTROSA_OUTPUT_DIR", str(tmp_path))
        code = main(["run", "--model", "mono3", "--methods", "deriv",
                     "--n-deriv", "200", "--seed", "1", "--output", "sub/r.json"])
        assert code == 0 and (tmp_path / "sub" / "r.json").exists()

    def test_config_file_flow(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[run]\nmethods = deriv\nseed = 9\nn_deriv = 300\n"
                           "\n[model]\nname = mono2\n")
        out = tmp_path / "from_file.json"
        code = main(["run", "--config", str(cfgfile), "--output", str(out)])
        assert code == 0 and out.exists()
        report = SensitivityReport.from_json(out.read_text())
        assert report.metadata["config"]["seed"] == 9
