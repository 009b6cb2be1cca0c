"""The benchmark's traced worker against this source tree, and the
workloads' outputs at one CPU and at two.

The tracer looks up names in ``entrosa`` (``Distribution.sample``,
``SensitivityReport.write``) and binds the wrapped functions' arguments by
name, so a rename in the package breaks traced benchmark runs. One traced
run of each workload catches that here."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("nonlinear", "flood", "agreement", "screening")


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layer_units() -> dict:
    return _perfbench_module("tracing").LAYER_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_passes_its_checks(workload, tmp_path):
    run = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), workload, "11", "1",
                          "rec.json"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    record = json.loads((tmp_path / "rec.json").read_text())
    assert [label for label, ok in record["checks"] if not ok] == []
    # the launcher fills in the tracing overhead from an untraced run
    assert set(record["layers"]) == set(_layer_units()) - {"trace.overhead_s"}


@pytest.mark.parametrize("workload", ["screening", "flood", "agreement"])
def test_workload_digest_is_the_same_at_one_and_two_cpus(workload, tmp_path, monkeypatch, cpus):
    # in process, where the row blocks, split fills and tallies follow the CPU
    # count, and the metastudy's functions run inline or on a forked worker
    monkeypatch.chdir(tmp_path)
    bench = _perfbench_module("workloads").WORKLOADS[workload]()
    bench.setup()
    digests = []
    for k in (1, 2):
        cpus(k)
        checks, _, digest = bench.check(bench.body(11))
        assert [label for label, ok in checks if not ok] == []
        digests.append(digest)
    assert digests[0] == digests[1]
