"""The benchmark's traced worker against this source tree.

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


def _layer_units() -> dict:
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYER_UNITS


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
