"""The CI workflow's list of acceptance checks kept red on purpose."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KEPT_RED = ("test_criterion_01_monotonic_equality_mono5", "test_criterion_03_gfunction_bounds",
            "test_criterion_03_gfunction_total_entropies")


def test_the_workflow_keeps_red_exactly_the_three_named_acceptance_checks():
    # renaming a kept-red check must fail here, not only in the workflow
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    node_ids = re.findall(r"^\s*(tests/\S+::\S+)", workflow, re.M)
    assert sorted(node_ids) == sorted(f"tests/test_acceptance.py::{n}" for n in KEPT_RED)
    defined = set(re.findall(r"^def (test_\w+)\(",
                             (ROOT / "tests" / "test_acceptance.py").read_text(), re.M))
    assert set(KEPT_RED) <= defined
