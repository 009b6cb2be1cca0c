"""The four benchmark workloads: set-up, body, output checks and digest.

Each workload runs public entrosa entry points with inputs made from the
seed. ``setup`` imports the package, ``entrosa.studies`` included, and
builds the models with their lazy set-up (the ishigami quadrature, the
truncated-law entropy caches); ``body`` is the timed part; ``check`` turns
the outputs into pass/fail checks taken from closed forms and invariants
only, workload-specific quality figures, and a digest of every output value.
``n_checks`` is the number of checks a worker that crashes fails.

Entry points are looked up through their module at call time, so the timing
wrappers that ``tracing.py`` installs after set-up see every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Sizes. Each body runs in a fresh process, several times per benchmark run.
NONLINEAR_SCALE = 0.25         # ishigami + gfunction3: n=2.5e5, 20 reps, 63x63 bins
FLOOD_SCALE = 0.15             # n=1.5e6, 3 reps, 39^3 conditioning x 53 output bins
AGREEMENT_FUNCTIONS = 100
AGREEMENT_SAMPLES = 100_000
SCREENING_GROUPS = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
# |l_i - closed form| allowed on gfunction9_case1 at n_deriv=3e5; the
# Monte Carlo error is about 1e-3, so this only trips on a real defect
SCREENING_L_TOL = 0.02
CHAIN_ULP = 1e-13
# the output directory, relative to the worker's own working directory, so
# the config echoed into every report is the same in every process
OUTDIR = "out"


def _csv_table(path: Path) -> tuple[list[dict], str]:
    """Rows of a report CSV, and its text without the volatile wall time."""
    lines = path.read_text().splitlines(keepends=True)
    stable = "".join(l for l in lines if not l.startswith("# wall_time_s ="))
    rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
    return rows, stable


def _chain_holds(row: dict) -> bool:
    """exp(l) <= mu <= sqrt(nu) on the values the report prints, checked in
    the log domain as the acceptance suite's criterion 7 checks it: a
    constant derivative (flood's Dd and Cb) collapses the chain to equality,
    where exp and log differ by one ulp, so the only slack is CHAIN_ULP."""
    l, mu, nu = float(row["l"]), float(row["mu"]), float(row["nu"])
    return l <= math.log(mu) + CHAIN_ULP and math.log(mu) <= 0.5 * math.log(nu) + CHAIN_ULP


def _ranks(values) -> tuple[int, ...]:
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    return tuple(order.index(i) + 1 for i in range(len(values)))


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


class Nonlinear:
    """tables preset "nonlinear" at NONLINEAR_SCALE: 40 independent
    repetitions with 2-D conditioning; entropy counting dominates."""

    name = "nonlinear"
    models = ("ishigami", "gfunction3")
    n_checks = 6

    def setup(self):
        from entrosa import benchmarks, studies  # noqa: F401
        self.closed = {m: benchmarks.builtin(m).analytic["h_total"].values
                       for m in self.models}

    def body(self, seed):
        from entrosa import studies
        return studies.run_table_preset("nonlinear", OUTDIR, seed=seed,
                                        scale=NONLINEAR_SCALE)

    def check(self, result):
        checks, texts, err = [], [], 0.0
        for model in self.models:
            rows, text = _csv_table(Path(OUTDIR) / f"table_{model}.csv")
            texts.append(text)
            h = [float(r["h_total"]) for r in rows]
            kappa = [float(r["kappa"]) for r in rows]
            closed = self.closed[model]
            checks.append((f"{model}: every H_Ti finite", all(map(math.isfinite, h))))
            checks.append((f"{model}: every kappa in (0, 1]",
                           all(0.0 < k <= 1.0 for k in kappa)))
            checks.append((f"{model}: H_Ti ranking matches the closed form",
                           _ranks(h) == _ranks(closed)))
            err = max(err, max(abs(a - b) for a, b in zip(h, closed)))
        return checks, {"h_total_err": err}, _digest(*texts)


class Flood:
    """tables preset "flood" at FLOOD_SCALE: 3-D conditioning on the reduced
    flood model plus deriv, variance and bounds; truncated-law sampling and
    the largest working set."""

    name = "flood"
    n_checks = 2

    def setup(self):
        from entrosa import benchmarks, studies  # noqa: F401
        benchmarks.builtin("flood")   # computes and caches the input entropies

    def body(self, seed):
        from entrosa import studies
        return studies.run_table_preset("flood", OUTDIR, seed=seed, scale=FLOOD_SCALE)

    def check(self, result):
        rows, text = _csv_table(Path(OUTDIR) / "table_flood.csv")
        ranking = (Path(OUTDIR) / "table_flood_ranking.json").read_text()
        try:
            parsed = isinstance(json.loads(ranking), dict)
        except json.JSONDecodeError:
            parsed = False
        checks = [("every variable: exp(l) <= mu <= sqrt(nu)", all(map(_chain_holds, rows))),
                  ("ranking JSON parses", parsed)]
        return checks, {}, _digest(text, ranking)


class Agreement:
    """metastudy of AGREEMENT_FUNCTIONS drawn 3-input functions: many small
    histograms and per-call overhead."""

    name = "agreement"
    n_checks = AGREEMENT_FUNCTIONS + 1

    def setup(self):
        from entrosa import studies  # noqa: F401

    def body(self, seed):
        from entrosa import studies
        return studies.metastudy(AGREEMENT_FUNCTIONS, AGREEMENT_SAMPLES, seed)

    def check(self, result):
        summary = result["summary"]
        checks = [("included + excluded == attempted",
                   summary["included"] + summary["excluded"] == AGREEMENT_FUNCTIONS
                   and len(result["functions"]) == summary["included"])]
        for rec in result["functions"]:
            kappa = rec["kappa"]
            checks.append((f"function {rec['index']}: every kappa in (0, 1]",
                           all(0.0 < k <= 1.0 for k in kappa)))
        for rec in result["excluded_records"]:
            checks.append((f"function {rec['index']}: exclusion carries a reason",
                           bool(rec.get("excluded"))))
        quality = {"agreement_full_l": summary["agreement"]["l_bound"]["full"]}
        return checks, quality, _digest(json.dumps(result, sort_keys=True))


class Screening:
    """run on gfunction9_case1 with the one-at-a-time estimators (deriv,
    variance, bounds, groups, kl) on 9 inputs and no conditioning grid."""

    name = "screening"
    n_checks = 10

    def setup(self):
        from entrosa import benchmarks, report, studies  # noqa: F401
        self.closed_l = benchmarks.builtin("gfunction9_case1").analytic["l"].values

    def body(self, seed):
        from entrosa import report, studies
        config = report.RunConfig(
            model="gfunction9_case1",
            methods=("deriv", "variance", "bounds", "groups", "kl"),
            n_samples=300_000, n_base=200_000, n_deriv=300_000,
            groups=SCREENING_GROUPS, seed=seed)
        return studies.run_from_config(config)

    def check(self, result):
        rows = result.rows
        checks = [("every variable: exp(l) <= mu <= sqrt(nu)", all(map(_chain_holds, rows)))]
        for i, (row, closed) in enumerate(zip(rows, self.closed_l)):
            checks.append((f"x{i + 1}: |l - closed form| <= {SCREENING_L_TOL}",
                           bool(abs(row["l"] - closed) <= SCREENING_L_TOL)))
        meta = {k: v for k, v in result.metadata.items() if k != "wall_time_s"}
        stable = json.dumps({"metadata": meta, "rows": rows,
                             "rankings": result.rankings}, sort_keys=True)
        return checks, {}, _digest(stable)


WORKLOADS = {w.name: w for w in (Nonlinear, Flood, Agreement, Screening)}
