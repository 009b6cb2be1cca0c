"""Benchmark launcher for entrosa.

usage: python3 perfbench/run.py --workload {nonlinear,flood,agreement,screening,all}
                                --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Each workload body runs in a fresh worker
process (``worker.py``), one after another, for about ``--seconds`` (at
least MIN_ROUNDS rounds), so that ``setup_s`` is a cold start and
``peak_rss_mb`` belongs to that workload alone. Every worker in a run gets
the same seed and must reproduce the first worker's outputs bitwise.

--trace 0 reports the end-to-end metrics: medians over the workers of
wall_s, setup_s and peak_rss_mb. --trace 1 runs rounds of one untraced and
one traced worker and reports the per-layer metrics (medians over the
traced workers) plus the tracing overhead. Both print a readable table,
then the machine record, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is one
output check; a worker that crashes fails all of its checks.

Records of the run (machine, every worker's figures, spans of traced
workers) are kept under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from tracing import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = {False: 3, True: 1}
# the whole run must end within 180 s; a worker still running at this point
# of the run is stopped and counted as failed
RUN_LIMIT_S = 165.0
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
QUALITY_UNITS = {"h_total_err": "nats", "agreement_full_l": "share"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_record() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size").strip()
    mem = next((line.split()[1] for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal:")), "0")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **caches,
            "ram_gb": round(int(mem) / 2 ** 20, 1), "git_commit": commit}


def worker_env(nproc: int) -> dict:
    """This process's environment with BLAS/OpenMP threads capped at nproc
    (the metafunction evaluators call ``@``) and no output redirection."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        current = env.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            env[var] = str(nproc)
    env.pop("ENTROSA_OUTPUT_DIR", None)
    return env


def run_worker(name: str, seed: int, traced: bool, workdir: Path, env: dict,
               timeout: float) -> dict:
    workdir.mkdir(parents=True)
    record = workdir / "record.json"
    cmd = [sys.executable, str(HERE / "worker.py"), name, str(seed),
           "1" if traced else "0", str(record)]
    with open(workdir / "stderr.txt", "w") as err:
        try:
            code = subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                                  stderr=err, timeout=max(timeout, 1.0)).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code == 0 and record.exists():
        return json.loads(record.read_text())
    tail = _read(workdir / "stderr.txt").strip().splitlines()[-5:]
    print(f"worker {workdir.name} failed ({code}):", *tail, sep="\n  ", file=sys.stderr)
    return {"traced": traced, "error": str(code)}


def measure(name: str, seed: int, seconds: float, traced: bool, env: dict,
            rundir: Path) -> list[dict]:
    """Rounds of workers while the next round is expected to end within
    ``seconds``, and at least MIN_ROUNDS of them; a round is one untraced
    worker, plus a traced one when ``traced``."""
    modes = (False, True) if traced else (False,)
    records, start = [], time.perf_counter()
    while True:
        for mode in modes:
            elapsed = time.perf_counter() - start
            records.append(run_worker(name, seed, mode, rundir / f"w{len(records)}",
                                      env, RUN_LIMIT_S - elapsed))
        elapsed = time.perf_counter() - start
        rounds = len(records) // len(modes)
        per_round = elapsed / rounds
        if (rounds >= MIN_ROUNDS[traced] and elapsed + per_round > seconds) \
                or elapsed + per_round > RUN_LIMIT_S:
            return records


def tally(name: str, records: list[dict]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed: every output check of every worker,
    and for every worker after the first, that it reproduced the first
    worker's outputs bitwise (the self-check that tracing changes nothing)."""
    n_checks = WORKLOADS[name].n_checks
    attempted = failed = 0
    failures = []
    reference = next((r["digest"] for r in records if "digest" in r), None)
    for i, rec in enumerate(records):
        if "error" in rec:
            attempted += n_checks + (i > 0)
            failed += n_checks + (i > 0)
            failures.append(f"worker {i} crashed ({rec['error']})")
            continue
        for label, ok in rec["checks"]:
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"worker {i}: {label}")
        if i > 0:
            attempted += 1
            if rec["digest"] != reference:
                failed += 1
                kind = "traced" if rec["traced"] else "untraced"
                failures.append(f"worker {i} ({kind}) differs from worker 0's outputs")
    return attempted, failed, failures


def median(records: list[dict], key) -> float:
    values = [key(r) for r in records if "error" not in r]
    return statistics.median(values) if values else float("nan")


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 machine: dict, env: dict) -> tuple[bool, int, int, dict]:
    rundir = OUT / f"{name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(rundir, ignore_errors=True)
    records = measure(name, seed, seconds, traced, env, rundir)
    attempted, failed, failures = tally(name, records)
    plain = [r for r in records if not r["traced"]]
    ok = [r for r in records if "error" not in r]

    print(f"== {name}  seed {seed}  workers {len(records)}"
          f"  ({'traced + untraced' if traced else 'untraced'})")
    if traced:
        traced_recs = [r for r in ok if r["traced"]]
        metrics = {key: {"value": median(traced_recs, lambda r: r["layers"][key]),
                         "unit": unit}
                   for key, unit in LAYER_UNITS.items() if key != "trace.overhead_s"}
        metrics["trace.overhead_s"] = {
            "value": median(traced_recs, lambda r: r["wall_s"])
            - median(plain, lambda r: r["wall_s"]), "unit": "s"}
        wall = median(traced_recs, lambda r: r["wall_s"])
        for key, m in metrics.items():
            share = (f"  {m['value'] / wall:6.1%} of traced wall_s"
                     if m["unit"] == "s" and key.endswith("self_s") else "")
            print(f"{key:30s} {m['value']:>16.6g} {m['unit']}{share}")
    else:
        metrics = {key: {"value": median(plain, lambda r: r[key]), "unit": unit}
                   for key, unit in END_TO_END.items()}
        for key, m in metrics.items():
            values = " ".join(f"{r[key]:.4g}" for r in plain if "error" not in r)
            print(f"{key:18s} {m['value']:12.6g} {m['unit']:6s} median of [{values}]")
    print(f"{'fail_share':18s} {failed / attempted:12.6g} {'share':6s} "
          f"{failed} of {attempted} operations")
    if not traced:
        for key in ok[0]["quality"] if ok else ():
            print(f"{key:18s} {median(ok, lambda r: r['quality'][key]):12.6g} "
                  f"{QUALITY_UNITS[key]}")
    for line in failures:
        print(f"FAILED {line}")
    if ok:
        machine.update(ok[0]["versions"])
    (rundir / "run.json").write_text(json.dumps(
        {"machine": machine, "seed": seed, "seconds": seconds, "metrics": metrics,
         "attempted": attempted, "failed": failed, "failures": failures,
         "workers": records}, indent=1))
    return failed == 0 and len(ok) == len(records), attempted, failed, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "entrosa" / "__init__.py").is_file():
        print(f"no entrosa sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    machine = machine_record()
    env = worker_env(machine["nproc"])
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, a, f, m = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                   machine, env)
        correct, attempted, failed = correct and ok, attempted + a, failed + f
        metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    print("machine " + json.dumps({**machine, "seed": args.seed}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
