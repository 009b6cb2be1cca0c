"""Run one workload body in a fresh process and write its record as JSON.

usage: worker.py <workload> <seed> <traced 0|1> <record.json>

The process times set-up (importing entrosa and building the models) and
the body separately, checks the outputs, and reports its own peak RSS, so
each figure belongs to this one workload. Output files go to ``out/`` under
the working directory the launcher gives it. A traced worker installs the
timing wrappers after set-up and writes its spans to ``spans.json``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str]) -> int:
    name, seed, traced, record_path = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    from workloads import WORKLOADS
    workload = WORKLOADS[name]()
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import entrosa
    workload.setup()
    setup_s = time.perf_counter() - t0
    if Path(entrosa.__file__).resolve().parent != SRC / "entrosa":
        print(f"imported entrosa from {entrosa.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    t1 = time.perf_counter()
    result = workload.body(seed)
    wall_s = time.perf_counter() - t1

    checks, quality, digest = workload.check(result)
    import numpy
    import scipy
    record = {
        "workload": name, "seed": seed, "traced": traced,
        "setup_s": setup_s, "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks, "quality": quality, "digest": digest,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer:
        from tracing import layer_metrics
        record["layers"] = layer_metrics(tracer.spans)
        Path("spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "task", "counts"],
             "spans": tracer.spans}))
    record_path.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
