"""Command-line experiment runner.

Subcommands: ``run`` (single model, chosen estimators), ``metastudy``
(ranking-agreement over random functions), ``convergence`` (sample ladders),
and ``tables`` (named study presets). A report is written atomically, as CSV
to a ``.csv`` path and as JSON to any other; relative output paths land in
$ENTROSA_OUTPUT_DIR when it is set.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 sparse-grid abort.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

from .errors import ConfigurationError, NumericalError, SparseGridError
from .report import METHODS, RunConfig, _coerce, _parse_count, _read_config_file
from .studies import TABLE_PRESETS, convergence, metastudy, run_from_config, run_table_preset

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SPARSE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="entrosa",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    # each run flag's dest is the RunConfig field it sets
    run = sub.add_parser("run", help="run estimators for one model")
    run.add_argument("--config", help="key = value config file; flags override")
    run.add_argument("--model", help="builtin model name")
    run.add_argument("--metafunction-seed",
                     help="draw the model from the metafunction generator")
    run.add_argument("--param", dest="model_params", action="append", metavar="KEY=VALUE",
                     help="model parameter, e.g. r=2 or a=1,2,3")
    run.add_argument("--methods", help=f"comma list from {{{','.join(METHODS)}}}")
    run.add_argument("--n", dest="n_samples",
                     help="sample count for entropy/kl/groups (accepts 1e6)")
    run.add_argument("--n-base", help="base sample count for pick-and-freeze variance")
    run.add_argument("--n-deriv", help="sample count for derivative measures")
    run.add_argument("--reps", dest="repetitions", help="entropy repetitions")
    run.add_argument("--bins-output")
    run.add_argument("--bins-cond")
    run.add_argument("--fd-step")
    run.add_argument("--groups", help="1-based groups, e.g. 1-3,4-6,7-9")
    run.add_argument("--fix",
                     help="pin variables, 1-based index:value pairs, e.g. 4:55,6:55.5")
    run.add_argument("--override-input", dest="input_overrides", action="append",
                     metavar="I=KIND(...)",
                     help="replace input law i, e.g. 2=TruncatedGaussian(30,64,15,inf)")
    run.add_argument("--seed")
    run.add_argument("--output", help="report path; a .csv path gets CSV, any other JSON")

    meta = sub.add_parser("metastudy", help="ranking agreement over random functions")
    meta.add_argument("--n-functions", required=True)
    meta.add_argument("--n", dest="n_samples", default=1_000_000)
    meta.add_argument("--n-deriv", default=RunConfig.n_deriv)
    meta.add_argument("--seed", type=int, required=True)
    meta.add_argument("--output", required=True)

    conv = sub.add_parser("convergence", help="estimates along a sample ladder")
    conv.add_argument("--model", required=True)
    conv.add_argument("--method", choices=("entropy", "deriv"), default="entropy")
    conv.add_argument("--ladder", required=True,
                      help="ascending comma list of sample counts, e.g. 1e3,1e4,1e5")
    conv.add_argument("--reps", default=3)
    conv.add_argument("--seed", type=int, default=0)
    conv.add_argument("--output", required=True)

    tables = sub.add_parser("tables", help="named study presets")
    tables.add_argument("name", choices=sorted(TABLE_PRESETS))
    tables.add_argument("--outdir", required=True)
    tables.add_argument("--seed", type=int, default=0)
    tables.add_argument("--scale", type=float, default=1.0,
                        help="shrink preset sample counts for quick runs")
    return parser


def _run_config_from_args(args) -> RunConfig:
    """The config file's values, replaced by the flags given; --param and
    --override-input add to the file's entries."""
    data = _read_config_file(args.config) if args.config else {}
    for f in fields(RunConfig):
        value = getattr(args, f.name)
        if isinstance(value, list):
            data[f.name] = data.get(f.name, []) + value
        elif value is not None:
            data[f.name] = value
    return RunConfig.from_mapping(data)


def _output_path(path: str, is_dir: bool = False) -> Path:
    """``path`` under $ENTROSA_OUTPUT_DIR when it is relative and the variable
    is set. This creates nothing: the writer creates missing directories.
    But the nearest existing ancestor of the output's directory must be a
    writable directory, and a file's path must not name an existing
    directory, so that a path that cannot hold the output fails before the
    computation rather than after it."""
    path = Path(os.environ.get("ENTROSA_OUTPUT_DIR", ""), path)
    if not is_dir and path.is_dir():
        raise OSError(f"{path} is a directory, not a file")
    existing = path if is_dir else path.parent
    while not existing.exists() and existing != existing.parent:
        existing = existing.parent
    if not existing.is_dir() or not os.access(existing, os.W_OK | os.X_OK):
        raise OSError(f"{existing} is not a writable directory, so {path} cannot be written")
    return path


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    # the exit codes already report non-finite values; this filter is
    # process-wide, so unlike np.errstate it holds on the pool's threads too
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            if args.command == "run":
                config = _run_config_from_args(args)
                if config.output:
                    config = replace(config, output=str(_output_path(config.output)))
                report = run_from_config(config)
                print(f"report written: {config.output}" if config.output else report.to_json())
            elif args.command == "metastudy":
                output = _output_path(args.output)
                result = metastudy(_coerce("n_functions", _parse_count, args.n_functions),
                                   _coerce("n_samples", _parse_count, args.n_samples), args.seed,
                                   output=output,
                                   n_deriv=_coerce("n_deriv", _parse_count, args.n_deriv))
                print(f"metastudy written: {output}")
                for family, vals in result["summary"]["agreement"].items():
                    print(f"  {family}: " + " ".join(f"{k}={v:.3f}" for k, v in vals.items()))
            elif args.command == "convergence":
                output = _output_path(args.output)
                ladder = [_coerce("ladder", _parse_count, v) for v in args.ladder.split(",")]
                convergence(args.model, args.method, ladder,
                            _coerce("reps", _parse_count, args.reps), args.seed,
                            output=output)
                print(f"convergence table written: {output}")
            elif args.command == "tables":
                paths = run_table_preset(args.name, _output_path(args.outdir, is_dir=True),
                                         seed=args.seed, scale=args.scale)
                for p in paths:
                    print(f"written: {p}")
        except ConfigurationError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print(f"cannot write output: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except SparseGridError as exc:
            print(f"sparse-grid abort: {exc}", file=sys.stderr)
            return EXIT_SPARSE
        except NumericalError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        return 0


if __name__ == "__main__":
    sys.exit(main())
