"""Command-line experiment runner.

Subcommands: ``run`` (single model, chosen estimators), ``metastudy``
(ranking-agreement over random functions), ``convergence`` (sample ladders),
and ``tables`` (named study presets). Reports are written atomically as CSV
or JSON; relative output paths honor $ENTROSA_OUTPUT_DIR.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 sparse-grid abort.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .errors import ConfigurationError, NumericalError, SparseGridError
from .report import METHODS, RunConfig, _parse_count, _parse_model_param, load_config_file
from .studies import TABLE_PRESETS, convergence, metastudy, run_from_config, run_table_preset

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SPARSE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="entrosa",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run estimators for one model")
    run.add_argument("--config", help="key = value config file; flags override")
    run.add_argument("--model", help="builtin model name")
    run.add_argument("--metafunction-seed", type=int, default=None,
                     help="draw the model from the metafunction generator")
    run.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                     help="model parameter, e.g. r=2 or a=1,2,3")
    run.add_argument("--methods", default=None,
                     help=f"comma list from {{{','.join(METHODS)}}}")
    run.add_argument("--n", dest="n_samples", default=None,
                     help="sample count for entropy/kl/groups (accepts 1e6)")
    run.add_argument("--n-base", default=None,
                     help="base sample count for pick-and-freeze variance")
    run.add_argument("--n-deriv", default=None,
                     help="sample count for derivative measures")
    run.add_argument("--reps", default=None, help="entropy repetitions")
    run.add_argument("--bins-output", default=None)
    run.add_argument("--bins-cond", default=None)
    run.add_argument("--fd-step", type=float, default=None)
    run.add_argument("--groups", default=None, help="1-based groups, e.g. 1-3,4-6,7-9")
    run.add_argument("--fix", default=None,
                     help="pin variables, 1-based index:value pairs, e.g. 4:55,6:55.5")
    run.add_argument("--override-input", action="append", default=[],
                     metavar="I=KIND(...)",
                     help="replace input law i, e.g. 2=TruncatedGaussian(30,64,15,inf)")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--output", default=None)
    run.add_argument("--format", choices=("csv", "json"), default=None)

    meta = sub.add_parser("metastudy", help="ranking agreement over random functions")
    meta.add_argument("--n-functions", required=True)
    meta.add_argument("--n", dest="n_samples", default=1_000_000)
    meta.add_argument("--n-deriv", default=1000)
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
    if args.config:
        base = load_config_file(args.config).to_mapping()
    else:
        base = {}
    overrides = {
        "model": args.model, "metafunction_seed": args.metafunction_seed,
        "methods": args.methods, "n_samples": args.n_samples,
        "n_base": args.n_base, "n_deriv": args.n_deriv,
        "repetitions": args.reps, "bins_output": args.bins_output,
        "bins_cond": args.bins_cond, "fd_step": args.fd_step,
        "groups": args.groups, "fix": args.fix, "seed": args.seed,
        "output": args.output, "format": args.format,
    }
    for key, value in overrides.items():
        if value is not None:
            base[key] = value
    if args.override_input:
        pairs = list(base.get("input_overrides") or [])
        for item in args.override_input:
            idx, sep, text = item.partition("=")
            if not sep or not idx.strip().isdecimal():
                raise ConfigurationError(f"bad --override-input {item!r}, expected I=KIND(...)")
            pairs.append((int(idx), text))
        base["input_overrides"] = pairs
    params = dict(base.get("model_params") or {})
    for item in args.param:
        key, _, value = item.partition("=")
        if not _ or not key:
            raise ConfigurationError(f"bad --param {item!r}, expected KEY=VALUE")
        params[key] = _parse_model_param(value)
    if params:
        base["model_params"] = params
    return RunConfig.from_mapping(base)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "run":
            config = _run_config_from_args(args)
            report = run_from_config(config)
            if config.output:
                print(f"report written: {config.output}")
            else:
                print(report.to_json())
        elif args.command == "metastudy":
            result = metastudy(_parse_count(args.n_functions, "n_functions"),
                               _parse_count(args.n_samples, "n_samples"), args.seed,
                               output=args.output,
                               n_deriv=_parse_count(args.n_deriv, "n_deriv"))
            print(f"metastudy written: {args.output}")
            for family, vals in result["summary"]["agreement"].items():
                print(f"  {family}: " + " ".join(f"{k}={v:.3f}" for k, v in vals.items()))
        elif args.command == "convergence":
            ladder = [_parse_count(v, "ladder") for v in args.ladder.split(",")]
            convergence(args.model, args.method, ladder,
                        _parse_count(args.reps, "reps"), args.seed,
                        output=args.output)
            print(f"convergence table written: {args.output}")
        elif args.command == "tables":
            paths = run_table_preset(args.name, args.outdir, seed=args.seed,
                                     scale=args.scale)
            for p in paths:
                print(f"written: {p}")
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
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
