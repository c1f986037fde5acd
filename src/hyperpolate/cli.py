"""Command-line front end: classify, search, bench.

Exit codes: 0 success, 2 input error, 3 unsupported geometry, 4 unknown
case.  Query classifications stream as JSON lines; search candidates and
benchmark reports are single JSON documents; grid dumps are CSV.
"""

import argparse
import dataclasses
import json
import os
import sys

from . import benchmark
from .errors import (
    HyperpolateError,
    InvalidInputError,
    UnknownCaseError,
    UnsupportedGeometryError,
)
from .expressions import Grammar
from .geometry import HYPERPOLATION, INTERPOLATION, Tolerances, classify, hyperpolation_distance
from .io import (
    atomic_write_text,
    read_dataset_csv,
    read_queries_csv,
    write_grid_csv,
    write_json,
)
from .symbolic import candidate_to_dict, search_hyperpolation, tie_sets

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GEOMETRY = 3
EXIT_UNKNOWN_CASE = 4


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--tol-hull", type=float, dest="tol_hull")
    parser.add_argument("--tol-subspace", type=float, dest="tol_subspace")
    parser.add_argument("--tol-point", type=float, dest="tol_point")
    parser.add_argument("--sigma", type=float, help="dataset noise level")


def _add_search_flags(parser):
    parser.add_argument("--grammar-depth", type=int, dest="grammar_depth")
    parser.add_argument("--max-nodes", type=int, dest="max_nodes")
    parser.add_argument("--budget", type=int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperpolate",
        description="Classify generalisation queries and hyperpolate datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="tag query points by regime")
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset CSV (x1,...,xn,f)")
    p.add_argument("--queries", required=True, help="query CSV (x1,...,xn)")
    p.add_argument("--out", help="write JSON lines here instead of stdout")

    p = sub.add_parser("search", help="rank hyperpolation candidates")
    _add_common(p)
    _add_search_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--top", type=int, help="truncate after this many candidates, keeping tie sets whole")
    p.add_argument("--out", help="write candidates JSON here instead of stdout")

    p = sub.add_parser("bench", help="run benchmark cases and write reports")
    _add_common(p)
    _add_search_flags(p)
    p.add_argument("case", help="built-in case name, 'all', or a case-spec JSON file")
    p.add_argument("--methods", help="comma-separated (default extrusion,nn_ambient,symbolic)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory for report/grid files (default .)")
    return parser


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value):
    return isinstance(value, str)


# JSON values each argparse flag type accepts from a config file
_CONFIG_VALUE_CHECKS = {float: _is_number, int: _is_int, str: _is_str}


def _config_options(parser, command):
    """Flags of ``command`` that a config file may set: dest -> argparse type."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        action.dest: action.type or str
        for action in commands.choices[command]._actions
        if action.option_strings and action.dest not in ("help", "config")
    }


def _merge_config(args, options):
    """Fill unset flags from the ``--config`` JSON object.

    Keys are the subcommand's flag names (``tol-hull`` or ``tol_hull``) and
    each value must match the flag's type; anything else is an input error.
    """
    if not getattr(args, "config", None):
        return args
    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise InvalidInputError(f"config {args.config}: expected a JSON object")
    for key, value in config.items():
        attr = key.replace("-", "_")
        if attr not in options:
            raise InvalidInputError(
                f"config {args.config}: {key!r} is not an option of {args.command}"
            )
        kind = options[attr]
        if not _CONFIG_VALUE_CHECKS[kind](value):
            raise InvalidInputError(
                f"config {args.config}: {key!r} must be {kind.__name__}, got {value!r}"
            )
        if getattr(args, attr, None) is None:
            setattr(args, attr, kind(value))
    return args


def _tolerances(args):
    given = dict(point_tol=args.tol_point, hull_tol=args.tol_hull, subspace_tol=args.tol_subspace)
    return Tolerances(**{k: v for k, v in given.items() if v is not None})


def _grammar(args):
    kwargs = {}
    if getattr(args, "max_nodes", None) is not None:
        kwargs["max_nodes"] = args.max_nodes
    if getattr(args, "grammar_depth", None) is not None:
        kwargs["max_depth"] = args.grammar_depth
    return Grammar(**kwargs)


def _emit(text, out_path):
    if out_path:
        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def cmd_classify(args):
    data = read_dataset_csv(args.data, noise_sigma=args.sigma or 0.0)
    queries = read_queries_csv(args.queries)
    tols = _tolerances(args)
    regimes = classify(queries, data, tols=tols)
    dists = hyperpolation_distance(queries, data, tol=tols.subspace_tol)
    lines = []
    for q, regime, dist in zip(queries, regimes, dists):
        record = {
            "point": [float(v) for v in q],
            "regime": regime.tag,
            "distance": float(dist),
        }
        if regime.tag == INTERPOLATION and regime.weights is not None:
            record["witness"] = [float(w) for w in regime.weights]
        if regime.tag == HYPERPOLATION:
            record["witness"] = regime.residual
        lines.append(json.dumps(record, sort_keys=True))
    _emit("".join(line + "\n" for line in lines), args.out)
    return EXIT_OK


def _truncate_keeping_ties(candidates, top):
    if top is None or top >= len(candidates):
        return candidates
    groups = tie_sets(candidates)
    kept = []
    for group in groups:
        if len(kept) >= top:
            break
        kept.extend(group)  # a tie set is never split
    return kept


def cmd_search(args):
    data = read_dataset_csv(args.data, noise_sigma=args.sigma or 0.0)
    candidates = search_hyperpolation(
        data, grammar=_grammar(args), budget=args.budget
    )
    candidates = _truncate_keeping_ties(candidates, args.top)
    payload = [candidate_to_dict(c) for c in candidates]
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _is_pair(value):
    return isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))


# field -> (check, expected form) for the JSON values of a case spec
_CASE_SPEC_CHECKS = {
    "name": (_is_str, "a string"),
    "truth": (_is_str, "a string"),
    "slice_base": (_is_pair, "a list of 2 numbers"),
    "slice_direction": (_is_pair, "a list of 2 numbers"),
    "sample_params": (
        lambda v: isinstance(v, list) and all(map(_is_number, v)),
        "a list of numbers",
    ),
    "noise_sigma": (_is_number, "a number"),
    "seed": (_is_int, "an integer"),
    "grid_ranges": (
        lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_pair, v)),
        "a list of 2 [lo, hi] pairs",
    ),
    "grid_step": (_is_number, "a number"),
}


def _load_case_spec(path):
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise InvalidInputError(f"case spec {path}: expected a JSON object")
    for key, (check, form) in _CASE_SPEC_CHECKS.items():
        if key in raw and not check(raw[key]):
            raise InvalidInputError(
                f"case spec {path}: {key!r} must be {form}, got {raw[key]!r}"
            )
    for field in dataclasses.fields(benchmark.BenchmarkCase):
        if field.default is dataclasses.MISSING and field.name not in raw:
            raise UnknownCaseError(f"case spec missing field {field.name!r}")
    # absent fields keep BenchmarkCase's defaults; JSON lists become tuples
    return benchmark.BenchmarkCase(
        **{key: _as_tuple(raw[key]) for key in _CASE_SPEC_CHECKS if key in raw}
    )


def _as_tuple(value):
    return tuple(map(_as_tuple, value)) if isinstance(value, list) else value


def cmd_bench(args):
    if args.case == "all":
        names = sorted(benchmark.BUILTIN_CASES)
    elif args.case in benchmark.BUILTIN_CASES:
        names = [args.case]
    elif os.path.exists(args.case):
        names = [_load_case_spec(args.case)]
    else:
        raise UnknownCaseError(f"unknown case {args.case!r}")
    # defaults applied after the --config merge, so that a config can set them
    methods = "extrusion,nn_ambient,symbolic" if args.methods is None else args.methods
    methods = [m.strip() for m in methods.split(",") if m.strip()]
    out = "." if args.out is None else args.out
    grammar = _grammar(args)
    tols = _tolerances(args)
    os.makedirs(out, exist_ok=True)
    for spec in names:
        case = benchmark.BUILTIN_CASES[spec] if isinstance(spec, str) else spec
        if args.seed is not None:
            case = dataclasses.replace(case, seed=args.seed)
        if args.sigma is not None:
            case = dataclasses.replace(case, noise_sigma=args.sigma)
        report, predictions, truth, queries = benchmark.evaluate_methods(
            methods, case, grammar=grammar, budget=args.budget, tols=tols
        )
        write_json(os.path.join(out, f"report_{case.name}.json"), report.to_dict())
        write_grid_csv(
            os.path.join(out, f"grid_{case.name}.csv"),
            queries,
            truth,
            predictions,
        )
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, _config_options(parser, args.command))
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "search":
            return cmd_search(args)
        return cmd_bench(args)
    except UnsupportedGeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except UnknownCaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_CASE
    except (HyperpolateError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
