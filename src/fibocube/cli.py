"""Command-line front end.

Exit codes: 0 = good / all checks passed, 10 = bad pattern, 2 = usage error
(including cap violations), 1 = internal error or failed verification suite.
Output is deterministic for identical invocations regardless of --workers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import structural
from .words import DEFAULT_DIMENSION_CAP, Word, WordError

# harness, oracle and periodicity are imported by the commands that use them,
# so the string-only commands (classify, index, witness, overlap-graph) start
# without numpy.

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_BAD = 10

CAP_ENV_VAR = "FIBOCUBE_CAP"
# `verify --suite` choices; a test pins them to ("all",) + harness.SUITES.
SUITE_CHOICES = ("all", "cross", "p-values", "index-bound", "doubling", "monotonicity", "lemma21")


class UsageError(Exception):
    pass


def _parse_pattern(text: str) -> Word:
    try:
        return Word.parse(text)
    except WordError as exc:
        raise UsageError(f"bad pattern {text!r}: {exc}") from exc


def _workers(args) -> int:
    workers = (os.cpu_count() or 1) if args.workers is None else args.workers
    if workers < 1:
        raise UsageError("--workers must be at least 1")
    return workers


def _dimension_cap(override: int | None) -> int:
    """Effective dimension cap: explicit override, else env var, else default."""
    if override is not None:
        cap = int(override)
    else:
        env = os.environ.get(CAP_ENV_VAR)
        try:
            cap = int(env) if env else DEFAULT_DIMENSION_CAP
        except ValueError:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None
    if cap < 2:
        raise ValueError(f"dimension cap must be at least 2, got {cap}")
    return cap


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _cmd_classify(args) -> int:
    f = _parse_pattern(args.pattern)
    cls = structural.classify(f)
    witnesses = [structural.witness_to_json_dict(w) for w in cls.witnesses]
    if args.format == "json":
        print(_dumps({
            "pattern": str(f),
            "verdict": cls.verdict,
            "index": cls.index,
            "witnesses": witnesses,
        }))
    elif args.format == "csv":
        print("pattern,verdict,index")
        print(f"{f},{cls.verdict},{'' if cls.index is None else cls.index}")
    else:
        if cls.good:
            print("good")
        else:
            print(f"bad B={cls.index}")
            for w in witnesses:
                print(_dumps(w))
    return EXIT_OK if cls.good else EXIT_BAD


def _cmd_index(args) -> int:
    f = _parse_pattern(args.pattern)
    cls = structural.classify(f)
    if args.format == "json":
        print(_dumps({"pattern": str(f), "verdict": cls.verdict, "index": cls.index}))
    elif args.format == "csv":
        print("pattern,verdict,index")
        print(f"{f},{cls.verdict},{'' if cls.index is None else cls.index}")
    else:
        print("good" if cls.good else cls.index)
    return EXIT_OK if cls.good else EXIT_BAD


def _cmd_witness(args) -> int:
    f = _parse_pattern(args.pattern)
    cls = structural.classify(f)
    witnesses = [structural.witness_to_json_dict(w) for w in cls.witnesses]
    if args.format == "json":
        print(_dumps(witnesses))
    else:
        for w in witnesses:
            print(_dumps(w))
    return EXIT_OK if cls.good else EXIT_BAD


def _cmd_census(args) -> int:
    from . import harness

    cap = _dimension_cap(args.cap)
    row = harness.census(
        args.length, workers=_workers(args), oracle_confirm=args.oracle_confirm, cap=cap
    )
    if args.format == "json":
        print(_dumps(row.to_json_dict()))
    elif args.format == "csv":
        sys.stdout.write(harness.census_csv([row]))
    else:
        d = row.to_json_dict()
        print(
            f"length={d['length']} total={d['total']} good={d['good_count']} "
            f"bad={d['bad_count']} good_fraction={d['good_fraction']:.6f} "
            f"index_histogram={_dumps(d['index_histogram'])} "
            f"p_histogram={_dumps(d['p_histogram'])}"
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import harness

    cap = _dimension_cap(args.cap)
    reports = harness.run_suites(args.suite, args.max_len, workers=_workers(args), cap=cap)
    for r in reports:
        if args.format == "json":
            print(_dumps(r.to_json_dict()))
        else:
            status = "PASS" if r.passed else "FAIL"
            line = f"{status} {r.name} checked={r.checked} [{r.swept}]"
            if not r.passed:
                line += f" counterexample={_dumps(r.counterexample)}"
            print(line)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_INTERNAL


def _cmd_graph(args) -> int:
    from . import oracle

    cap = _dimension_cap(args.cap)
    f = _parse_pattern(args.pattern)
    g = oracle.build_graph(f, args.dim, cap=cap)
    if args.format == "json":
        print(_dumps(oracle.graph_to_json_dict(g)))
    else:
        sys.stdout.write(oracle.graph_to_dot(g))
    return EXIT_OK


def _cmd_overlap_graph(args) -> int:
    from .periodicity import build_overlap_graph

    graph = build_overlap_graph(args.r, args.s)
    sys.stdout.write(graph.to_dot())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibocube",
        description="Classify forbidden binary factors, compute indices and "
        "certificates, run verification sweeps, export graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json", "csv"), cap=False, workers=False):
        p.add_argument("--format", choices=formats, default=formats[0])
        if cap:
            p.add_argument("--cap", type=int, default=None,
                           help=f"dimension cap (default {DEFAULT_DIMENSION_CAP}, "
                                f"env {CAP_ENV_VAR})")
        if workers:
            p.add_argument("--workers", type=int, default=None,
                           help="worker processes, at most the cpu count (default: cpu count)")

    p = sub.add_parser("classify", help="good/bad verdict with index and witnesses")
    p.add_argument("pattern")
    add_common(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("index", help="print the index, or 'good'")
    p.add_argument("pattern")
    add_common(p)
    p.set_defaults(handler=_cmd_index)

    p = sub.add_parser("witness", help="minimal-dimension witnesses as JSON")
    p.add_argument("pattern")
    add_common(p, formats=("text", "json"))
    p.set_defaults(handler=_cmd_witness, format="json")

    p = sub.add_parser("census", help="classify every pattern of one length")
    p.add_argument("length", type=int)
    p.add_argument("--oracle-confirm", action="store_true",
                   help="also confirm each verdict by brute force (length <= 9)")
    add_common(p, cap=True, workers=True)
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("verify", help="run verification sweeps")
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--suite", choices=SUITE_CHOICES, default="all")
    add_common(p, formats=("text", "json"), cap=True, workers=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("graph", help="export an avoidance graph")
    p.add_argument("pattern")
    p.add_argument("--dim", type=int, required=True)
    add_common(p, formats=("dot", "json"), cap=True)
    p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("overlap-graph", help="export an overlap graph as DOT")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--format", choices=("dot",), default="dot")
    p.set_defaults(handler=_cmd_overlap_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (WordError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
