"""Command-line interface.

Subcommands: summarize (run one algorithm on one tree file), metrics
(score an explicit summary), viz (Graphviz export), reduce (write the
reduced tree), gen (write a synthetic tree), bench (timing sweep to CSV).

Exit codes: 0 success, 2 usage error (bad flags, bad k), 3 data error
(unreadable or invalid input), 4 resource cap hit (enumeration too large).

Note on --reduce: the greedy algorithm run on a reduced tree may pick a
different set than on the original (the exact algorithm never does), but
its approximation guarantee is unchanged because the optimum is identical.
"""
from __future__ import annotations

import argparse
import csv
import glob
import itertools
import json
import sys
import time

from .baselines import agg_topk, brute_force, cagg_topk, feq_topk
from .datasets import GenSpec, gen_random_tree, parse_tree_tsv, replacing_file, write_tree_tsv
from .errors import (
    AlreadySelected,
    EnumerationTooLarge,
    InvalidK,
    InvalidSpec,
    TreesumError,
)
from .greedy import gts
from .metrics import compute_metrics
from .optimal import ots
from .reduction import lift_result, vtree
from .result import SummaryResult
from .tree import EulerLcaIndex
from .viz import summary_dot

REDUCIBLE = ("gts", "ots")

# every summarizer the CLI runs, by name, called as (tree, k, theta); only
# cagg reads theta
_SUMMARIZERS = {
    "gts": lambda tree, k, theta: gts(tree, k),
    "ots": lambda tree, k, theta: ots(tree, k),
    "feq": lambda tree, k, theta: feq_topk(tree, k),
    "agg": lambda tree, k, theta: agg_topk(tree, k),
    "cagg": cagg_topk,
    "brute": lambda tree, k, theta: brute_force(tree, k),
}


class _CliUsageError(Exception):
    pass


_USAGE_ERRORS = (_CliUsageError, InvalidK, InvalidSpec, AlreadySelected)


def _run_algorithm(tree, algo: str, k: int, theta: float, reduced: bool, index=None) -> SummaryResult:
    """Run ``algo``, on the reduced tree when ``reduced``; ``vtree`` uses
    ``index``, the tree's LCA index, or builds one when it is None."""
    summarize = _SUMMARIZERS[algo]
    if not reduced:
        return summarize(tree, k, theta)
    rt = vtree(tree, index)
    if k > rt.tree.n:
        raise InvalidK(
            f"k={k} exceeds the reduced tree size {rt.tree.n}; "
            "rerun with --no-reduce to select among all nodes"
        )
    return lift_result(rt, summarize(rt.tree, k, theta))


def _metrics_dict(report) -> dict:
    return {"cd": report.cd, "ald": report.ald, "wc": report.wc}


def _check_theta(theta: float):
    """A usage error unless ``--theta`` is in 0..1 (nan is not)."""
    if not 0.0 <= theta <= 1.0:
        raise _CliUsageError(f"--theta takes a number in 0..1, got {theta}")


def _cmd_summarize(args) -> int:
    _check_theta(args.theta)
    tree = parse_tree_tsv(args.input)
    reduced = args.reduce
    if reduced is None:
        reduced = args.algo in REDUCIBLE
    elif reduced and args.algo not in REDUCIBLE:
        raise _CliUsageError(f"--reduce applies to {' and '.join(REDUCIBLE)} only")

    start = time.perf_counter()
    # one LCA index, and its closure of the weighted nodes, serves both the
    # reduction and the closeness distance; an unreduced run's summary is
    # closed by compute_metrics alone
    index = EulerLcaIndex(tree) if reduced else None
    result = _run_algorithm(tree, args.algo, args.k, args.theta, reduced, index)
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    ids = result.selected_ids(tree)
    score = result.score
    report = {
        "input": args.input,
        "algorithm": args.algo,
        "k": args.k,
        "reduced": reduced,
        "score": score,
        "selected": ids,
        "time_ms": elapsed_ms,
        "stats": result.stats,
    }
    if args.with_metrics:
        report["metrics"] = _metrics_dict(
            compute_metrics(tree, result.selected, algorithm=args.algo, index=index)
        )
    if args.out:
        text = _strict_json(report, indent=2)
        with replacing_file(args.out) as fh:
            fh.write(text + "\n")
    print(f"score: {score:.10g}")
    print("selected: " + " ".join(ids))
    if result.underfilled:
        print(f"note: only {len(ids)} nodes qualify (requested {args.k})", file=sys.stderr)
    return 0


def _strict_json(payload, **kwargs) -> str:
    """``payload`` as strict JSON, made before any file is opened.  A nan or
    infinite value, such as a metric that overflowed, is a data error."""
    try:
        return json.dumps(payload, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise TreesumError(f"a result is not finite: {exc}") from None


def _parse_summary(tree, text: str):
    if text.endswith(".json"):
        try:
            with open(text, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TreesumError(f"{text}: {exc}") from None
        ids = payload.get("selected") if isinstance(payload, dict) else payload
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise TreesumError(f'{text}: not a list of ids or an object whose "selected" is one')
    else:
        ids = [part for part in text.split(",") if part]
    return tree.indices(ids)


def _cmd_metrics(args) -> int:
    tree = parse_tree_tsv(args.input)
    members = _parse_summary(tree, args.summary)
    report = compute_metrics(tree, members)
    payload = _metrics_dict(report)
    payload["k"] = report.k
    if report.cd is None:
        print("note: closeness distance undefined for an empty summary", file=sys.stderr)
    text = _strict_json(payload)
    print(text)
    if args.out:
        with replacing_file(args.out) as fh:
            fh.write(text + "\n")
    return 0


def _cmd_viz(args) -> int:
    tree = parse_tree_tsv(args.input)
    members = _parse_summary(tree, args.summary)
    dot = summary_dot(tree, members)
    if args.out:
        with replacing_file(args.out) as fh:
            fh.write(dot)
    else:
        sys.stdout.write(dot)
    return 0


def _cmd_reduce(args) -> int:
    tree = parse_tree_tsv(args.input)
    rt = vtree(tree)
    # the tree and its sidecar are read as a pair, so both temporary files
    # are written in full before either replaces its target
    with replacing_file(f"{args.out}.levels") as fh:
        for node_id, level in zip(rt.tree.ids, rt.tree.score_levels.tolist()):
            fh.write(f"{node_id}\t{level}\n")
        fh.flush()
        write_tree_tsv(rt.tree, args.out)
    print(f"original={tree.n} important={len(tree.important)} reduced={rt.tree.n}")
    return 0


def _cmd_gen(args) -> int:
    spec = GenSpec(
        n=args.n,
        important_count=args.important,
        seed=args.seed,
        max_children=args.max_children,
        height_bias=args.height_bias,
        weight_low=args.weight_low,
        weight_high=args.weight_high,
    )
    tree = gen_random_tree(spec)
    write_tree_tsv(tree, args.out)
    print(f"n={tree.n} important={len(tree.important)} height={tree.height}")
    return 0


def _positive_ints(flag: str, text: str) -> list:
    """Comma-separated integers >= 1, at least one, else a usage error."""
    try:
        values = [int(x) for x in text.split(",") if x]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise _CliUsageError(f"{flag} takes comma-separated integers >= 1, got {text!r}")
    return values


def _cmd_bench(args) -> int:
    # every flag is checked before --out is created, so a usage error
    # leaves no file behind
    algos = [a for a in args.algos.split(",") if a]
    if not algos or not set(algos) <= set(_SUMMARIZERS):
        raise _CliUsageError(
            f"--algos takes names from {', '.join(_SUMMARIZERS)}, got {args.algos!r}"
        )
    ks = _positive_ints("--ks", args.ks)
    if args.repeat < 1:
        raise _CliUsageError(f"--repeat takes an integer >= 1, got {args.repeat}")
    _check_theta(args.theta)
    if args.timeout is not None and not args.timeout >= 0.0:
        raise _CliUsageError(f"--timeout takes a number of seconds >= 0, got {args.timeout}")
    paths = sorted(glob.glob(args.inputs))
    if not paths:
        raise FileNotFoundError(f"no inputs match {args.inputs!r}")
    # a failed sweep leaves neither --out nor a partial temporary file
    with replacing_file(args.out, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "algo", "k", "reduced", "score", "time_ms", "repeat"])
        for path in paths:
            try:
                tree = parse_tree_tsv(path)
                for algo, k, rep in itertools.product(algos, ks, range(args.repeat)):
                    reduced = algo in REDUCIBLE
                    start = time.perf_counter()
                    try:
                        result = _run_algorithm(tree, algo, k, args.theta, reduced)
                    except EnumerationTooLarge:
                        writer.writerow([path, algo, k, reduced, "", "inf", rep])
                        continue
                    elapsed = time.perf_counter() - start
                    timed_out = args.timeout is not None and elapsed > args.timeout
                    time_ms = "inf" if timed_out else f"{elapsed * 1000.0:.3f}"
                    writer.writerow([path, algo, k, reduced, repr(result.score), time_ms, rep])
            except TreesumError as exc:
                # the same exception, so the same exit code, naming the input
                exc.args = (f"{path}: {exc}",)
                raise
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treesum",
        description="Top-k summarization of weighted hierarchies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="run a summarizer on a tree file")
    p.add_argument("input")
    p.add_argument("--algo", required=True, choices=list(_SUMMARIZERS))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta", type=float, default=0.4, help="cagg contribution threshold")
    p.add_argument(
        "--reduce",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="run gts/ots on the reduced tree (default: on for gts/ots)",
    )
    p.add_argument("--with-metrics", action="store_true")
    p.add_argument("--out", help="write a JSON run report here")
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("metrics", help="quality metrics of an explicit summary")
    p.add_argument("input")
    p.add_argument("--summary", required=True, help="comma-separated ids or a run-report .json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("viz", help="Graphviz DOT export of a summary")
    p.add_argument("input")
    p.add_argument("--summary", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_viz)

    p = sub.add_parser("reduce", help="write the reduced tree and its level sidecar")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("gen", help="write a deterministic synthetic tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--important", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-children", type=int, default=8)
    p.add_argument("--height-bias", type=float, default=0.05)
    p.add_argument("--weight-low", type=int, default=1)
    p.add_argument("--weight-high", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="timing sweep over datasets x algorithms x k")
    p.add_argument("--inputs", required=True, help="glob of tree files")
    p.add_argument("--algos", required=True, help="comma-separated algorithm names")
    p.add_argument("--ks", required=True, help="comma-separated k values")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--theta", type=float, default=0.4)
    p.add_argument("--timeout", type=float, default=None, help="seconds; slower runs are marked inf")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (TreesumError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
