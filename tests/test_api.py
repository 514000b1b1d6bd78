import ast
import json
import pathlib

import treesum
from treesum import (
    GenSpec,
    OtsSolver,
    agg_topk,
    brute_force,
    cagg_topk,
    compute_metrics,
    feq_topk,
    g_score,
    gen_random_tree,
    gts,
    lift_result,
    ots,
    rep,
    smy,
    vtree,
)
from treesum.optimal import DpKey
from treesum.scoring import cor

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

PUBLIC = [
    "GenSpec",
    "Splitmix64",
    "WeightedTree",
    "EulerLcaIndex",
    "SummaryResult",
    "MetricsReport",
    "ReducedTree",
    "OtsSolver",
    "build_tree",
    "rep",
    "smy",
    "g_score",
    "marginal_gain_fast",
    "marginal_gain_naive",
    "gts",
    "ots",
    "vtree",
    "lift_result",
    "feq_topk",
    "agg_topk",
    "cagg_topk",
    "brute_force",
    "closeness_distance",
    "avg_level_difference",
    "weighted_coverage",
    "compute_metrics",
    "parse_tree_tsv",
    "write_tree_tsv",
    "gen_random_tree",
    "summary_dot",
    "errors",
]


def _treesum_imports(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "treesum":
            names.update(alias.name for alias in node.names)
    return names


def test_public_names_are_pinned():
    assert treesum.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(treesum, name), name
    # module-level helpers that only tests used are no longer exported
    for name in ("preorder", "ancestors", "lca", "cor", "DpKey", "DpEntry"):
        assert not hasattr(treesum, name), name


def test_benchmark_imports_are_exported():
    for script in ("harness.py", "smoke.py", "gen_input.py"):
        names = _treesum_imports(PERFBENCH / script)
        assert names, script
        assert names <= set(treesum.__all__), (script, names - set(treesum.__all__))


def _assert_plain_result(res):
    assert all(type(v) is int for v in res.selected), res
    assert type(res.score) is float, res
    assert all(type(v) is int and type(gain) is float for v, gain in res.trace), res
    assert all(type(v) in (int, float) for v in res.stats.values()), res.stats
    json.dumps(list(res.selected))
    json.dumps(res.stats, allow_nan=False)


def test_public_results_are_python_scalars(ontology):
    k = 3
    generated = vtree(gen_random_tree(GenSpec(n=300, important_count=6, seed=5)))
    for reduced in (vtree(ontology), generated):
        trees = [reduced.tree] if reduced is generated else [ontology, reduced.tree]
        for t in trees:
            for summarize in (gts, ots, feq_topk, agg_topk, cagg_topk, brute_force):
                _assert_plain_result(summarize(t, k))
            x, y = t.root, t.important_pre[-1]
            for value in (g_score(t, [x]), smy(t, [x], y), rep(t, x, y), cor(t, x, y)):
                assert type(value) is float
            assert type(t.is_ancestor(x, y)) is bool
            solver = OtsSolver(t, k)
            assert type(solver.optimum()) is float
            entry = solver.dp_eval(DpKey(x, k))
            assert type(entry.value) is float and all(type(b) is int for b in entry.split)
            assert type(solver.yes_case(DpKey(x, k))) is float
            assert type(solver.no_case(DpKey(x, k))) is float
            value, split = solver.knapsack_combine(t.children[x], k, None)
            assert type(value) is float and all(type(b) is int for b in split)
        for summarize in (gts, ots):
            res = summarize(reduced.tree, k)
            lifted = lift_result(reduced, res)
            _assert_plain_result(lifted)
            assert lifted.stats == res.stats and lifted.stats
            report = compute_metrics(reduced.original, lifted.selected)
            assert all(type(v) is float for v in (report.cd, report.ald, report.wc)), report
            assert type(report.k) is int
