import ast
import pathlib

import treesum

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
