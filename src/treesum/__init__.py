"""treesum: top-k summarization of weighted hierarchies.

Selects k representative nodes of a rooted tree with non-negative node
weights so that every weighted node is covered by a nearby selected
ancestor.  Ships a fast greedy solver with a (1 - 1/e) guarantee, an exact
dynamic-programming solver, a lossless tree reduction that shrinks the
search to the weighted nodes and their pairwise ancestors, ranking
baselines, quality metrics, and a deterministic synthetic-tree generator.
"""

from .baselines import agg_topk, brute_force, cagg_topk, feq_topk
from .datasets import GenSpec, Splitmix64, gen_random_tree, parse_tree_tsv, write_tree_tsv
from .greedy import gts
from .metrics import (
    MetricsReport,
    avg_level_difference,
    closeness_distance,
    compute_metrics,
    weighted_coverage,
)
from .optimal import OtsSolver, ots
from .reduction import ReducedTree, lift_result, vtree
from .result import SummaryResult
from .scoring import g_score, marginal_gain_fast, marginal_gain_naive, rep, smy
from .tree import EulerLcaIndex, WeightedTree, build_tree
from .viz import summary_dot
from . import errors

__all__ = [
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

__version__ = "0.1.0"
