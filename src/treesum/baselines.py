"""Comparison selectors: weight ranking, subtree-aggregate ranking, and
exhaustive search.

These are the yardsticks the two real summarizers are measured against.
``brute_force`` maximizes the objective over every k-subset and is the
correctness oracle for the exact solver; the enumeration is evaluated in
numpy batches (subset membership matrix times per-node impact rows).
"""
from __future__ import annotations

from math import comb
from itertools import combinations, islice
from typing import Callable, Optional

import numpy as np

from .errors import EnumerationTooLarge, InvalidK
from .result import SummaryResult
from .scoring import _g_unchecked
from .tree import WeightedTree

# cells of one brute-force batch's (subsets, weighted nodes, nodes) product; a
# batch holds at least one subset, however large the product of one is
_BATCH_CELLS = 4_000_000


def _top_by(
    tree: WeightedTree,
    k: int,
    value: np.ndarray,
    algorithm: str,
    positive: np.ndarray,
    qualifies: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> SummaryResult:
    """The k qualifying nodes of largest value, ties to preorder rank; short
    if too few qualify.

    ``positive`` holds the nodes of positive value, in any order.  Values are
    never negative, and a value of 0 (or -0.0) ranks below any positive one,
    so when at least k positive nodes pass ``qualifies`` (a mask over a node
    array; every node passes when it is None) only those are ranked, and
    otherwise every node of ``tree.pre_order`` that passes it.  Only nodes at
    or above the k-th largest value can place, so those are sorted and the
    rest are not.  ``stats["ranked"]`` counts the nodes ranked.
    """
    candidates = positive if qualifies is None else positive[qualifies(positive)]
    if len(candidates) < k:
        every = tree.pre_order
        candidates = every if qualifies is None else every[qualifies(every)]
    ranked = value[candidates]
    count = len(ranked)
    if count > k:
        cut = count - k
        keep = ranked >= np.partition(ranked, cut)[cut]
        candidates, ranked = candidates[keep], ranked[keep]
    order = np.lexsort((tree.pre_rank[candidates], -ranked))
    selected = candidates[order[:k]].tolist()
    return SummaryResult(
        selected=selected,
        score=_g_unchecked(tree, set(selected)),
        algorithm=algorithm,
        underfilled=len(selected) < k,
        stats={"ranked": count},
    )


def feq_topk(tree: WeightedTree, k: int) -> SummaryResult:
    """The k nodes with the largest weights; ties go to preorder rank."""
    tree.check_k(k)
    return _top_by(tree, k, tree.feq, "feq", tree.important)


def agg_topk(tree: WeightedTree, k: int) -> SummaryResult:
    """The k nodes with the largest aggregate (subtree) weights; ties go to
    preorder rank.  Only the nodes of positive aggregate are ranked when at
    least k exist, and every node otherwise."""
    tree.check_k(k)
    af = tree.subtree_weight
    return _top_by(tree, k, af, "agg", np.flatnonzero(af > 0))


def cagg_topk(tree: WeightedTree, k: int, theta: float = 0.4) -> SummaryResult:
    """Aggregate-weight ranking restricted to nodes that contribute at least
    ``theta`` of their parent's aggregate weight.

    The root always qualifies (its ratio is taken as 1, as is a child of a
    weightless subtree).  The filter runs before the top-k cut; when fewer
    than k nodes qualify the result is returned short and flagged.  A node of
    aggregate 0 can qualify but never places above k positive ones, so the
    ratios of every node are taken only when fewer than k positive ones
    qualify.
    """
    tree.check_k(k)
    if not 0.0 <= theta <= 1.0:
        raise InvalidK(f"theta={theta} outside 0..1")
    af = tree.subtree_weight
    positive = np.flatnonzero(af > 0)
    return _top_by(tree, k, af, "cagg", positive, lambda nodes: _ratio(tree, af, nodes) >= theta)


def _ratio(tree: WeightedTree, af: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Each node's share of its parent's aggregate; 1 for the root and under a
    parent of aggregate 0."""
    parent = tree.parent[nodes]
    up = af[np.maximum(parent, 0)]
    ratio = np.ones(len(nodes))
    np.divide(af[nodes], up, out=ratio, where=(parent >= 0) & (up != 0))
    return ratio


def brute_force(
    tree: WeightedTree,
    k: int,
    subset_cap: int = 10**8,
) -> SummaryResult:
    """Exhaustive maximum of the objective over all k-subsets.

    Subsets are enumerated in lexicographic preorder-rank order and the
    first maximum wins, so ties resolve to the lexicographically smallest
    preorder index vector.  Refuses instances above ``subset_cap`` subsets.
    Each batch scores as many subsets as fit ``_BATCH_CELLS`` cells of
    |weighted| * n each, and at least one.
    """
    tree.check_k(k)
    n = tree.n
    total = comb(n, k)
    if total > subset_cap:
        raise EnumerationTooLarge(f"C({n},{k}) = {total} exceeds cap {subset_cap}")

    m = len(tree.important_rank)
    cols = tree.pre_order
    # impact[i, p]: what the node at preorder position p contributes when it
    # represents important node i; zero unless it is an ancestor.
    p = np.arange(n)
    rank = tree.important_rank[:, None]
    covers = (p <= rank) & (rank < p + tree.subtree_size[cols])
    gap = tree.important_score_levels[:, None] - tree.score_levels[cols] + 1
    impact = np.zeros((m, n))
    np.divide(tree.important_feq[:, None], gap, out=impact, where=covers)

    batch_rows = max(1, _BATCH_CELLS // max(1, m * n))
    best_val = -1.0
    best_combo = None
    combos = combinations(range(n), k)
    while True:
        batch = list(islice(combos, batch_rows))
        if not batch:
            break
        sel = np.zeros((len(batch), n))
        sel[np.arange(len(batch))[:, None], np.array(batch)] = 1.0
        # (rows, |I|, n) impacts of selected ancestors, best per important node
        scores = (sel[:, None, :] * impact[None, :, :]).max(axis=2).sum(axis=1)
        i = int(np.argmax(scores))
        if scores[i] > best_val:
            best_val = float(scores[i])
            best_combo = batch[i]

    selected = [cols[p] for p in best_combo]
    return SummaryResult(
        selected=selected,
        score=_g_unchecked(tree, set(selected)),
        algorithm="brute",
    )
