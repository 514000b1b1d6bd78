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

import numpy as np

from .errors import EnumerationTooLarge, InvalidK
from .result import SummaryResult
from .scoring import _g_unchecked
from .tree import WeightedTree


def _top_by(
    tree: WeightedTree, k: int, value: np.ndarray, algorithm: str, candidates: np.ndarray
) -> SummaryResult:
    """The k candidates of largest value, ties to preorder rank; short if too few.

    Values are never negative, and a value of 0 (or -0.0) ranks below any
    positive one, so when at least k candidates are positive the others are
    dropped.  Only candidates at or above the k-th largest value can place,
    so those are sorted and the rest are not.  ``stats["ranked"]`` counts the
    candidates left after the first cut.  The order of ``candidates`` does not
    matter.
    """
    ranked = value[candidates]
    if len(ranked) > k:
        positive = ranked > 0
        if np.count_nonzero(positive) >= k:
            candidates, ranked = candidates[positive], ranked[positive]
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
    weighted = tree.important_pre
    return _top_by(tree, k, tree.feq, "feq", weighted if len(weighted) >= k else tree.pre_order)


def agg_topk(tree: WeightedTree, k: int) -> SummaryResult:
    """The k nodes with the largest aggregate (subtree) weights; ties go to
    preorder rank.  Only the nodes of positive aggregate are ranked when at
    least k exist, as in ``cagg_topk``."""
    tree.check_k(k)
    af = tree.subtree_weight
    positive = np.flatnonzero(af > 0)
    return _top_by(tree, k, af, "agg", positive if len(positive) >= k else tree.pre_order)


def cagg_topk(tree: WeightedTree, k: int, theta: float = 0.4) -> SummaryResult:
    """Aggregate-weight ranking restricted to nodes that contribute at least
    ``theta`` of their parent's aggregate weight.

    The root always qualifies (its ratio is taken as 1, as is a child of a
    weightless subtree).  The filter runs before the top-k cut; when fewer
    than k nodes qualify the result is returned short and flagged.  The
    ratios are computed for the nodes of positive aggregate first: a node of
    aggregate 0 can qualify, but never places above k positive ones, so all
    nodes are filtered only when fewer than k positive ones qualify.
    """
    tree.check_k(k)
    if not 0.0 <= theta <= 1.0:
        raise InvalidK(f"theta={theta} outside 0..1")
    af = tree.subtree_weight
    positive = np.flatnonzero(af > 0)
    if len(positive) >= k:
        qualifying = positive[_ratio(tree, af, positive) >= theta]
        if len(qualifying) >= k:
            return _top_by(tree, k, af, "cagg", qualifying)
    pre_order = tree.pre_order
    return _top_by(tree, k, af, "cagg", pre_order[_ratio(tree, af, pre_order) >= theta])


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
    batch_rows: int = 0,
) -> SummaryResult:
    """Exhaustive maximum of the objective over all k-subsets.

    Subsets are enumerated in lexicographic preorder-rank order and the
    first maximum wins, so ties resolve to the lexicographically smallest
    preorder index vector.  Refuses instances above ``subset_cap`` subsets.
    """
    tree.check_k(k)
    n = tree.n
    total = comb(n, k)
    if total > subset_cap:
        raise EnumerationTooLarge(f"C({n},{k}) = {total} exceeds cap {subset_cap}")

    imp = tree.important_pre
    cols = tree.pre_order
    # impact[i, p]: what the node at preorder position p contributes when it
    # represents important node i; zero unless it is an ancestor.
    p = np.arange(n)
    rank = tree.pre_rank[imp][:, None]
    covers = (p <= rank) & (rank < p + tree.subtree_size[cols])
    slv = tree.score_levels
    gap = slv[imp][:, None] - slv[cols] + 1
    impact = np.zeros((len(imp), n))
    np.divide(tree.feq[imp][:, None], gap, out=impact, where=covers)

    if batch_rows <= 0:
        batch_rows = max(16, 4_000_000 // max(1, len(imp) * n))
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
