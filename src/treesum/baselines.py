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


def _check_k(tree: WeightedTree, k: int):
    if not 1 <= k <= tree.n:
        raise InvalidK(f"k={k} outside 1..{tree.n}")


def _top_by(
    tree: WeightedTree, k: int, value: np.ndarray, algorithm: str, candidates: np.ndarray
) -> SummaryResult:
    """The k candidates of largest value, ties to preorder rank; short if too few.

    Only candidates at or above the k-th largest value can place, so those
    are sorted and the rest are not.
    """
    ranked = value[candidates]
    if len(ranked) > k:
        cut = len(ranked) - k
        keep = ranked >= np.partition(ranked, cut)[cut]
        candidates, ranked = candidates[keep], ranked[keep]
    order = np.lexsort((tree.pre_rank[candidates], -ranked))
    selected = candidates[order[:k]].tolist()
    return SummaryResult(
        selected=selected,
        score=_g_unchecked(tree, set(selected)),
        algorithm=algorithm,
        underfilled=len(selected) < k,
    )


def feq_topk(tree: WeightedTree, k: int) -> SummaryResult:
    """The k nodes with the largest weights; ties go to preorder rank."""
    _check_k(tree, k)
    return _top_by(tree, k, tree.feq, "feq", tree.pre_order)


def agg_topk(tree: WeightedTree, k: int) -> SummaryResult:
    """The k nodes with the largest aggregate (subtree) weights."""
    _check_k(tree, k)
    return _top_by(tree, k, tree.subtree_weight, "agg", tree.pre_order)


def cagg_topk(tree: WeightedTree, k: int, theta: float = 0.4) -> SummaryResult:
    """Aggregate-weight ranking restricted to nodes that contribute at least
    ``theta`` of their parent's aggregate weight.

    The root always qualifies (its ratio is taken as 1, as is a child of a
    weightless subtree).  The filter runs before the top-k cut; when fewer
    than k nodes qualify the result is returned short and flagged.
    """
    _check_k(tree, k)
    if not 0.0 <= theta <= 1.0:
        raise InvalidK(f"theta={theta} outside 0..1")
    af = tree.subtree_weight
    parent = tree.parent
    up = af[np.maximum(parent, 0)]
    ratio = np.ones(tree.n)
    np.divide(af, up, out=ratio, where=(parent >= 0) & (up != 0))
    pre_order = tree.pre_order
    return _top_by(tree, k, af, "cagg", pre_order[ratio[pre_order] >= theta])


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
    _check_k(tree, k)
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
