"""Greedy summarizer with the (1 - 1/e) guarantee.

Starts from the empty set and k times adds the node with the largest
marginal gain, recomputing gains each round.  Because the objective is
monotone and submodular this achieves at least (1 - 1/e) of the optimal
score.  Ties are broken toward the smallest preorder rank, which makes
runs reproducible; candidates are scanned in preorder so the first
strict maximum wins.
"""
from __future__ import annotations

from .errors import InvalidK
from .result import SummaryResult
from .scoring import _g_unchecked, _gain_unchecked
from .tree import WeightedTree


def gts(tree: WeightedTree, k: int) -> SummaryResult:
    """Select k summary nodes greedily by largest marginal gain."""
    if not 1 <= k <= tree.n:
        raise InvalidK(f"k={k} outside 1..{tree.n}")

    selected = set()
    order = []
    trace = []
    candidates = tree.pre_order
    children = tree.children
    for _ in range(k):
        best = None
        best_gain = -1.0
        for x in candidates:
            if x in selected:
                continue
            gain = _gain_unchecked(tree, selected, x, children)
            if gain > best_gain:
                best_gain = gain
                best = x
        selected.add(best)
        order.append(best)
        trace.append((best, best_gain))
    return SummaryResult(
        selected=order,
        score=_g_unchecked(tree, selected),
        algorithm="gts",
        trace=trace,
    )
