"""Greedy summarizer with the (1 - 1/e) guarantee.

Starts from the empty set and k times adds the node with the largest
marginal gain.  Because the objective is monotone and submodular this
achieves at least (1 - 1/e) of the optimal score.  Ties are broken toward
the smallest preorder rank, which makes runs reproducible.

Gains are kept in a heap and evaluated lazily, the exact-invalidation form
of Minoux's accelerated greedy (1978) and of CELF (Leskovec et al., KDD
2007).  The first round comes from one pass over the weighted nodes'
ancestor paths.  Selecting s can change the gain of only two groups of
nodes: its ancestors up to the nearest selected one, and its descendants
that no other selected node shields.  Those are marked stale; a stale entry
that reaches the top of the heap is recomputed and pushed back, and the
first fresh entry popped is the pick.  Every gain, the trace and the score
are bit-for-bit those of rescanning every candidate in every round.
"""
from __future__ import annotations

import heapq

from .result import SummaryResult
from .scoring import _g_unchecked, _gain_unchecked
from .tree import WeightedTree


def gts(tree: WeightedTree, k: int) -> SummaryResult:
    """Select k summary nodes greedily by largest marginal gain.

    ``stats`` holds ``gain_evals`` (gains recomputed after the first round)
    and ``first_round_terms`` (the ancestor-path terms the first round adds).
    """
    tree.check_k(k)

    parent = tree.parent.tolist()
    children = tree.children
    lv = tree.score_levels.tolist()
    feq = tree.feq.tolist()
    gains = _first_round(parent, lv, feq, tree.post_order.tolist())
    heap = [(-g, r, x) for x, (g, r) in enumerate(zip(gains, tree.pre_rank.tolist()))]
    heapq.heapify(heap)
    # A stale gain is an upper bound on the true gain, in floating point
    # too, because rounding is monotone and the terms keep their order: below
    # a new pick every term w/(ly-lx+1) - w/(ly-lz+1) can only fall as the
    # covering level lz rises, and above it the pick's subtree drops terms
    # >= 0 out of a sequential sum.  So the first fresh entry popped has the
    # smallest true (-gain, pre_rank): the first strict maximum in preorder.
    fresh = [True] * tree.n
    selected = set()
    order = []
    trace = []
    gain_evals = 0
    while len(order) < k:
        neg_gain, rank, x = heap[0]
        if not fresh[x]:
            fresh[x] = True
            gain_evals += 1
            gain = _gain_unchecked(selected, x, parent, children, lv, feq)
            heapq.heapreplace(heap, (-gain, rank, x))
            continue
        heapq.heappop(heap)
        selected.add(x)
        order.append(x)
        trace.append((x, -neg_gain))

        # a walk, not a query: it marks every node on the path, not just the end
        v = parent[x]
        while v >= 0 and v not in selected:
            fresh[v] = False
            v = parent[v]
        stack = [x]
        while stack:
            for c in children[stack.pop()]:
                if c not in selected:
                    fresh[c] = False
                    stack.append(c)
    return SummaryResult(
        selected=order,
        score=_g_unchecked(tree, selected),
        algorithm="gts",
        trace=trace,
        stats={
            "gain_evals": gain_evals,
            # each weighted node adds one term per node on its root path
            "first_round_terms": int(tree.levels[tree.important].sum()) + len(tree.important),
        },
    )


def _first_round(parent, lv, feq, post_order) -> list:
    """Marginal gain of every node against the empty set, in one pass, from
    the tree's ``parent``, ``score_levels``, ``feq`` and ``post_order``.

    Each weighted y adds its term to every ancestor.  Taking y in reverse
    postorder visits every subtree in the order of ``_gain_unchecked``'s
    stack walk (pop a node, push its children in order), so each node's
    terms are summed in the same order and the gains are bit-identical.
    """
    gain = [0.0] * len(parent)
    for y in reversed(post_order):
        w = feq[y]
        if w:
            ly = lv[y]
            v = y
            while v >= 0:
                gain[v] += w / (ly - lv[v] + 1)
                v = parent[v]
    return gain
