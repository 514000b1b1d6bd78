"""Greedy summarizer with the (1 - 1/e) guarantee.

Starts from the empty set and k times adds the node with the largest
marginal gain.  Because the objective is monotone and submodular this
achieves at least (1 - 1/e) of the optimal score.  Ties are broken toward
the smallest preorder rank, which makes runs reproducible.

Gains are kept in a heap and evaluated lazily, the exact-invalidation form
of Minoux's accelerated greedy (1978) and of CELF (Leskovec et al., KDD
2007).  The first round comes from one pass over the weighted nodes'
ancestor paths.  Later gains read the cover, each node's nearest selected
self-inclusive ancestor, kept in reverse postorder: x's subtree is one slice
that starts at x, and x gains the nodes in it that share its cover.  A pick
s changes only those gains and its ancestors' up to its cover.  They are
marked stale; a stale entry that reaches the top of the heap is recomputed
and pushed back, and the first fresh entry popped is the pick.  Every gain,
the trace and the score are bit-for-bit those of a full rescan each round.
"""
from __future__ import annotations

import heapq

import numpy as np

from .result import SummaryResult
from .scoring import _cover_gain, _g_unchecked
from .tree import WeightedTree


def gts(tree: WeightedTree, k: int) -> SummaryResult:
    """Select k summary nodes greedily by largest marginal gain.

    ``stats`` holds ``gain_evals`` (gains recomputed after the first round)
    and ``first_round_terms`` (the ancestor-path terms the first round adds).
    """
    tree.check_k(k)

    parent = tree.parent.tolist()
    lv = tree.score_levels.tolist()
    feq = tree.feq.tolist()
    rpo = tree.post_order[::-1]
    gains = _first_round(parent, lv, feq, tree.post_order.tolist())
    heap = [(-g, r, x) for x, (g, r) in enumerate(zip(gains, tree.pre_rank.tolist()))]
    heapq.heapify(heap)
    # By position in reverse postorder, where x's subtree is at[x] : at[x] +
    # size[x]: each node's cover, gain freshness, weight and score level + 1.
    at = np.argsort(rpo).tolist()
    size = tree.subtree_size.tolist()
    cover = np.full(tree.n, -1, dtype=np.int64)
    fresh = np.ones(tree.n, dtype=bool)
    w = tree.feq[rpo]
    ly1 = tree.score_levels[rpo] + 1.0
    # A stale gain is an upper bound on the true gain, in floating point
    # too, because rounding is monotone and the terms keep their order: below
    # a new pick every term w/(ly-lx+1) - w/(ly-lz+1) can only fall as the
    # covering level lz rises, and above it the pick's subtree drops terms
    # >= 0 out of a sequential sum.  So the first fresh entry popped has the
    # smallest true (-gain, pre_rank): the first strict maximum in preorder.
    order = []
    trace = []
    gain_evals = 0
    while len(order) < k:
        neg_gain, rank, x = heap[0]
        a = at[x]
        b = a + size[x]
        z = int(cover[a])
        if not fresh[a]:
            fresh[a] = True
            gain_evals += 1
            gain = _cover_gain(cover[a:b], w[a:b], ly1[a:b], lv[x], lv)
            heapq.heapreplace(heap, (-gain, rank, x))
            continue
        heapq.heappop(heap)
        order.append(x)
        trace.append((x, -neg_gain))

        # x now covers what shared its cover in its slice; those gains are
        # stale, and its ancestors' up to that cover (a walk, not a query)
        mine = cover[a:b] == z
        cover[a:b][mine] = x
        fresh[a:b][mine] = False
        v = parent[x]
        while v != z:
            fresh[at[v]] = False
            v = parent[v]
    return SummaryResult(
        selected=order,
        score=_g_unchecked(tree, order),
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
    postorder adds each node's terms in the order of its subtree's slice,
    the order ``_cover_gain`` sums them in later rounds, so the gains are
    bit-identical to it.
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
