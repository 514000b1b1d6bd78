"""Greedy summarizer with the (1 - 1/e) guarantee.

Starts from the empty set and k times adds the node with the largest
marginal gain.  Because the objective is monotone and submodular this
achieves at least (1 - 1/e) of the optimal score.  Ties are broken toward
the smallest preorder rank, which makes runs reproducible.

Gains are kept in a heap and evaluated lazily, the exact-invalidation form
of Minoux's accelerated greedy (1978) and of CELF (Leskovec et al., KDD
2007).  Nodes are laid out in reverse postorder, where x's subtree is one
slice that starts at x.  One float64 table holds, for every node x, the
term w(y) / (ly - lx + 1) of each weighted y in its slice: one entry per
weighted node and ancestor, Σ(levels + 1) over the weighted nodes, as many
terms as a pass over their ancestor paths adds.  The first round sums each
node's block of the table.  Later gains read the cover, each node's nearest
selected self-inclusive ancestor: x gains the weighted nodes in its slice
that share its cover z, each by its term against x less its term against z,
both read from the table.  A pick s changes only those gains and its
ancestors' up to its cover.  They are marked stale; a stale entry that
reaches the top of the heap is recomputed and pushed back, and the first
fresh entry popped is the pick.  While no pick lies in x's slice, which a
bisection of the picks' sorted positions tells, every node of the slice
shares x's cover, so the recompute sums the whole slice with no mask, and
the pick writes the whole slice.  After the last pick the cover gives each
weighted node's nearest selected ancestor, and with it the score.  Every
gain, the trace and the score are bit-for-bit those of a full rescan each
round.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left

import numpy as np

from .result import SummaryResult
from .scoring import _cover_gain, _cover_score
from .tree import WeightedTree


def gts(tree: WeightedTree, k: int) -> SummaryResult:
    """Select k summary nodes greedily by largest marginal gain.

    ``stats`` holds ``gain_evals`` (gains recomputed after the first round)
    and ``first_round_terms`` (the term table's entries, which the first
    round adds: one per node on each weighted node's root path).
    """
    tree.check_k(k)

    parent = tree.parent.tolist()
    rpo = tree.post_order[::-1]
    # By position in reverse postorder, where x's subtree is at[x] : at[x] +
    # size[x]: each node's cover and gain freshness, and the picks' positions
    # in order, after them a sentinel n.  wcover is the cover at the weighted
    # positions alone, where the slice a : b is before[a] : before[b].  A
    # node's position is n - 1 less its postorder rank, pre_rank - levels +
    # size - 1.
    at_pos = tree.n - tree.pre_rank + tree.levels - tree.subtree_size
    at = at_pos.tolist()
    size = tree.subtree_size.tolist()
    terms, before, col, gains = _term_table(tree, rpo)
    heap = list(zip((-gains).tolist(), tree.pre_rank.tolist(), range(tree.n)))
    heapq.heapify(heap)
    cover = np.full(tree.n, -1, dtype=np.int64)
    cover_at = memoryview(cover)
    wcover = np.full(len(tree.important), -1, dtype=np.int64)
    fresh = bytearray(b"\x01") * tree.n
    fresh_mask = np.frombuffer(fresh, dtype=bool)
    picked = [tree.n]
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
        z = cover_at[a]
        i = before[a]
        j = before[b]
        # with no pick in x's slice, every position in it shares x's cover
        p = bisect_left(picked, a)
        below = picked[p] < b
        if not fresh[a]:
            fresh[a] = 1
            gain_evals += 1
            mine = terms[col[a] + i : col[a] + j]
            # with no cover, lz = -inf and each second term is w / inf = 0.0
            theirs = terms[col[at[z]] + i : col[at[z]] + j] if z >= 0 else 0.0
            gain = _cover_gain(wcover[i:j] if below else None, z, mine, theirs)
            heapq.heapreplace(heap, (-gain, rank, x))
            continue
        heapq.heappop(heap)
        order.append(x)
        trace.append((x, -neg_gain))
        picked.insert(p, a)

        # x now covers what shared its cover in its slice; those gains are
        # stale, and its ancestors' up to that cover (a walk, not a query)
        if below:
            shared = cover[a:b] == z
            cover[a:b][shared] = x
            fresh_mask[a:b][shared] = False
            wcover[i:j][wcover[i:j] == z] = x
        else:
            cover[a:b] = x
            fresh_mask[a:b] = False
            wcover[i:j] = x
        v = parent[x]
        while v != z:
            fresh[at[v]] = 0
            v = parent[v]
    # each weighted node's nearest selected self-inclusive ancestor
    return SummaryResult(
        selected=order,
        score=_cover_score(tree, cover[at_pos[tree.important_pre]]),
        algorithm="gts",
        trace=trace,
        stats={"gain_evals": gain_evals, "first_round_terms": len(terms)},
    )


def _term_table(tree: WeightedTree, rpo: np.ndarray):
    """(terms, before, col, gains): the term table of the nodes in reverse
    postorder ``rpo``; by position p in ``rpo``, the number of weighted
    positions before p (and, at p = n, in all) and the column offset into
    the table of the block at p; and by node, the gain against the empty
    set.

    Only weighted positions have entries: a weightless node's term is a
    signed zero and its part of a later gain is +0.0, and leaving either out
    of a sum that starts at 0.0, or of nonnegative terms, changes no bit.
    The block at p, for the node x whose slice is p : q, holds for the j-th
    weighted position of the layout, before[p] <= j < before[q], the term
    w / (ly - lx + 1) of the node there, at ``terms[col[p] + j]``; blocks
    follow each other in reverse postorder, Σ(levels + 1) entries over the
    weighted nodes.  The gains add each block's terms in slice order, the
    order ``_cover_gain`` sums them in later rounds.
    """
    w = tree.feq[rpo]
    lv = tree.score_levels[rpo]
    weighted = w > 0
    before = np.concatenate(([0], np.cumsum(weighted)))
    lo = before[:-1]
    count = before[np.arange(tree.n) + tree.subtree_size[rpo]] - lo
    # the block at p starts at entry lo[p] + col[p]
    col = np.cumsum(count) - count - lo
    # each entry's weighted position, then its term; in place, so the build
    # holds at most three arrays the table's size
    j = np.arange(int(count.sum()))
    j -= np.repeat(col, count)
    terms = w[weighted][j]
    den = (lv[weighted] + 1.0)[j]
    del j
    den -= np.repeat(lv, count)
    terms /= den
    del den
    gains = np.zeros(tree.n)
    # adds in array order, so each node's gain is one sequential sum
    np.add.at(gains, np.repeat(rpo, count), terms)
    return terms, before.tolist(), col.tolist(), gains
