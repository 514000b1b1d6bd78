"""The summary objective.

A summary set S scores a weighted tree by letting every positively weighted
node y be represented by its best selected ancestor:

    cor(x, y)  = 1 / (level(y) - level(x) + 1)   if x is an ancestor of y
                 0                               otherwise
    rep(x, y)  = feq(y) * cor(x, y)
    smy(S, y)  = max over x in S that are ancestors of y of rep(x, y)
                 (0 when S contains no ancestor of y)
    g(S)       = sum of smy(S, y) over all positively weighted y

g is monotone and submodular, which is what makes the greedy summarizer a
(1 - 1/e)-approximation.  All level arithmetic reads ``tree.score_levels``
so reduced trees score exactly like the originals they came from.  The best
selected ancestor of y is its nearest one, which ``smy`` and g find with the
tree's batched nearest-selected-ancestor query.

``marginal_gain_fast`` computes g(S + {x}) - g(S) from the nodes of x's
subtree that share x's nearest selected ancestor; ``marginal_gain_naive``
computes it from two full evaluations of g and is its test oracle.  rep is
evaluated as a single division feq(y) / (diff + 1), which keeps quantities
like 18/3 exact in floating point.
"""
from __future__ import annotations

import math
from typing import Iterable, Set

from .errors import AlreadySelected
from .tree import WeightedTree, sequential_sum


def cor(tree: WeightedTree, x: int, y: int) -> float:
    """Correlation of ancestor x on y; 0 when x does not cover y."""
    tree.check_node(x)
    tree.check_node(y)
    if not tree.is_ancestor(x, y):
        return 0.0
    lv = tree.score_levels
    return 1.0 / (lv[y] - lv[x] + 1)


def rep(tree: WeightedTree, x: int, y: int) -> float:
    """Representative impact of x on y: feq(y) * cor(x, y)."""
    tree.check_node(x)
    tree.check_node(y)
    if not tree.is_ancestor(x, y):
        return 0.0
    lv = tree.score_levels
    return tree.feq[y] / (lv[y] - lv[x] + 1)


def smy(tree: WeightedTree, members: Iterable[int], y: int) -> float:
    """Best representative impact on y: rep of its nearest selected ancestor."""
    tree.check_node(y)
    z = int(tree._nearest_selected({tree.check_node(v) for v in members}, [y])[0])
    lv = tree.score_levels
    return tree.feq[y] / (lv[y] - lv[z] + 1) if z >= 0 else 0.0


def g_score(tree: WeightedTree, members: Iterable[int]) -> float:
    """Total summary impact of the set on all positively weighted nodes.

    Accumulated over important nodes in preorder, so the result is
    bit-for-bit reproducible across runs.
    """
    return _g_unchecked(tree, {tree.check_node(v) for v in members})


def _g_unchecked(tree: WeightedTree, selected: Set[int]) -> float:
    imp = tree.important_pre
    z = tree._nearest_selected(selected, imp)
    lv = tree.score_levels
    hit = z >= 0
    y = imp[hit]
    return sequential_sum(tree.feq[y] / (lv[y] - lv[z[hit]] + 1))


def marginal_gain_naive(tree: WeightedTree, members: Iterable[int], x: int) -> float:
    """g(S + {x}) - g(S) by two full evaluations; the slow reference route."""
    tree.check_node(x)
    selected = {tree.check_node(v) for v in members}
    if x in selected:
        raise AlreadySelected(f"node {tree.ids[x]!r} is already selected")
    base = _g_unchecked(tree, selected)
    selected.add(x)
    return _g_unchecked(tree, selected) - base


def marginal_gain_fast(tree: WeightedTree, members: Iterable[int], x: int) -> float:
    """g(S + {x}) - g(S) from x's subtree and one nearest-selected query.

    Only nodes that would switch their representative to x matter: the
    descendants of x whose nearest selected ancestor is x's own, z.  For each
    such y the gain is rep(x, y) minus what z contributed (zero when no z
    exists); descendants below another selected node keep their
    representative and contribute nothing.
    """
    tree.check_node(x)
    selected = {tree.check_node(v) for v in members}
    if x in selected:
        raise AlreadySelected(f"node {tree.ids[x]!r} is already selected")
    # x's subtree is a postorder slice ending at x; reversed, it starts at x
    start = tree.pre_rank[x] - tree.levels[x]
    nodes = tree.post_order[start : start + tree.subtree_size[x]][::-1]
    cover = tree._nearest_selected(selected, nodes)
    lv = tree.score_levels
    return _cover_gain(cover, tree.feq[nodes], lv[nodes] + 1.0, lv[x], lv)


def _cover_gain(cover, w, ly1, lx, lv) -> float:
    """The gain of an unselected x from its subtree in reverse postorder, x
    first: ``cover`` (each node's nearest selected self-inclusive ancestor,
    -1 for none), ``w`` and ``ly1`` (score level + 1); x's level ``lx`` and
    every node's, ``lv``.  x gains the nodes that share its cover, in the
    order a stack walk of the subtree visits them.  A weightless one adds an
    exact 0.0, and so does the second term when x has no cover (lz = -inf)."""
    z = cover[0]
    lz = lv[z] if z >= 0 else -math.inf
    mine = cover == z
    w = w[mine]
    ly1 = ly1[mine]
    return float((w / (ly1 - lx) - w / (ly1 - lz)).cumsum()[-1])
