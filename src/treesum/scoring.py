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
selected ancestor of y is its nearest one.  g asks the tree's nearest-member
search (``WeightedTree._nearest_at``) about every weighted node at once, by
the preorder ranks the tree keeps for them, and reads their weights and
score levels from the tree's arrays of the weighted nodes, in preorder;
``smy`` asks the same search about one node.

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
    return _cover_score(tree, tree._nearest_at(selected, tree.important_rank))


def _cover_score(tree: WeightedTree, z) -> float:
    """g from each weighted node's nearest selected self-inclusive ancestor
    ``z`` (-1 for none), the weighted nodes in preorder, as the tree's
    ``important_*`` arrays hold them."""
    hit = z >= 0
    den = tree.important_score_levels[hit] - tree.score_levels[z[hit]] + 1
    return sequential_sum(tree.important_feq[hit] / den)


def marginal_gain_naive(tree: WeightedTree, members: Iterable[int], x: int) -> float:
    """g(S + {x}) - g(S) by two full evaluations; the slow reference route."""
    tree.check_node(x)
    selected = {tree.check_node(v) for v in members}
    if x in selected:
        raise AlreadySelected(f"node {tree._ids_at([x])[0]!r} is already selected")
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
        raise AlreadySelected(f"node {tree._ids_at([x])[0]!r} is already selected")
    # x's subtree is a postorder slice ending at x; reversed, it starts at x
    start = tree.pre_rank[x] - tree.levels[x]
    nodes = tree.post_order[start : start + tree.subtree_size[x]][::-1]
    cover = tree._nearest_selected(selected, nodes)
    lv = tree.score_levels
    w = tree.feq[nodes]
    ly1 = lv[nodes] + 1.0
    z = cover[0]
    lz = lv[z] if z >= 0 else -math.inf
    return _cover_gain(cover, z, w / (ly1 - lv[x]), w / (ly1 - lz))


def _cover_gain(cover, z, mine, theirs) -> float:
    """The gain of an unselected x with cover ``z`` from nodes of its subtree
    in reverse postorder: ``cover`` (each one's nearest selected
    self-inclusive ancestor, -1 for none; None when every one's is z, as
    when no node of the subtree is selected) and each one's terms
    w / (ly - l + 1) against x's level l, ``mine``, and against z's,
    ``theirs`` (l = -inf for no cover: w / inf, a signed zero).  x gains the
    nodes that share its cover, in the order a stack walk of the subtree
    visits them.  A weightless one adds an exact 0.0, the difference of two
    equal zeros, so it may be left out, and with none left the gain is 0.0."""
    kept = mine - theirs
    if cover is not None:
        kept = kept[cover == z]
    return float(kept.cumsum()[-1]) if len(kept) else 0.0
