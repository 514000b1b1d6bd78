"""Summary quality metrics, always evaluated on the original tree.

Three complementary views of how well a summary set covers the positively
weighted nodes: total weighted hop distance to the nearest member
(closeness distance, smaller is better), weighted mean level gap to the
nearest member on the root path (average level difference, smaller is
better), and the total weight captured by members and their direct children
(weighted coverage, larger is better).

The closeness distance runs on an LCA closure that holds the members and
the weighted nodes.  Given the tree's LCA index, it reads the closure that
``vtree`` keeps on the index, of the root and the weighted nodes, whenever
every member is on it, as the lifted ``ots`` and ``gts`` summaries are;
then only the members' part is computed: their levels, one
``np.minimum.reduceat``, the pointer jumps and the sum.  Other members, an
index ``vtree`` has not run on, or no index, close the members and the
weighted nodes once, afresh.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import EmptySummary, NoImportantNodes
from .tree import EulerLcaIndex, WeightedTree, _lca_index, sequential_sum


# the member level of a closure position with no member
_NO_MEMBER = np.iinfo(np.int64).max


@dataclass
class MetricsReport:
    cd: Optional[float]
    ald: float
    wc: float
    k: int
    algorithm: str = ""


def closeness_distance(
    tree: WeightedTree, members: Iterable[int], index: Optional[EulerLcaIndex] = None
) -> float:
    """Sum over weighted nodes of (hop distance to the nearest member) * weight.

    For a common ancestor a of x and y, level(x) + level(y) - 2 level(a) is
    least, and is their distance, at a = LCA(x, y).  An LCA closure that
    holds the members and the weighted nodes holds each such LCA, so y's
    distance is level(y) plus the least low(a) - 2 level(a) over y's closure
    ancestors a, low(a) being the least member level under a; an ancestor
    that is not such an LCA only adds a term no smaller.  The sum adds in
    preorder.

    With an ``index`` given, the closure is the one ``vtree`` kept on it,
    of the root and the weighted nodes, when every member is one of its
    nodes (as every member of a summary lifted from ``vtree``'s tree is).
    Otherwise the members and the weighted nodes are closed afresh, once;
    this never builds the kept closure.  Either way all the arithmetic is
    integer but the last product, so the result is the same float.
    """
    selected = [tree.check_node(v) for v in set(members)]
    if not selected:
        raise EmptySummary("closeness distance needs a nonempty summary")
    lca = _lca_index(tree, index)
    rank = tree.pre_rank[selected]
    closure = lca.weighted_closure
    at = None if closure is None else closure.find(rank)
    if at is None:
        closure = lca.closure_with(selected)
        at = closure.find(rank)
    levels = closure.levels
    # low(a) reduces a's run of positions, which ends at the first one past
    # its preorder interval; the extra slot only pads the last bound
    member_level = np.full(len(levels) + 1, _NO_MEMBER)
    member_level[at] = tree.levels[selected]
    best = np.minimum.reduceat(member_level, closure.bounds)[::2] - 2 * levels
    for up in closure.jumps:
        best = np.minimum(best, best[up])
    at = closure.weighted_at
    return sequential_sum((levels[at] + best[at]) * tree.important_feq)


def avg_level_difference(tree: WeightedTree, members: Iterable[int]) -> float:
    """Weighted mean level gap to the nearest selected ancestor.

    A weighted node with no selected ancestor counts its own level, i.e. the
    gap to an imaginary node above the root.  Both sums add in preorder.
    """
    selected = {tree.check_node(v) for v in members}
    rank = tree.important_rank
    if not rank.size:
        raise NoImportantNodes("no node carries positive weight")
    z = tree._nearest_at(selected, rank)
    gap = tree.important_levels - np.where(z >= 0, tree.levels[z], 0)
    w = tree.important_feq
    return sequential_sum(gap * w) / sequential_sum(w)


def weighted_coverage(tree: WeightedTree, members: Iterable[int]) -> float:
    """Total weight of positively weighted nodes that are members or their
    direct children."""
    chosen = np.zeros(tree.n + 1, dtype=bool)  # a parent of -1 reads the last, unchosen slot
    chosen[[tree.check_node(v) for v in members]] = True
    imp = tree.important
    return sequential_sum(tree.feq[imp[chosen[imp] | chosen[tree.parent[imp]]]])


def compute_metrics(
    tree: WeightedTree,
    members: Iterable[int],
    algorithm: str = "",
    index: Optional[EulerLcaIndex] = None,
) -> MetricsReport:
    """All three metrics in one report; cd is None for an empty summary."""
    selected = list(members)
    try:
        cd = closeness_distance(tree, selected, index=index)
    except EmptySummary:
        cd = None
    return MetricsReport(
        cd=cd,
        ald=avg_level_difference(tree, selected),
        wc=weighted_coverage(tree, selected),
        k=len(set(selected)),
        algorithm=algorithm,
    )
