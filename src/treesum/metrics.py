"""Summary quality metrics, always evaluated on the original tree.

Three complementary views of how well a summary set covers the positively
weighted nodes: total weighted hop distance to the nearest member
(closeness distance, smaller is better), weighted mean level gap to the
nearest member on the root path (average level difference, smaller is
better), and the total weight captured by members and their direct children
(weighted coverage, larger is better).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import EmptySummary, NoImportantNodes
from .tree import EulerLcaIndex, WeightedTree, _lca_index, sequential_sum


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
    least, and is their distance, at a = LCA(x, y).  The LCA closure of the
    members and weighted nodes holds each such LCA, so y's distance is
    level(y) plus the least low(a) - 2 level(a) over y's closure ancestors a,
    low(a) being the least member level under a.  The sum adds in preorder.
    """
    selected = [tree.check_node(v) for v in set(members)]
    if not selected:
        raise EmptySummary("closeness distance needs a nonempty summary")
    ys = tree.important_pre
    kept, up = _lca_index(tree, index)._closure(np.append(selected, ys))
    c = len(kept)
    rank = tree.pre_rank[kept]
    levels = tree.levels[kept]
    # low(a) reduces a's run of positions, which ends at the first one past
    # its preorder interval; the extra slot only pads the last bound
    member_level = np.full(c + 1, np.iinfo(np.int64).max)
    member_level[np.searchsorted(rank, tree.pre_rank[selected])] = tree.levels[selected]
    bounds = np.stack((np.arange(c), np.searchsorted(rank, rank + tree.subtree_size[kept])), 1)
    best = np.minimum.reduceat(member_level, bounds.ravel())[::2] - 2 * levels
    # pointer jumping: round r takes in the next 2**r closure ancestors
    up[0] = 0
    for _ in range((c - 1).bit_length()):
        best = np.minimum(best, best[up])
        up = up[up]
    at = np.searchsorted(rank, tree.pre_rank[ys])
    return sequential_sum((levels[at] + best[at]) * tree.feq[ys])


def avg_level_difference(tree: WeightedTree, members: Iterable[int]) -> float:
    """Weighted mean level gap to the nearest selected ancestor.

    A weighted node with no selected ancestor counts its own level, i.e. the
    gap to an imaginary node above the root.  Both sums add in preorder.
    """
    selected = {tree.check_node(v) for v in members}
    imp = tree.important_pre
    if not imp.size:
        raise NoImportantNodes("no node carries positive weight")
    z = tree._nearest_selected(selected, imp)
    levels = tree.levels
    gap = levels[imp] - np.where(z >= 0, levels[z], 0)
    w = tree.feq[imp]
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
