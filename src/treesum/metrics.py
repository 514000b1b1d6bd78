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
from .tree import EulerLcaIndex, WeightedTree, sequential_sum


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

    Distances from each member to all weighted nodes come from one batched
    LCA query; the weighted sum adds in preorder of the weighted nodes.
    """
    selected = [tree.check_node(v) for v in set(members)]
    if not selected:
        raise EmptySummary("closeness distance needs a nonempty summary")
    if index is None:
        index = EulerLcaIndex(tree)
    ys = tree.important_pre
    levels = tree.levels
    ly = levels[ys]
    best = None
    for x in selected:
        d = levels[x] + ly - 2 * levels[index.lca_many(x, ys)]
        best = d if best is None else np.minimum(best, d)
    return sequential_sum(best * tree.feq[ys])


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
