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
from .tree import EulerLcaIndex, WeightedTree


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
    ys = tree._important_pre_a
    levels = tree._levels_a
    ly = levels[ys]
    best = None
    for x in selected:
        d = levels[x] + ly - 2 * levels[index.lca_many(x, ys)]
        best = d if best is None else np.minimum(best, d)
    terms = best * tree._important_feq_a
    # cumsum adds in preorder as a loop would; np.sum pairs terms up
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def avg_level_difference(tree: WeightedTree, members: Iterable[int]) -> float:
    """Weighted mean level gap to the nearest selected ancestor.

    A weighted node with no selected ancestor counts its own level, i.e. the
    gap to an imaginary node above the root.  Both sums add in preorder.
    """
    selected = {tree.check_node(v) for v in members}
    imp = tree._important_pre_a
    if not imp.size:
        raise NoImportantNodes("no node carries positive weight")
    z = tree._nearest_selected(selected, imp)
    levels = tree._levels_a
    gap = levels[imp] - np.where(z >= 0, levels[z], 0)
    w = tree._important_feq_a
    return float(np.cumsum(gap * w)[-1] / np.cumsum(w)[-1])


def weighted_coverage(tree: WeightedTree, members: Iterable[int]) -> float:
    """Total weight of positively weighted nodes that are members or their
    direct children."""
    selected = {tree.check_node(v) for v in members}
    parent = tree.parent
    return sum(tree.feq[y] for y in tree.important if y in selected or parent[y] in selected)


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
