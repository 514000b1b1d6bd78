"""Tree reduction: drop zero-weight nodes that can never help a summary.

The nodes worth keeping are the positively weighted ones, the root, and the
lowest common ancestors of consecutive positively weighted nodes in preorder;
every LCA of any subset of important nodes is already the LCA of such a
consecutive pair, so this closure is enough.  The kept nodes are re-linked to
their nearest kept proper ancestor, which compresses chains of useless nodes
into single edges weighted by the original level difference; one batched
LCA query finds those ancestors.

The reduced tree carries the nodes' original levels as its ``score_levels``,
so the objective evaluated on it agrees exactly with the original tree, and
the exact solver finds the same optimum on both (it never pays to select a
dropped node: the LCA below it represents the same descendants at least as
well).  At most 2 * |important| + 1 nodes survive.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ScoreMismatch
from .result import SummaryResult
from .scoring import g_score
from .tree import EulerLcaIndex, WeightedTree


@dataclass
class ReducedTree:
    """A compact view of ``original`` restricted to the kept node set.

    ``tree`` is a regular WeightedTree over the kept nodes (original ids,
    weights and score levels preserved), ``orig_index[i]`` maps its node i
    back to the original index, and ``edge_weights[i]`` is the original
    level difference to its reduced-tree parent (0 for the root).
    """

    tree: WeightedTree
    original: WeightedTree
    orig_index: List[int]
    edge_weights: List[int]

    def to_original(self, nodes) -> List[int]:
        return [self.orig_index[v] for v in nodes]


def vtree(tree: WeightedTree, index: Optional[EulerLcaIndex] = None) -> ReducedTree:
    """Reduce a tree to its important nodes, their pairwise-consecutive LCAs
    and the root."""
    pre_rank = tree.pre_rank
    pre_order = tree.pre_order
    keep = np.zeros(tree.n, dtype=bool)  # by preorder rank; the root is rank 0
    keep[0] = True
    keep[pre_rank[tree.important_pre]] = True
    kept = pre_order[keep]
    up = kept[:0]
    if len(kept) > 1:
        if index is None:
            index = EulerLcaIndex(tree)
        keep[pre_rank[index.lca_many(kept[:-1], kept[1:])]] = True
        kept = pre_order[keep]
        # the kept set is LCA-closed, so in preorder each node's nearest kept
        # proper ancestor is its LCA with the node just before it
        up = index.lca_many(kept[:-1], kept[1:])
    parent = np.append(-1, np.searchsorted(np.flatnonzero(keep), pre_rank[up]))
    edge_weights = [0] + (tree.levels[kept[1:]] - tree.levels[up]).tolist()
    ordered = kept.tolist()

    reduced = WeightedTree(
        ids=[tree.ids[v] for v in ordered],
        parent=parent,
        feq=tree.feq[kept],
        labels=[tree.labels[v] for v in ordered],
        score_levels=tree.score_levels[kept],
    )
    return ReducedTree(
        tree=reduced,
        original=tree,
        orig_index=ordered,
        edge_weights=edge_weights,
    )


def lift_result(reduced: ReducedTree, result: SummaryResult) -> SummaryResult:
    """Re-express a summary computed on the reduced tree in original terms.

    The score is recomputed on the original tree and must agree with the
    reduced-tree score; a disagreement means the reduction broke scoring
    and raises ScoreMismatch.
    """
    mapped = reduced.to_original(result.selected)
    score = g_score(reduced.original, mapped)
    # both sides sum the same contributions in different orders, hence the
    # magnitude-scaled guard
    if abs(score - result.score) > max(1e-9, 1e-12 * abs(score)):
        raise ScoreMismatch(
            f"summary scores {result.score!r} reduced but {score!r} original"
        )
    return SummaryResult(
        selected=mapped,
        score=score,
        algorithm=result.algorithm,
        trace=[(reduced.orig_index[v], gain) for v, gain in result.trace],
        underfilled=result.underfilled,
        stats=dict(result.stats),
    )
