"""Tree reduction: drop zero-weight nodes that can never help a summary.

The nodes worth keeping are the positively weighted ones and the root,
closed under lowest common ancestors: ``EulerLcaIndex._closure`` adds the LCA
of each pair consecutive in preorder, which is every LCA of every subset,
and links each kept node to its nearest kept proper ancestor.  The pairs'
preorder windows follow each other, so each of its two passes is a single
``np.minimum.reduceat`` over the index's key row.  That compresses chains
of useless nodes into single edges weighted by the original level
difference.  ``vtree`` builds that closure once per index and keeps it
there (``EulerLcaIndex.weighted_closure``), so the closeness distance of a
lifted summary reuses it.

The reduced tree carries the nodes' original levels as its ``score_levels``,
so the objective evaluated on it agrees exactly with the original tree, and
the exact solver finds the same optimum on both (it never pays to select a
dropped node: the LCA below it represents the same descendants at least as
well).  At most 2 * |important| + 1 nodes survive.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .errors import ScoreMismatch
from .result import SummaryResult
from .scoring import g_score
from .tree import EulerLcaIndex, WeightedTree, _lca_index


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


def vtree(tree: WeightedTree, index: Optional[EulerLcaIndex] = None) -> ReducedTree:
    """Reduce a tree to its important nodes, their pairwise-consecutive LCAs
    and the root."""
    index = _lca_index(tree, index)
    closure = index.weighted_closure
    if closure is None:
        closure = index.weighted_closure = index.closure_with([tree.root])
    kept, parent, levels = closure.nodes, closure.up, closure.levels
    edge_weights = (levels - levels[parent]).tolist()
    edge_weights[0] = 0
    ordered = kept.tolist()
    # only the kept rows of a column not yet decoded become strings; when the
    # labels are the ids, the reduced tree's labels are its ids too
    reduced = WeightedTree(
        ids=tree._ids_at(ordered),
        parent=parent,
        feq=tree.feq[kept],
        labels=tree._labels_at(ordered),
        score_levels=tree.score_levels[kept],
    )
    return ReducedTree(tree=reduced, original=tree, orig_index=ordered, edge_weights=edge_weights)


def lift_result(reduced: ReducedTree, result: SummaryResult) -> SummaryResult:
    """Re-express a summary computed on the reduced tree in original terms.

    The score is recomputed on the original tree and must agree with the
    reduced-tree score; a disagreement means the reduction broke scoring
    and raises ScoreMismatch.
    """
    mapped = [reduced.orig_index[v] for v in result.selected]
    score = g_score(reduced.original, mapped)
    # both sides sum the same contributions in different orders, hence the
    # magnitude-scaled guard; a nan difference fails it
    if not abs(score - result.score) <= max(1e-9, 1e-12 * abs(score)):
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
