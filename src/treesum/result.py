"""Result container shared by every summarizer."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from .tree import WeightedTree


@dataclass
class SummaryResult:
    """A selected node set with its score and provenance.

    ``selected`` is ordered: selection order for iterative algorithms,
    preorder for set-valued ones.  ``trace`` holds (node, marginal gain)
    per greedy iteration and is empty for non-iterative algorithms.
    ``underfilled`` marks results that legitimately carry fewer than k
    nodes (only the contribution-ratio baseline can do that).  ``stats``
    holds the solver's counters and stage times in milliseconds as plain
    Python numbers; it never takes part in equality.
    """

    selected: List[int]
    score: float
    algorithm: str
    trace: List[Tuple[int, float]] = field(default_factory=list)
    underfilled: bool = False
    stats: dict = field(default_factory=dict, compare=False)

    def selected_ids(self, tree: WeightedTree) -> List[str]:
        return tree._ids_at(self.selected)
