"""Graphviz export of a summary set.

Each member links to its lowest proper ancestor inside the set, which turns
the selection back into a small hierarchy; one batched query finds these as
the nearest selected ancestors of the members' parents.  Members with no
selected ancestor hang off a synthetic virtual root, except when such a member is
the tree's own root: then it already heads the picture and no virtual node
is emitted.  Output is deterministic: declarations and edges both follow
preorder.
"""
from __future__ import annotations

from typing import Iterable

from .tree import WeightedTree

VIRTUAL_ROOT = "__virtual_root__"


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def summary_dot(tree: WeightedTree, members: Iterable[int]) -> str:
    """Render a summary set as a Graphviz digraph string."""
    selected = {tree.check_node(v) for v in members}
    ordered = sorted(selected, key=tree.pre_rank.__getitem__)

    below = [v for v in ordered if v != tree.root]
    above = tree._nearest_selected(selected, [tree.parent[v] for v in below]).tolist()

    names = dict(zip(ordered, tree._ids_at(ordered)))
    names[-1] = VIRTUAL_ROOT
    lines = ["digraph summary {"]
    for v in ordered:
        label = f"{names[v]} ({tree.feq[v]:g})"
        lines.append(f"  {_quote(names[v])} [label={_quote(label)}];")
    if -1 in above:
        lines.append(f"  {_quote(VIRTUAL_ROOT)} [label=\"\", shape=point];")
    for p, v in zip(above, below):
        lines.append(f"  {_quote(names[p])} -> {_quote(names[v])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
