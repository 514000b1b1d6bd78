"""Tree files and synthetic trees.

File format: tab-separated ``id  parentId  weight  [label]``, one node per
line, ``-`` as the parent of the root, ``#`` starting a comment line.
Weights are non-negative decimals; integer weights round-trip losslessly.

The generator is driven by an explicit splitmix64 stream (see Splitmix64)
rather than the stdlib PRNG so that a (spec, seed) pair produces the same
tree on any platform or language.  Nodes are attached one at a time: with
probability ``height_bias`` the new node extends the most recently added
node (deepening the tree), otherwise it attaches to a uniformly random node
that still has room under ``max_children``.  With a small bias this yields
random-recursive-tree shapes whose height grows like log n, matching the
profile of real taxonomy datasets.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import repeat

from .errors import InvalidSpec, MalformedLine, NoRoot
from .tree import WeightedTree

_MASK64 = (1 << 64) - 1
_NO_PARENT = "-"  # the parent column of the root


class Splitmix64:
    """Deterministic 64-bit PRNG (splitmix64).

    State update: state += 0x9E3779B97F4A7C15 (mod 2**64); output mixing:
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31.  ``randrange(n)`` reduces the
    64-bit output modulo n.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        return self.next_u64() % n

    def random(self) -> float:
        return self.next_u64() / 2.0**64


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one synthetic tree."""

    n: int
    important_count: int
    seed: int
    max_children: int = 8
    height_bias: float = 0.05
    weight_low: int = 1
    weight_high: int = 100

    def validate(self):
        if self.n < 1:
            raise InvalidSpec(f"n={self.n} must be >= 1")
        if not 0 <= self.important_count <= self.n:
            raise InvalidSpec(f"important_count={self.important_count} outside 0..{self.n}")
        if self.max_children < 1:
            raise InvalidSpec(f"max_children={self.max_children} must be >= 1")
        if not 0.0 < self.height_bias <= 1.0:
            raise InvalidSpec(f"height_bias={self.height_bias} outside (0, 1]")
        if self.weight_low < 1 or self.weight_high < self.weight_low:
            raise InvalidSpec(
                f"weight bounds [{self.weight_low}, {self.weight_high}] invalid"
            )


def gen_random_tree(spec: GenSpec) -> WeightedTree:
    """Deterministic random tree for a (spec, seed) pair."""
    spec.validate()
    n = spec.n
    rng = Splitmix64(spec.seed)

    parent = [-1] * n
    child_count = [0] * n
    eligible = [0]  # nodes still below max_children
    slot = [0] * n  # position of each node inside `eligible`
    last = 0
    for i in range(1, n):
        if rng.random() < spec.height_bias and child_count[last] < spec.max_children:
            p = last
        else:
            p = eligible[rng.randrange(len(eligible))]
        parent[i] = p
        child_count[p] += 1
        if child_count[p] == spec.max_children:
            moved = eligible[-1]
            eligible[slot[p]] = moved
            slot[moved] = slot[p]
            eligible.pop()
        slot[i] = len(eligible)
        eligible.append(i)
        last = i

    weights = [0.0] * n
    pool = list(range(n))
    for j in range(spec.important_count):
        r = j + rng.randrange(n - j)
        pool[j], pool[r] = pool[r], pool[j]
        weights[pool[j]] = float(
            spec.weight_low + rng.randrange(spec.weight_high - spec.weight_low + 1)
        )

    ids = [f"n{i}" for i in range(n)]
    return WeightedTree(ids, parent, weights)


def parse_tree_tsv(path) -> WeightedTree:
    """Read a tree file in one pass over its text.

    All fields are split at once and handed to
    ``WeightedTree.from_parent_ids`` as flat lists; only a file that fails
    the bulk checks is scanned line by line, to name the first bad line in
    its MalformedLine.  Raises MalformedLine, or any error of
    ``from_parent_ids``.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = [line for line in text.split("\n") if line and line[0] != "#"]
    if not lines:
        raise NoRoot("empty node list")
    tabs = list(map(str.count, lines, repeat("\t")))
    widths = set(tabs)
    if not widths <= {2, 3}:
        _raise_malformed(text)
    width = 4 if 3 in widths else 3
    if len(widths) > 1:
        # pad 3-column lines with an empty label, which means "use the id"
        lines = [line if t == 3 else line + "\t" for line, t in zip(lines, tabs)]
    fields = "\t".join(lines).split("\t")
    ids = fields[0::width]
    if not all(ids) or _NO_PARENT in ids:
        _raise_malformed(text)
    try:
        weights = list(map(float, fields[2::width]))
    except ValueError:
        _raise_malformed(text)
    labels = None
    if width == 4:
        labels = [label or node_id for label, node_id in zip(fields[3::4], ids)]
    return WeightedTree.from_parent_ids(
        ids, fields[1::width], weights, labels, root_parent=_NO_PARENT
    )


def _raise_malformed(text: str):
    """Raise MalformedLine for the first line that breaks the schema."""
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            raise MalformedLine(line_no, f"expected 3 or 4 columns, got {len(parts)}")
        node_id, weight_text = parts[0], parts[2]
        if not node_id:
            raise MalformedLine(line_no, "empty node id")
        if node_id == _NO_PARENT:
            raise MalformedLine(line_no, f"node id {_NO_PARENT!r} is reserved for the root's parent")
        try:
            float(weight_text)
        except ValueError:
            raise MalformedLine(line_no, f"bad weight {weight_text!r}") from None
    raise AssertionError("no malformed line found")


def _format_weight(w: float) -> str:
    return str(int(w)) if w == int(w) else repr(w)


def _check_writable(tree: WeightedTree):
    """Raise MalformedLine for the first node whose line would not parse back."""
    ids, labels = tree.ids, tree.labels
    # scans of joined text clear a good tree without a per-node loop
    text = "".join(ids) + "".join(labels)
    if not (
        "" in tree._id_to_index
        or _NO_PARENT in tree._id_to_index
        or "\n#" in "\n" + "\n".join(ids)
        or "\t" in text
        or "\n" in text
        or "\r" in text
    ):
        return
    for line_no, (node_id, label) in enumerate(zip(ids, labels), start=1):
        if node_id in ("", _NO_PARENT) or node_id[0] == "#":
            raise MalformedLine(line_no, f"node id {node_id!r} cannot be written")
        for name, value in (("id", node_id), ("label", label)):
            if "\t" in value or "\n" in value or "\r" in value:
                raise MalformedLine(line_no, f"node {name} {value!r} holds a tab or line break")


def write_tree_tsv(tree: WeightedTree, path) -> None:
    """Write a tree file that parses back to an isomorphic tree.

    Raises MalformedLine, naming the line it would have written, before
    creating any file if an id is empty, ``-`` or starts with ``#``, or an
    id or label holds a tab or line break.
    """
    _check_writable(tree)
    ids, labels = tree.ids, tree.labels
    with_labels = labels != ids
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        for i, (p, w) in enumerate(zip(tree.parent.tolist(), tree.feq.tolist())):
            cols = [ids[i], _NO_PARENT if p < 0 else ids[p], _format_weight(w)]
            if with_labels:
                cols.append(labels[i])
            fh.write("\t".join(cols) + "\n")
    os.replace(tmp, path)
