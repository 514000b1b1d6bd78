"""Rooted weighted trees stored as flat parallel arrays.

A WeightedTree is built once and never mutated.  Nodes are addressed by dense
integer indices in input-record order; the external string ids map to indices
through ``tree.index()``.  Ids are resolved here only: the constructor, or
``from_parent_ids`` for parents given by id (the TSV parser, ``build_tree``),
builds the one id -> index dict, which is the one duplicate check.
Construction is a fixed number of numpy passes with no per-node Python loop:

  * the children of every node come from a stable argsort of the parent
    array (compressed rows, child order is input order);
  * the depth-first tour is a successor list over 2n enter/exit events:
    enter(v) goes to v's first child, or to exit(v) for a leaf; exit(v) goes
    to v's next sibling, or to exit(parent) for a last child.  Pointer
    jumping ranks it in ceil(log2 2n) rounds (the Euler-tour technique with
    list ranking, Tarjan & Vishkin 1985);
  * the tour positions give everything else: subtree sizes, levels (one
    cumsum of +1 per enter and -1 per exit), preorder and postorder ranks.

A node left off the root's tour sits on a parent cycle.  Subtree sizes make
"y is a descendant of x" a single interval test:
pre_rank[x] <= pre_rank[y] < pre_rank[x] + subtree_size[x].

Child order is input order and defines every deterministic traversal and
tie-break downstream.  Each per-node number is stored once, as a read-only
int64 or float64 numpy array, and one element of it reads as a Python int or
float; pure-Python loops take ``.tolist()`` copies once per call.
``children`` and ``subtree_weight`` are filled the first time they are read,
so callers on hot paths read them once into a local.

EulerLcaIndex answers lowest-common-ancestor queries in O(1), one at a time
or as a vectorized batch, after an O(n log n) build: a sparse table of range
minima over the node levels in preorder (Bender & Farach-Colton 2000).  Its
``_closure`` serves both the reduction and the closeness distance.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    CycleDetected,
    DuplicateId,
    InvalidK,
    MultipleRoots,
    NegativeWeight,
    NoRoot,
    NonFiniteWeight,
    OrphanParentReference,
    UnknownNode,
)


class WeightedTree:
    """Immutable rooted tree with finite, non-negative node weights.

    ``score_levels`` normally aliases ``levels``; a reduced tree built by
    ``treesum.reduction.vtree`` overrides it with the levels the nodes had in
    the original tree, which is what the correlation function must see.
    """

    __slots__ = (
        "n",
        "ids",
        "labels",
        "parent",
        "feq",
        "levels",
        "score_levels",
        "root",
        "pre_order",
        "pre_rank",
        "post_order",
        "subtree_size",
        "important",
        "important_pre",
        "height",
        "_id_to_index",
        "_children",
        "_subtree_weight",
        # the compressed rows behind ``children``
        "_child_order",
        "_child_start",
    )

    def __init__(
        self,
        ids: Sequence[str],
        parent: Sequence[int],
        feq: Sequence[float],
        labels: Optional[Sequence[str]] = None,
        score_levels: Optional[Sequence[int]] = None,
    ):
        ids = list(ids)
        self._build(ids, _index_ids(ids), parent, feq, labels, score_levels)

    @classmethod
    def from_parent_ids(cls, ids, parent_ids, feq, labels=None, root_parent=None) -> "WeightedTree":
        """A tree whose parents are given by id, ``root_parent`` for the root.

        Raises DuplicateId for the first repeated id, OrphanParentReference
        for the first parent id, in input order, that names no node, or any
        error of the constructor.  The id index built here is the tree's.
        """
        ids = list(ids)
        index = _index_ids(ids)
        if root_parent in index:
            raise ValueError(f"id {root_parent!r} is the root's parent marker")
        index[root_parent] = -1
        parent = list(map(index.get, parent_ids))
        del index[root_parent]
        if None in parent:
            i = parent.index(None)
            raise OrphanParentReference(
                f"node {ids[i]!r} references unknown parent {parent_ids[i]!r}"
            )
        tree = cls.__new__(cls)
        tree._build(ids, index, parent, feq, labels, None)
        return tree

    def _build(self, ids: list, index: dict, parent, feq, labels, score_levels):
        n = len(ids)
        if n == 0:
            raise NoRoot("empty node list")
        if len(parent) != n or len(feq) != n:
            raise ValueError("ids, parent and feq must have equal length")

        self.n = n
        self.ids = ids
        self.labels = ids if labels is None else list(labels)
        self._id_to_index = index
        par = np.array(parent, dtype=np.int64)
        weights = np.array(feq, dtype=np.float64)

        roots = np.flatnonzero(par < 0)
        if roots.size == 0:
            raise NoRoot("no parentless record found")
        if roots.size > 1:
            raise MultipleRoots(f"nodes {[self.ids[i] for i in roots]} all lack a parent")
        root = self.root = int(roots[0])

        bad = np.flatnonzero(~np.isfinite(weights))
        if bad.size:
            i = bad[0]
            raise NonFiniteWeight(f"node {self.ids[i]!r} has weight {weights[i]}")
        bad = np.flatnonzero(weights < 0)
        if bad.size:
            i = bad[0]
            raise NegativeWeight(f"node {self.ids[i]!r} has weight {weights[i]}")
        # every score and DP value is bounded by the total
        with np.errstate(over="ignore"):
            total = weights.sum()
        if not np.isfinite(total):
            raise NonFiniteWeight(f"the total weight, {total}, is not finite")
        bad = np.flatnonzero(par >= n)
        if bad.size:
            i = bad[0]
            raise OrphanParentReference(f"node {self.ids[i]!r} references index {par[i]}")

        # Children as compressed rows: the root sorts first (its parent is the
        # only negative one), every other node lands in its parent's run, and
        # the stable sort keeps each run in input order.
        child_order = np.argsort(par, kind="stable")[1:]
        child_parent = par[child_order]
        child_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(child_parent, minlength=n), out=child_start[1:])
        self._child_order = _frozen(child_order)
        self._child_start = _frozen(child_start)
        self._children = None
        self._subtree_weight = None

        # Successor of each tour event: enter(v) = v, exit(v) = n + v.  The
        # root's exit points at itself and ends the tour.
        nodes = np.arange(n)
        succ = np.empty(2 * n, dtype=np.int64)
        succ[:n] = nodes + n
        inner = np.flatnonzero(child_start[1:] > child_start[:-1])
        succ[inner] = child_order[child_start[inner]]
        succ[n + child_order] = n + child_parent
        sibling = np.flatnonzero(child_parent[1:] == child_parent[:-1])
        succ[n + child_order[sibling]] = child_order[sibling + 1]
        succ[n + root] = n + root

        # Pointer jumping: after round r, dist[e] counts the steps from e
        # towards the end of its list, up to 2**r.
        dist = np.ones(2 * n, dtype=np.int64)
        dist[n + root] = 0
        nxt = succ
        for _ in range((2 * n).bit_length()):
            dist += dist[nxt]
            nxt = nxt[nxt]
        if dist[root] != 2 * n - 1:
            missing = np.flatnonzero(nxt[:n] != n + root)
            raise CycleDetected(
                f"nodes unreachable from the root: {[self.ids[i] for i in missing[:5]]}"
            )

        pos = dist[root] - dist
        enter = pos[:n]
        size = (pos[n:] - enter + 1) // 2
        step = np.empty(2 * n, dtype=np.int64)
        step[enter] = 1
        step[pos[n:]] = -1
        levels = np.cumsum(step)[enter] - 1
        pre_rank = (enter + levels) // 2
        pre_order = np.empty(n, dtype=np.int64)
        pre_order[pre_rank] = nodes
        post_order = np.empty(n, dtype=np.int64)
        post_order[pre_rank - levels + size - 1] = nodes

        self.parent = _frozen(par)
        self.feq = _frozen(weights)
        self.levels = _frozen(levels)
        self.pre_rank = _frozen(pre_rank)
        self.pre_order = _frozen(pre_order)
        self.post_order = _frozen(post_order)
        self.subtree_size = _frozen(size)
        if score_levels is None:
            self.score_levels = self.levels
        else:
            if len(score_levels) != n:
                raise ValueError("score_levels length mismatch")
            self.score_levels = _frozen(np.array(score_levels, dtype=np.int64))

        weighted = weights > 0
        self.important = _frozen(np.flatnonzero(weighted))
        self.important_pre = _frozen(pre_order[weighted[pre_order]])
        self.height = int(levels.max())

    @property
    def children(self) -> list:
        """Child lists in input order, built from the compressed rows on first use."""
        kids = self._children
        if kids is None:
            order = self._child_order.tolist()
            start = self._child_start.tolist()
            kids = self._children = [order[a:b] for a, b in zip(start, start[1:])]
        return kids

    @property
    def subtree_weight(self) -> np.ndarray:
        """Subtree weight sums (self-inclusive), read-only, built on first use.

        The sums go one level at a time, deepest first, so every node is
        complete before it is added to its parent; within a level the nodes
        stay in preorder, so each parent adds its children in child order,
        exactly as a post-order pass would.
        """
        af = self._subtree_weight
        if af is None:
            af = np.array(self.feq)
            levels = self.levels
            by_depth = self.pre_order[np.argsort(levels[self.pre_order], kind="stable")]
            to_parent = self.parent[by_depth]
            bounds = np.cumsum(np.bincount(levels)).tolist()
            for d in range(len(bounds) - 1, 0, -1):
                lo, hi = bounds[d - 1], bounds[d]
                np.add.at(af, to_parent[lo:hi], af[by_depth[lo:hi]])
            af = self._subtree_weight = _frozen(af)
        return af

    # -- lookups --------------------------------------------------------

    def index(self, node_id: str) -> int:
        try:
            return self._id_to_index[node_id]
        except KeyError:
            raise UnknownNode(f"unknown node id {node_id!r}") from None

    def indices(self, node_ids: Iterable[str]) -> list:
        return [self.index(i) for i in node_ids]

    def check_node(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise UnknownNode(f"node index {v} out of range")
        return v

    def check_k(self, k: int):
        if not 1 <= k <= self.n:
            raise InvalidK(f"k={k} outside 1..{self.n}")

    def is_ancestor(self, x: int, y: int) -> bool:
        """True when x is a (self-inclusive) ancestor of y."""
        rx = self.pre_rank[x]
        return rx <= self.pre_rank[y] < rx + self.subtree_size[x]

    def _nearest_selected(self, selected, nodes) -> np.ndarray:
        """Nearest self-inclusive ancestor in ``selected`` (distinct valid
        indices) of each of ``nodes`` (valid indices), or -1 where none is.

        Selected subtrees are nested or disjoint preorder intervals: a node
        starts at the last member at or before it in preorder and climbs the
        members' nearest selected proper ancestors until an interval holds it.
        """
        members = np.fromiter(selected, dtype=np.int64, count=len(selected))
        members = members[np.argsort(self.pre_rank[members])]
        lo = self.pre_rank[members]
        # position -1 is a sentinel: no member, with an interval holding every node
        ends = (lo + self.subtree_size[members]).tolist() + [self.n]
        up = []
        stack = [-1]
        for i, start in enumerate(lo.tolist()):
            while ends[stack[-1]] <= start:
                stack.pop()
            up.append(stack[-1])
            stack.append(i)
        up = np.array(up, dtype=np.int64)
        hi = np.array(ends)

        rank = self.pre_rank[np.asarray(nodes, dtype=np.int64)]
        at = np.searchsorted(lo, rank, side="right") - 1
        todo = np.arange(len(at))
        while todo.size:
            cur = at[todo]
            outside = rank[todo] >= hi[cur]
            todo = todo[outside]
            at[todo] = up[cur[outside]]
        return np.append(members, -1)[at]

    def total_weight(self) -> float:
        return sequential_sum(self.feq[self.important])

    def __repr__(self):
        return (
            f"WeightedTree(n={self.n}, important={len(self.important)}, "
            f"height={self.height}, root={self.ids[self.root]!r})"
        )


class _NodeArray(np.ndarray):
    """A per-node array of a tree whose single elements read as Python
    scalars, as list items did, so values that reach results, JSON or text
    keep plain Python types.

    Arrays taken from it, by indexing or by ufuncs, are plain ndarrays, so
    only the read from the tree itself runs Python code.
    """

    def __getitem__(self, key):
        out = np.ndarray.__getitem__(self, key)
        return out.item() if isinstance(out, np.generic) else out.view(np.ndarray)

    def __array_wrap__(self, out, context=None, return_scalar=False):
        return out[()] if return_scalar else out


def _frozen(values: np.ndarray) -> np.ndarray:
    """``values`` made read-only and viewed as a _NodeArray."""
    values.flags.writeable = False
    return values.view(_NodeArray)


def sequential_sum(terms: np.ndarray) -> float:
    """Left-to-right float sum of ``terms``, as a ``+=`` loop adds them.

    ``np.sum`` adds pairwise and, from Python 3.12, the builtin ``sum``
    compensates, so neither reproduces a loop's result bit for bit.
    """
    return float(np.cumsum(terms)[-1]) if len(terms) else 0.0


def _index_ids(ids: list) -> dict:
    """The id -> index dict of ``ids``; DuplicateId names the first repeat."""
    index = dict(zip(ids, range(len(ids))))
    if len(index) != len(ids):
        seen = set()
        for node_id in ids:
            if node_id in seen:
                raise DuplicateId(f"duplicate node id {node_id!r}")
            seen.add(node_id)
    return index


def build_tree(records) -> WeightedTree:
    """Build a WeightedTree from (id, parent_id, weight[, label]) records.

    ``records`` is an iterable of mappings with keys ``id``, ``parent``
    (None for the root), ``weight`` and optional ``label``.  Child order is
    record order.  Raises DuplicateId, MultipleRoots, NoRoot,
    OrphanParentReference, CycleDetected, NonFiniteWeight or NegativeWeight.
    """
    records = list(records)
    ids = [rec["id"] for rec in records]
    return WeightedTree.from_parent_ids(
        ids,
        [rec.get("parent") for rec in records],
        [float(rec["weight"]) for rec in records],
        [rec.get("label") or node_id for rec, node_id in zip(records, ids)],
    )


class EulerLcaIndex:
    """O(1) LCA queries by range minima over levels in preorder.

    For nodes u != v with pre(u) < pre(v), the lowest common ancestor is the
    parent of any minimum-level node among preorder positions
    pre(u)+1 .. pre(v): that range holds v's ancestors below the LCA and
    their earlier siblings' subtrees, and its shallowest nodes are children
    of the LCA (Bender & Farach-Colton 2000).

    ``table[j][i]`` covers the preorder window [i, i + 2**j) and holds
    ``level * n + position`` of its minimum-level position, so a window
    minimum is a plain ``min`` of two keys.  Row j has n - 2**j + 1 entries.
    The rows are views into one buffer, so ``lca_many`` answers a whole
    batch with a few gathers.
    """

    __slots__ = ("tree", "table", "_flat", "_parent_pre")

    def __init__(self, tree: WeightedTree):
        self.tree = tree
        n = tree.n
        pre_order = tree.pre_order
        n_rows = n.bit_length()
        # keys stay below (height + 1) * n; 32 bits halve the table when they fit
        dtype = np.int32 if (tree.height + 1) * n < 2**31 else np.int64
        flat = np.empty(n_rows * n, dtype=dtype)
        row = flat[:n]
        np.multiply(tree.levels[pre_order], n, out=row)
        row += np.arange(n)
        table = [row]
        for j in range(1, n_rows):
            half = 1 << (j - 1)
            prev = table[-1]
            row = flat[j * n : j * n + n - 2 * half + 1]
            np.minimum(prev[: len(prev) - half], prev[half:], out=row)
            table.append(row)
        self.table = table
        self._flat = flat
        self._parent_pre = tree.parent[pre_order]

    def lca(self, a: int, b: int) -> int:
        """Deepest common ancestor of a and b (self-inclusive)."""
        return int(self.lca_many(a, b))

    def lca_many(self, a, b) -> np.ndarray:
        """Elementwise ``lca`` over two broadcastable arrays of node indices."""
        tree = self.tree
        n = tree.n
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        for side in (a, b):
            bad = np.flatnonzero((side < 0) | (side >= n))
            if bad.size:
                tree.check_node(int(side.flat[bad[0]]))
        pre_rank = tree.pre_rank
        ra = pre_rank[a]
        rb = pre_rank[b]
        hi = np.maximum(ra, rb)
        # equal nodes get the one-entry window at their own position; the
        # answer is replaced by the node itself below
        lo = np.minimum(np.minimum(ra, rb) + 1, hi)
        j = np.frexp(hi - lo + 1)[1].astype(np.int64) - 1
        base = j * n
        flat = self._flat
        key = np.minimum(flat[base + lo], flat[base + hi - (1 << j) + 1])
        return np.where(a == b, a, self._parent_pre[key % n])

    def _closure(self, nodes):
        """The LCA closure of ``nodes`` (valid indices, repeats allowed) in
        preorder, and the position of each kept node's nearest kept proper
        ancestor (-1 for the first, an ancestor of all).  Every subset's LCA
        is the LCA of a pair consecutive in preorder, and in a closed set a
        node's LCA with the kept node before it is its nearest kept ancestor."""
        pre_rank, pre_order = self.tree.pre_rank, self.tree.pre_order
        # a repeat only adds LCA(v, v) = v, which the de-duplication drops
        nodes = pre_order[np.sort(pre_rank[nodes])]
        rank = np.sort(pre_rank[np.append(nodes, self.lca_many(nodes[:-1], nodes[1:]))])
        rank = rank[np.diff(rank, prepend=-1) > 0]
        kept = pre_order[rank]
        up = np.searchsorted(rank, pre_rank[self.lca_many(kept[:-1], kept[1:])])
        return kept, np.append(-1, up)
