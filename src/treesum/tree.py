"""Rooted weighted trees stored as flat parallel arrays.

A WeightedTree is built once and never mutated.  Nodes are addressed by dense
integer indices in input-record order; the external string ids map to indices
through ``tree.index()``, whose dict is built on the first lookup.  The
constructor checks the ids for repeats with a set.  ``from_parent_ids``, for
parents given by id (``build_tree``, and the TSV parser for a file whose
bytes resolve no parents), resolves them through a dict that it keeps as
the tree's index; the TSV parser resolves every other file's parents from
its bytes and builds no dict.  Such a tree holds its id and label columns
undecoded, the file's bytes and each row's extent, and ``ids`` and
``labels`` are decoded on first read; until then ``_ids_at`` and
``_labels_at`` decode only the rows asked for, so ``vtree`` makes strings of
the kept nodes alone.  The tree drops the file's bytes once no column is
left undecoded.
Construction runs numpy passes only, with no per-node Python loop:

  * the children of every node come from a stable sort of the parent
    array, two passes of a 16-bit radix sort (compressed rows, child order
    is input order);
  * subtree sizes come from doubling along the parent pointers, with a
    sentinel above the root (pointer jumping, Wyllie 1979): in round j every
    node adds the count it holds to its 2**j-th ancestor's and then points
    at that ancestor's 2**j-th ancestor;
  * one exclusive cumsum of the sizes over the compressed rows gives each
    node the size of its earlier siblings' subtrees, and a second doubling
    sums 1 + that offset, and 1, along every root path: the preorder ranks
    and the levels.  Postorder ranks follow from those and the sizes.

Each doubling takes ceil(log2(h + 1)) rounds over n + 1 entries for a tree of
height h, so the build does O(n log h) work.  A node on a parent cycle, or
below one, never reaches the sentinel; the first doubling stops after
n.bit_length() + 1 rounds and names the nodes that did not.

Subtree sizes make "y is a descendant of x" a single interval test:
pre_rank[x] <= pre_rank[y] < pre_rank[x] + subtree_size[x].  The same
intervals find, for a batch of nodes, each one's nearest self-inclusive
ancestor in a selected set with three ``searchsorted`` calls
(``_nearest_at``).  The weighted nodes' preorder ranks, weights, levels and
score levels are kept in preorder as arrays of their own, so the scorers
that ask about every weighted node read contiguous arrays.

``subtree_weight`` folds only the support, the weighted nodes and their
ancestors, which a climb from those nodes marks; every other node's sum is
its own weight, +0.0.  It orders the support by depth with the same two-pass
radix sort, of the levels in preorder, so each level keeps its nodes in
preorder; it then adds one level into its parents at a time, deepest first.
A -0.0 weight makes it fold every node, as the sign of a zero sum then
depends on the whole subtree.

Child order is input order and defines every deterministic traversal and
tie-break downstream.  Each per-node number is stored once, as a read-only
int64 or float64 numpy array, and one element of it reads as a Python int or
float; pure-Python loops take ``.tolist()`` copies once per call.
``children`` and ``subtree_weight`` are filled the first time they are read,
so callers on hot paths read them once into a local.

EulerLcaIndex answers lowest-common-ancestor queries as minima over windows
of one key row of n entries, the node levels in preorder (Bender &
Farach-Colton 2000), built in O(n).  One routine answers them all: windows
that follow each other, reduced by one ``np.minimum.reduceat`` pass.
``_closure`` asks for a whole closure's windows at once; ``lca`` asks for
the one window between two nodes, at a cost linear in its length.  The
index keeps one closure, of the root and the weighted nodes, as an
``LcaClosure`` that ``vtree`` builds and takes its nodes and links from; the
closeness distance of members inside it reads it with no closure of its
own.
"""
from __future__ import annotations

from functools import cached_property
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


# one level in the tree build's packed (level, preorder rank) path sums
_LEVEL = 1 << 32


class WeightedTree:
    """Immutable rooted tree with finite, non-negative node weights.

    ``score_levels`` normally aliases ``levels``; a reduced tree built by
    ``treesum.reduction.vtree`` overrides it with the levels the nodes had in
    the original tree, which is what the correlation function must see.
    """

    __slots__ = (
        "n",
        # the id and label lists, or a file's columns not yet decoded; a
        # None ``_labels`` means the labels are the ids
        "_ids",
        "_labels",
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
        # the weighted nodes' preorder ranks, weights, levels and score
        # levels, in preorder, as important_pre lists them
        "important_rank",
        "important_feq",
        "important_levels",
        "important_score_levels",
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
        if len(set(ids)) != len(ids):
            _raise_duplicate(ids)
        self._build(ids, *_copies(parent, feq, labels), score_levels)

    @classmethod
    def from_parent_ids(cls, ids, parent_ids, feq, labels=None, root_parent=None) -> "WeightedTree":
        """A tree whose parents are given by id, ``root_parent`` for the root.

        Raises DuplicateId for the first repeated id, OrphanParentReference
        for the first parent id, in input order, that names no node, or any
        error of the constructor.  The dict that resolves the parent ids
        becomes the tree's id index, so the tree builds no second one.
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
        tree = cls._from_distinct_ids(ids, *_copies(parent, feq, labels))
        tree._id_to_index = index
        return tree

    @classmethod
    def _from_distinct_ids(cls, ids, par, weights, labels=None) -> "WeightedTree":
        """The constructor for ``ids`` the caller has already checked
        distinct; the tree takes over all its arguments, as ``_build``
        does.  ``ids`` and ``labels`` may also be columns of a file that the
        tree decodes when they are first read: objects with ``len``, a
        ``decode()`` that gives the whole list and an ``at(rows)`` that
        gives the fields of some rows."""
        tree = cls.__new__(cls)
        tree._build(ids, par, weights, labels, None)
        return tree

    def _build(self, ids, par: np.ndarray, weights: np.ndarray, labels, score_levels):
        """Build from arrays and lists the tree takes over: ``par`` (int64)
        and ``weights`` (float64) become its read-only ``parent`` and
        ``feq``, and ``ids`` and ``labels`` its id and label lists, or the
        columns it decodes into them."""
        n = len(ids)
        if n == 0:
            raise NoRoot("empty node list")
        if len(par) != n or len(weights) != n:
            raise ValueError("ids, parent and feq must have equal length")

        self.n = n
        self._ids = ids
        self._labels = labels
        self._id_to_index = None

        roots = np.flatnonzero(par < 0)
        if roots.size == 0:
            raise NoRoot("no parentless record found")
        if roots.size > 1:
            raise MultipleRoots(f"nodes {self._ids_at(roots)} all lack a parent")
        root = self.root = int(roots[0])

        bad = np.flatnonzero(~np.isfinite(weights))
        if bad.size:
            i = bad[0]
            raise NonFiniteWeight(f"node {self._ids_at([i])[0]!r} has weight {weights[i]}")
        bad = np.flatnonzero(weights < 0)
        if bad.size:
            i = bad[0]
            raise NegativeWeight(f"node {self._ids_at([i])[0]!r} has weight {weights[i]}")
        # every score and DP value is bounded by the total
        with np.errstate(over="ignore"):
            total = weights.sum()
        if not np.isfinite(total):
            raise NonFiniteWeight(f"the total weight, {total}, is not finite")
        bad = np.flatnonzero(par >= n)
        if bad.size:
            i = bad[0]
            raise OrphanParentReference(f"node {self._ids_at([i])[0]!r} references index {par[i]}")

        # Children as compressed rows: the root sorts first (its parent is the
        # only negative one), every other node lands in its parent's run, and
        # the stable sort keeps each run in input order.
        child_order = _stable_argsort32(par + 1)[1:]
        child_parent = par[child_order]
        child_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(child_parent, minlength=n), out=child_start[1:])
        self._child_order = _frozen(child_order)
        self._child_start = _frozen(child_start)
        self._children = None
        self._subtree_weight = None

        # Doubling along the parent pointers, with a sentinel n above the
        # root.  After round j, anc[v] is v's 2**j-th ancestor, or the
        # sentinel, and size[v] counts v's descendants less than 2**j below
        # it (the sentinel's own count is never read).  The root's count
        # reaches n in the round in which every pointer reaches the sentinel.
        # Counts are float64, the weight type of bincount.  Each work array
        # is dropped once spent, so the peak stays near what the tree keeps.
        up = np.empty(n + 1, dtype=np.int64)
        up[:n] = par
        up[root] = up[n] = n
        size = np.ones(n + 1)
        anc = up
        rounds = 0
        while size[root] != n:
            if rounds > n.bit_length():
                missing = np.flatnonzero(anc[:n] != n)
                raise CycleDetected(
                    f"nodes unreachable from the root: {self._ids_at(missing[:5])}"
                )
            size += np.bincount(anc, size)
            anc = anc[anc]
            rounds += 1
        del anc
        size = size[:n].astype(np.int64)

        # A child's preorder rank is its parent's plus one plus the sizes of
        # its earlier siblings: one exclusive cumsum over the compressed rows.
        # The same doubling sums those steps along each root path, with the
        # level (one per step) packed above bit 32 of the same sum.  Ranks
        # and levels stay below n, so the packing holds for n < 2**31.
        before = np.zeros(n, dtype=np.int64)
        np.cumsum(size[child_order], out=before[1:])
        acc = np.zeros(n + 1, dtype=np.int64)
        acc[child_order] = before[:-1] - before[child_start[child_parent]] + (_LEVEL + 1)
        del before, child_parent
        anc = up
        for _ in range(rounds):
            acc += acc[anc]
            anc = anc[anc]
        del anc, up
        levels = acc[:n] >> 32
        pre_rank = acc[:n] & (_LEVEL - 1)
        del acc
        nodes = np.arange(n)
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
        rank = np.flatnonzero(weighted[pre_order])
        imp = pre_order[rank]
        self.important_rank = _frozen(rank)
        self.important_pre = _frozen(imp)
        self.important_feq = _frozen(weights[imp])
        self.important_levels = _frozen(levels[imp])
        if score_levels is None:
            self.important_score_levels = self.important_levels
        else:
            self.important_score_levels = _frozen(self.score_levels[imp])
        self.height = int(levels.max())

    @property
    def ids(self) -> list:
        """The node ids, by index, decoded from the file's column on first
        read when the tree was parsed in bulk."""
        ids = self._ids
        if not isinstance(ids, list):
            ids = self._ids = ids.decode()
        return ids

    @property
    def labels(self) -> list:
        """The node labels, by index; ``ids`` itself when the tree has none.
        Decoded on first read, as ``ids`` is."""
        labels = self._labels
        if labels is None:
            return self.ids
        if not isinstance(labels, list):
            labels = self._labels = labels.decode()
        return labels

    def _ids_at(self, nodes) -> list:
        """The ids of ``nodes`` (valid indices), in order, read from the id
        list, or decoded from just their rows while the column is not."""
        return _strings_at(self._ids, nodes)

    def _labels_at(self, nodes) -> Optional[list]:
        """The labels of ``nodes``, as ``_ids_at`` gives their ids, or None
        when the tree's labels are its ids, as the constructor takes it."""
        labels = self._labels
        return None if labels is None else _strings_at(labels, nodes)

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

        Only the support is folded: the weighted nodes and their ancestors.
        A node outside it has no weight below it, so its sum is its own
        +0.0, and a support node skips exactly those children.  That changes
        no bit: each running sum starts at a weight >= +0.0, is never -0.0,
        and ``x + 0.0 == x`` for every such ``x``.  When a weight is -0.0,
        whether a zero sum is +0.0 or -0.0 depends on the whole subtree, so
        every node is folded.

        The climb that finds the support takes one numpy step per level and
        stops where it meets a node already reached, so a deep tree with few
        weighted nodes pays for it: on a 70,000-level spine with one weighted
        leaf the build takes about 1.5 times the fold of every node.
        """
        af = self._subtree_weight
        if af is None:
            af = np.array(self.feq)
            nodes = np.asarray(self.pre_order)
            if not np.signbit(af).any():
                # climb from the weighted nodes until every path meets a node
                # already reached, clearing ``fresh`` for each; the root's
                # parent, -1, reads the sentinel slot n, cleared from the start
                fresh = np.ones(self.n + 1, dtype=bool)
                fresh[-1] = False
                parent = np.asarray(self.parent)
                step = np.asarray(self.important)
                while step.size:
                    fresh[step] = False
                    step = parent[step]
                    step = step[fresh[step]]
                nodes = nodes[~fresh[nodes]]
            levels = self.levels[nodes]
            by_depth = nodes[_stable_argsort32(levels)]
            to_parent = self.parent[by_depth]
            bounds = np.cumsum(np.bincount(levels)).tolist()
            for d in range(len(bounds) - 1, 0, -1):
                lo, hi = bounds[d - 1], bounds[d]
                np.add.at(af, to_parent[lo:hi], af[by_depth[lo:hi]])
            af = self._subtree_weight = _frozen(af)
        return af

    # -- lookups --------------------------------------------------------

    def index(self, node_id: str) -> int:
        """The index of ``node_id``; the id -> index dict is built on the
        first lookup."""
        index = self._id_to_index
        if index is None:
            index = self._id_to_index = _index_ids(self.ids)
        try:
            return index[node_id]
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
        indices) of each of ``nodes`` (valid indices), or -1 where none is."""
        return self._nearest_at(selected, self.pre_rank[np.asarray(nodes, dtype=np.int64)])

    def _nearest_at(self, selected, rank) -> np.ndarray:
        """``_nearest_selected`` of the nodes of preorder ranks ``rank``.

        Selected subtrees are nested or disjoint preorder intervals, so the
        members whose intervals hold a rank r form a chain.  Its length,
        held(r), is the number of members that start at or before r less
        the number that end there or before.  A member's depth is its own
        start's held, the members of one depth are disjoint, and so r's
        nearest member is the last one of depth held(r) that starts at or
        before r: one ``searchsorted`` of held(r) * n + r into the members'
        sorted keys depth * n + start.  With held(r) = 0 every key is
        larger, and position -1 reads the -1 appended for no member.
        """
        n = self.n
        members = np.fromiter(selected, dtype=np.int64, count=len(selected))
        start = self.pre_rank[members]
        end = np.sort(start + self.subtree_size[members])
        start.sort()

        def held(r):
            return np.searchsorted(start, r, side="right") - np.searchsorted(end, r, side="right")

        key = held(start) * n + start
        key.sort()
        at = np.searchsorted(key, held(rank) * n + rank, side="right") - 1
        return np.append(self.pre_order[key % n], -1)[at]

    def total_weight(self) -> float:
        return sequential_sum(self.feq[self.important])

    def __repr__(self):
        return (
            f"WeightedTree(n={self.n}, important={len(self.important)}, "
            f"height={self.height}, root={self._ids_at([self.root])[0]!r})"
        )


class _NodeArray(np.ndarray):
    """A per-node array of a tree whose single elements read as Python
    scalars, as list items did, so values that reach results, JSON or text
    keep plain Python types.

    Arrays taken from it, by indexing or by ufuncs, are plain ndarrays, so
    only the read from the tree itself runs Python code.

    A pickled or deep-copied one comes back read-only, in the canonical
    dtype: both round trips would otherwise rebuild it writeable, and pickle
    gives each array a dtype instance of its own, on which ufuncs such as
    ``np.add.at`` miss their fast paths.  Their memos keep arrays that were
    one object (``score_levels`` and ``levels``) one.
    """

    def __getitem__(self, key):
        out = np.ndarray.__getitem__(self, key)
        return out.item() if isinstance(out, np.generic) else out.view(np.ndarray)

    def __array_wrap__(self, out, context=None, return_scalar=False):
        return out[()] if return_scalar else out

    def __reduce__(self):
        return _frozen, (self.view(np.ndarray),)

    def __deepcopy__(self, memo):
        return _frozen(np.array(self))


def _strings_at(column, nodes) -> list:
    """The strings of ``nodes`` in an id or label list, or in a column that
    is not yet decoded."""
    if isinstance(column, list):
        return [column[v] for v in nodes]
    return column.at(nodes)


def _copies(parent, feq, labels):
    """Copies of a caller's parents, weights and labels, in the forms that
    ``_build`` takes over, so the caller's own stay as they were."""
    labels = None if labels is None else list(labels)
    return np.array(parent, dtype=np.int64), np.array(feq, dtype=np.float64), labels


def _stable_argsort32(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for int64 keys in [0, 2**32).

    It sorts by the low and then, if any key needs them, the high 16 bits,
    for which numpy's stable sort is a linear-time radix sort, where a sort
    of the int64 keys themselves compares.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    if keys.size and keys.max() >> 16:
        order = order[np.argsort((keys[order] >> 16).astype(np.uint16), kind="stable")]
    return order


def _frozen(values: np.ndarray) -> np.ndarray:
    """``values`` made read-only and viewed as a _NodeArray in the canonical
    instance of its dtype, converted to native byte order if need be."""
    dtype = np.dtype(values.dtype.type)
    values = values.astype(dtype, copy=False)
    values.flags.writeable = False
    return values.view(dtype, _NodeArray)


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
        _raise_duplicate(ids)
    return index


def _raise_duplicate(ids: list):
    """Raise DuplicateId for the first repeat in ``ids``."""
    seen = set()
    for node_id in ids:
        if node_id in seen:
            raise DuplicateId(f"duplicate node id {node_id!r}")
        seen.add(node_id)


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
    """LCA queries by window minima over levels in preorder.

    For nodes u != v with pre(u) < pre(v), the lowest common ancestor is the
    parent of any minimum-level node among preorder positions
    pre(u)+1 .. pre(v): that window holds v's ancestors below the LCA and
    their earlier siblings' subtrees, and its shallowest nodes are children
    of the LCA (Bender & Farach-Colton 2000).

    ``_keys[i]`` is ``level * n + i`` for preorder position i, so the least
    key of a window names a minimum-level position.  The build is two
    n-entry arrays.  Every query goes through ``_consecutive_lca_ranks``,
    one ``np.minimum.reduceat`` over windows that follow each other, which
    reads each key up to the last window's end once: ``_closure`` asks for a
    whole closure's windows, ``lca`` for the one window between two nodes.

    ``weighted_closure`` is None until ``vtree`` sets it to the
    ``LcaClosure`` of the root and the weighted nodes.  The index then
    keeps it, and the arrays the closeness distance derives from it, all
    read-only: ``vtree`` reads its nodes and links, and
    ``closeness_distance`` the rest.  ``closure_with`` builds an
    ``LcaClosure`` of any nodes and the weighted nodes, and the index keeps
    nothing of it.
    """

    __slots__ = ("tree", "_keys", "_parent_pre", "weighted_closure")

    def __init__(self, tree: WeightedTree):
        self.tree = tree
        self.weighted_closure = None
        n = tree.n
        # the row of levels is overwritten with each position's parent once
        # it has made the keys, so the build allocates only what it keeps
        keys = np.arange(n, dtype=np.int64)
        row = tree.levels[tree.pre_order]
        row *= n
        keys += row
        row[tree.pre_rank] = tree.parent
        self._keys = keys
        self._parent_pre = row

    def lca(self, a: int, b: int) -> int:
        """Deepest common ancestor of a and b (self-inclusive).  It costs the
        length of the window between their preorder positions."""
        tree = self.tree
        tree.check_node(a)
        tree.check_node(b)
        if a == b:
            return int(a)
        rank = np.sort(tree.pre_rank[[a, b]])
        return tree.pre_order[self._consecutive_lca_ranks(rank)[0]]

    def closure_with(self, nodes) -> "LcaClosure":
        """A new LCA closure of ``nodes`` (valid indices, repeats allowed) and
        the weighted nodes."""
        tree = self.tree
        return LcaClosure(tree, *self._closure(np.append(nodes, tree.important_pre)))

    def _closure(self, nodes):
        """The LCA closure of ``nodes`` (valid indices, at least one, repeats
        allowed) in preorder, and the position of each kept node's nearest
        kept proper ancestor (-1 for the first, an ancestor of all).  Every
        subset's LCA is the LCA of a pair consecutive in preorder, and in a
        closed set a node's LCA with the kept node before it is its nearest
        kept ancestor."""
        # a repeat only adds LCA(v, v) = v, which the de-duplication drops
        rank = _distinct(self.tree.pre_rank[nodes])
        rank = _distinct(np.append(rank, self._consecutive_lca_ranks(rank)))
        up = np.searchsorted(rank, self._consecutive_lca_ranks(rank))
        return self.tree.pre_order[rank], np.append(-1, up)

    def _consecutive_lca_ranks(self, rank):
        """Preorder ranks of the LCAs of neighbours in ``rank``, distinct
        ranks in ascending order.  Their windows rank[i] + 1 .. rank[i + 1]
        follow each other, so one reduction over the keys up to the last
        rank answers them all."""
        key = np.minimum.reduceat(self._keys[: rank[-1] + 1], rank[:-1] + 1)
        return self.tree.pre_rank[self._parent_pre[key % self.tree.n]]


class LcaClosure:
    """An LCA-closed node set that holds every weighted node, with what the
    closeness distance derives from it.  Every array is read-only.

    ``nodes`` holds the kept nodes in preorder, ``up[i]`` the position of
    node i's nearest kept proper ancestor (-1 for the first, an ancestor of
    all) and ``levels`` their levels; ``vtree`` reads these three.  The
    closeness distance also reads the rest, each built on first use:
    ``rank``, the nodes' preorder ranks; ``weighted_at``, the position of
    each of ``tree.important_pre``; ``bounds``, each position interleaved
    with the first position past its subtree, the windows of one
    ``np.minimum.reduceat``; and ``jumps``, where ``jumps[r]`` maps each
    position to its 2**r-th kept ancestor, or to position 0 when it has
    fewer.  The last jump maps every position to 0, so taking the minimum
    across each jump in turn reaches every kept ancestor of every node
    (pointer jumping).
    """

    def __init__(self, tree: WeightedTree, nodes: np.ndarray, up: np.ndarray):
        self._tree = tree
        self.nodes = _read_only(nodes)
        self.up = _read_only(up)
        self.levels = _read_only(tree.levels[nodes])

    @cached_property
    def rank(self) -> np.ndarray:
        return _read_only(self._tree.pre_rank[self.nodes])

    @cached_property
    def weighted_at(self) -> np.ndarray:
        # the kept nodes are in preorder, so their weighted ones are
        # important_pre in order
        return _read_only(np.flatnonzero(self._tree.feq[self.nodes] > 0))

    @cached_property
    def bounds(self) -> np.ndarray:
        rank = self.rank
        ends = np.searchsorted(rank, rank + self._tree.subtree_size[self.nodes])
        return _read_only(np.stack((np.arange(len(rank)), ends), 1).ravel())

    @cached_property
    def jumps(self) -> tuple:
        jump = self.up.copy()
        jump[0] = 0
        jumps = [_read_only(jump)]
        while jump.any():
            jump = _read_only(jump[jump])
            jumps.append(jump)
        return tuple(jumps)

    def find(self, rank: np.ndarray) -> Optional[np.ndarray]:
        """The positions of the nodes of preorder ranks ``rank``, or None when
        one of them is not kept."""
        at = np.searchsorted(self.rank, rank)
        return at if (self.rank.take(at, mode="clip") == rank).all() else None


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _lca_index(tree: WeightedTree, index: Optional[EulerLcaIndex]) -> EulerLcaIndex:
    """``index``, or a new LCA index of ``tree`` when it is None.  Raises
    ValueError when ``index`` was built for another tree."""
    if index is None:
        return EulerLcaIndex(tree)
    if index.tree is not tree:
        raise ValueError("the LCA index was built for another tree")
    return index


def _distinct(values: np.ndarray) -> np.ndarray:
    """Non-negative ``values`` sorted, repeats dropped; a sort and a mask
    cost less than ``np.unique``."""
    values = np.sort(values)
    return values[np.diff(values, prepend=-1) > 0]
