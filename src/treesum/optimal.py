"""Exact summarizer: dynamic programming over (node, budget, nearest ancestor).

The optimal summary of a subtree rooted at u, given a budget of b nodes and
the nearest already-selected ancestor ``na`` above u, is the better of two
cases:

  yes:  select u, then distribute b - 1 among the child subtrees, whose
        nearest selected ancestor becomes u;
  no:   keep na as the representative of u (worth feq(u) * cor(na, u),
        zero without na) and distribute all b among the children.

States are memoized per node as one float64 matrix ``memo[u]`` of shape
(levels[u] + 1, cap[u] + 1), cap[u] = min(k, subtree size): column b is the
budget, and each row is one nearest selected ancestor.  That ancestor always
lies on u's root path, so its depth names it: row 0 means no selected
ancestor, row levels[na] + 1 means ancestor na.  A child of u therefore reads
its first levels[u] + 1 rows exactly as u does, and its last row is the
case "u selected".  Every table is stored budget-major, one array entry per
budget with the rows along the inner axis: ``memo[u]`` and each kept table
are (rows, budgets) views of that storage.

Distributing u's budget over u's children is a small knapsack, and one
node-level kernel (``_tables``) solves it for every row u's cases read at
once: with G_i(b) the best total for children i.. with budget exactly b, G
is folded right to left by a max-plus convolution with each child's rows,
and every suffix table is kept so that ``_split`` can walk the winning
budgets out again.  A child's row is clamped at its cap, so overfull
assignments plateau instead of going infeasible: budgets may go unspent, and
the final answer is padded back to exactly k nodes with the
smallest-preorder leftovers (the objective is monotone, so padding never
hurts and the at-most-k optimum equals the exactly-k optimum).

The fold is size-bounded.  The rightmost child seeds it with its own rows;
each child to the left is merged over pairs (j, t) with j at most its cap
and t at most the suffix's total cap, and only budgets up to the merged
total cap are computed.  Every table stops there, and a budget past a
table's last column reads that column.  Memo rows never decrease with
budget, so every candidate the bounds drop is matched or beaten by one they
keep, and the values are the same floats as the unbounded fold.  The empty
suffix after the last child (``_seed``, one matrix shared by every node) is
0 at budget 0 and -inf past it, so the rightmost child takes whatever budget
is left, even beyond its cap.  Over the whole tree the bounded merges cost
O(n * k) per memo row (Johnson & Niemi 1983), and a node has at most h + 2
rows, so the evaluation is O(n * h * k).

One merge (``_max_plus``) is a fixed number of numpy calls per block of
``_BLOCK`` budgets of its shorter operand, not a pair of calls per budget.
The block's pairwise sums a[i] + g[j] are written into a budget-major
scratch of shape (block, lg + block, rows), whose last ``block`` budgets in
each plane are -inf.  Read flat with planes one budget shorter, plane i of
that scratch starts i budgets (i * rows floats) early, reaching back into
the -inf tail of plane i - 1, so every anti-diagonal i + j = b lines up at
budget b and one max over the outer axis, a maximum of contiguous slabs,
gives the block's part of the result.  Max is exact and ignores order
(entries are >= 0 or -inf, so no NaN or -0.0 arises), so the values are the
floats of the budget-by-budget loop.  Blocking keeps the scratch at
block * (lg + block) * rows floats, the order of the output, instead of
la * (la + lg) * rows.

Evaluation first does, in a fixed number of numpy calls per depth, the work
that needs no kernel.  Every node's base row, what each row's ancestor earns
by representing it, lies in one flat float64 array, ragged: Σ(levels + 1)
floats, filled depth by depth (a node's ancestor path is its parent's plus
the parent's score level) and then divided once (``_base_rows``).  Then the
bulk pass (``_evaluate_bulk``) takes the leaves and, at k > 0, the twigs
(nodes whose children are all leaves) and the one-branch nodes (children all
leaves but one, the branch, so a node with one child that is not a leaf is
one too) above them, in rounds: twigs first, and a one-branch node in the
round after its branch's.  Every merge these nodes make takes a leaf, two
columns, except the one of a branch's memo into the fold of the leaves
right of it, and all of a node's tables have its children's d + 2 rows.
So a round stacks its nodes' rows, -inf past each node's own columns, and
merges one child position for all of them in a few numpy calls per column
of the narrower operand: no row is padded to a common depth, as batching
other nodes would need.  The memo
rows and the yes-case follow from the per-node pass's float operations, bit
for bit.  The postorder then walks the other nodes bottom-up with no
recursion, one kernel call for each node with two or more children.  A node
with one child x, above a node the bulk pass did not take, merges nothing:
x's memo already is u's tables[0].  Its memo step writes one budget-major
matrix: each budget's entry is the base row plus that budget's head entry,
and the yes-case reads row d + 1 of the head entry one budget lower.
Every node's tables[0] may end one column short of cap[u] = 1 + the
children's total cap; that column repeats the one before it, in the memo as
in the reads, one contiguous copy.

Every node keeps its tables, ``_tables(u)``: its children's suffix tables
and then the seed, so a leaf keeps only the seed and a single child's memo
is kept with no copy.  The per-state queries (``_cases``) and the
reconstruction read them and merge nothing again.  Value–choice ties prefer
the no-case; knapsack split ties prefer the lexicographically smallest
budget vector.  One decision routine (``_decide``) picks a state's choice
and split, and ``dp_eval`` and ``reconstruct`` both use it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from .errors import InconsistentMemo, InvalidK, UnknownNode
from .result import SummaryResult
from .scoring import _g_unchecked
from .tree import WeightedTree, _stable_argsort32

_NEG = float("-inf")
_NO_ANCESTOR = -1
# budgets of the shorter operand per max-plus block: the scratch of one block
# is _BLOCK * (width + _BLOCK) * rows floats
_BLOCK = 16


@dataclass(frozen=True)
class DpKey:
    """One DP state: subtree root, budget, nearest selected ancestor (or None)."""

    node: int
    budget: int
    ancestor: Optional[int] = None


@dataclass(frozen=True)
class DpEntry:
    """Memoized value plus the reconstruction decision for a state."""

    value: float
    choice: str  # "yes" | "no"
    split: Tuple[int, ...]  # per-child budgets of the winning case


def _max_plus(a: np.ndarray, g: np.ndarray, width: int) -> np.ndarray:
    """Max-plus convolution of budget-major tables, c[b] = max over i + j = b
    of a[i] + g[j], each entry one budget's column of every row, for b below
    min(width, len(a) + len(g) - 1).

    Blocks the shorter operand by ``_BLOCK`` budgets and reduces each block's
    pairwise sums along their anti-diagonals, one maximum of contiguous
    slabs (see the module docstring); addition commutes exactly, so swapping
    the operands changes no value.
    """
    if len(a) > len(g):
        a, g = g, a
    lg, rows = g.shape
    size = min(width, len(a) + lg - 1)  # >= lg, as g comes cut to width
    la = min(len(a), size)  # budgets of a past size reach no budget
    block = min(la, _BLOCK)
    span = lg + block
    scratch = np.empty((block, span, rows))
    scratch[:, lg:] = _NEG
    # plane i of skew starts i budgets before plane i of scratch, so
    # skew[i, b] is scratch[i, b - i]: g's budget b - i, or -inf from the
    # tail of plane i - 1
    skew = scratch.reshape(-1)[: block * (span - 1) * rows].reshape(block, span - 1, rows)
    if la == block:
        np.add(a[:la, None], g, out=scratch[:, :lg])
        return np.maximum.reduce(skew, axis=0)[:size]
    out = np.full((la + lg - 1, rows), _NEG)
    for i in range(0, la, block):
        bw = min(block, la - i)
        np.add(a[i : i + bw, None], g, out=scratch[:bw, :lg])
        seg = out[i : i + lg + bw - 1]
        np.maximum(seg, np.maximum.reduce(skew[:bw, : lg + bw - 1], axis=0), out=seg)
    return out[:size]


def _max_plus_columns(a: np.ndarray, g: np.ndarray, width: int) -> np.ndarray:
    """``_max_plus`` by a loop over the budgets of the narrower operand.

    One shifted add and one maximum per budget, each along all the rows at
    once: for many rows and few budgets, far fewer passes than the blocked
    reduction.  Each candidate is the same float sum, so the values are the
    same.
    """
    if len(a) > len(g):
        a, g = g, a
    lg = len(g)
    out = np.empty((min(width, len(a) + lg - 1), g.shape[1]))
    np.add(g, a[0], out=out[:lg])
    out[lg:] = _NEG
    for i in range(1, min(len(a), len(out))):
        seg = out[i : i + lg]
        np.maximum(seg, g[: len(seg)] + a[i], out=seg)
    return out


def _read(table: np.ndarray, row: int, b: int) -> float:
    """table[row, b], where a budget past the table's last column reads that
    column."""
    return float(table[row, min(b, table.shape[1] - 1)])


def _base_rows(tree: WeightedTree) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(base, offset, order): every node's base row, ragged in one flat array.

    The nodes lie in ``order``, by depth and then by index, and node u owns
    the levels[u] + 1 entries from offset[u].  Entry r is what row r's
    ancestor earns by representing u: feq[u] / (slv[u] + 1 - slv[na]) for
    the ancestor na at depth r - 1, and 0.0 for r = 0.
    """
    levels = tree.levels.view(np.ndarray)
    order = _stable_argsort32(levels)
    width = levels[order] + 1
    offset = np.empty(tree.n, dtype=np.int64)
    offset[order] = np.cumsum(width) - width
    counts = np.bincount(levels)
    ends = np.cumsum(counts)
    rank = np.empty(tree.n, dtype=np.int64)  # position among its depth's nodes
    rank[order] = np.arange(tree.n) - (ends - counts)[width - 1]
    ends = ends.tolist()
    up = tree.parent[order]
    up_rank = rank[up]
    slv = tree.score_levels[order]
    slv_up = tree.score_levels[up]
    # path: the score level of u's ancestor at depth r - 1 in entry r, and
    # -inf in entry 0, which makes row 0 come out as 0.0.  The nodes of depth
    # d fill one (count, d + 1) block: each row is its parent's row of the
    # block above plus the parent's score level.
    path = np.empty(int(width.sum()))
    above = path[:1].reshape(1, 1)
    above[0, 0] = _NEG
    lo = 1
    for d in range(1, len(ends)):
        nodes = slice(ends[d - 1], ends[d])
        block = path[lo : lo + (ends[d] - ends[d - 1]) * (d + 1)].reshape(-1, d + 1)
        block[:, :d] = above[up_rank[nodes]]
        block[:, d] = slv_up[nodes]
        above = block
        lo += block.size
    base = np.repeat(tree.feq[order], width) / (np.repeat(slv, width) + 1 - path)
    return base, offset, order


class OtsSolver:
    """All DP state for one (tree, k) run.

    Builds every node's value matrix and kept tables eagerly, bottom-up;
    the queries and the reconstruction only read them.  A single solver is
    single-use and single-threaded; concurrent runs on the same tree need
    separate solvers.
    """

    def __init__(self, tree: WeightedTree, k: int):
        if not 0 <= k <= tree.n:
            raise InvalidK(f"k={k} outside 0..{tree.n}")
        self.tree = tree
        self.k = k
        self.cap = np.minimum(tree.subtree_size, k).tolist()
        self._levels = tree.levels.tolist()
        # per-node scalars the per-state decisions read, as Python lists
        self._feq = tree.feq.tolist()
        self._slv = tree.score_levels.tolist()
        # memo[u][r, b]: best value of u's subtree at budget b (0..cap[u])
        # when the nearest selected ancestor is row r's: r = 0 for none,
        # r = levels[na] + 1 for ancestor na
        self.memo: List[np.ndarray] = [None] * tree.n
        # the empty suffix of every knapsack over every memo row: 0.0 at
        # budget 0, -inf past it
        seed = np.full((k + 1, tree.height + 2), _NEG)
        seed[0] = 0.0
        seed = seed.T
        seed.flags.writeable = False
        self._seed = seed
        self._merges = 0  # max-plus merges run so far
        # every node's tables, _tables(u), for _cases and _split to read
        self._kept: List[List[np.ndarray]] = [None] * tree.n
        start = perf_counter()
        self._evaluate_all()
        self._evaluate_ms = (perf_counter() - start) * 1000.0

    # -- bulk evaluation --------------------------------------------------

    def _evaluate_all(self):
        tree = self.tree
        levels = self._levels
        memo = self.memo
        cap = self.cap
        seed = self._seed
        base, offset, _ = _base_rows(tree)
        bulk = self._evaluate_bulk(base, offset)
        feq = self._feq
        offset = offset.tolist()
        children = tree.children
        kept = self._kept
        post = tree.post_order
        rest = post[~bulk[post]].tolist()
        self._per_node = len(rest)
        for u in rest:
            d = levels[u]
            kids = children[u]
            # a single child merges nothing: its memo is tables[0]
            kept[u] = tables = self._tables(u) if len(kids) > 1 else [memo[kids[0]], seed]
            head = tables[0].T
            have = len(head)
            cap_u = cap[u]
            lo = offset[u]
            vals = np.empty((cap_u + 1, d + 1))
            np.add(base[lo : lo + d + 1], head[:, : d + 1], out=vals[:have])
            if have == cap_u:
                vals[cap_u] = vals[cap_u - 1]
            if cap_u:
                # the better case per budget; equal cases are the same float,
                # so the no-case tie rule only matters in _decide
                no = vals[1:]
                np.maximum(no, (feq[u] + head[:cap_u, d + 1])[:, None], out=no)
            memo[u] = vals.T

    def _evaluate_bulk(self, base, offset):
        """memo and kept tables of every leaf, twig and one-branch node, in a
        fixed number of numpy calls per round; returns the mask of the nodes
        it evaluated.

        A twig's children are all leaves; a one-branch node's children are
        all leaves but one, its branch, which may be its only child.  At
        k > 0, round 0 holds the twigs, and a one-branch node joins the round
        after its branch's; at k = 0 only the leaves are evaluated here.  A
        node's knapsack folds the leaves right of its branch, merges the
        branch's memo into that fold, and then each leaf left of it (a node
        with one child merges nothing): every merge but the branch merge
        takes a leaf, two columns, and all of a node's tables have the d + 2
        rows of its children.  So the nodes are stacked row over row,
        -inf past each node's own columns, and one merge per child position
        serves every node with a leaf there: the right folds of all rounds
        at once, then each round's left leaves.  The leaves are laid out in
        the order those merges read them.  The stacks are budget-major, as
        every table is, so each numpy call runs along all the rows.
        Every candidate is the float sum the per-node pass makes, and -inf
        never wins a max, so each memo and kept table, a view of the stacks
        cut to its own rows and columns, is bit for bit the per-node one."""
        tree = self.tree
        k = self.k
        k1 = k + 1
        memo, kept, seed = self.memo, self._kept, self._seed
        levels = tree.levels.view(np.ndarray)
        parent = tree.parent.view(np.ndarray)
        feq = tree.feq.view(np.ndarray)
        start, order = tree._child_start, tree._child_order
        fanout = start[1:] - start[:-1]
        leaf = fanout == 0
        leaves = np.flatnonzero(leaf)
        up = parent[leaves]
        leafy = np.bincount(up + 1, minlength=tree.n + 1)[1:]  # leaf children
        # the round of every twig and of every one-branch node whose branch
        # has one, else -1
        rnd = np.full(tree.n, -1)
        front = np.flatnonzero(~leaf & (leafy == fanout)) if k else leaves[:0]
        one = (fanout > 0) & (leafy == fanout - 1)
        rounds = 0
        while front.size:
            rnd[front] = rounds
            rounds += 1
            front = parent[front]
            front = front[(front >= 0) & one[front]]
        # each one-branch node's branch, at position L: L leaves lie left of
        # it and R right; a twig's leaves all lie right, position -1
        slot = np.empty(tree.n, dtype=np.int64)  # position among its siblings
        slot[order] = np.arange(order.size) - start[:-1].repeat(fanout)
        inner = order[(rnd.repeat(fanout) > 0) & ~leaf[order]]
        branch = np.full(tree.n, -1)
        branch[parent[inner]] = inner
        pos = np.full(tree.n, -1)
        pos[parent[inner]] = slot[inner]
        # the nodes by round, and within a round by L, descending, so the
        # nodes with a leaf at each left step come first; the right folds
        # go by R, descending, likewise
        nodes = np.flatnonzero(rnd >= 0)
        nodes = nodes[np.lexsort((-pos[nodes], rnd[nodes]))]
        lefts = np.maximum(pos[nodes], 0)
        rights = fanout[nodes] - 1 - pos[nodes]
        fold = np.flatnonzero(rights)
        fold = fold[np.argsort(-rights[fold], kind="stable")]
        rank = np.zeros(tree.n, dtype=np.int64)
        rank[nodes] = np.arange(nodes.size)
        fold_rank = np.zeros(tree.n, dtype=np.int64)
        fold_rank[nodes[fold]] = np.arange(fold.size)

        # the leaves in the order the merges read them: the right folds' by
        # step, then each round's left ones by step, then the other leaves
        kid = slot[leaves]
        up = np.maximum(up, 0)
        right = kid > pos[up]
        phase = np.where(right, -1, rnd[up])
        phase[rnd[up] < 0] = tree.n
        step = np.where(right, fanout[up] - kid, pos[up] - kid)
        leaves = leaves[np.lexsort((np.where(right, fold_rank[up], rank[up]), step, phase))]
        leaf_rows = levels[leaves] + 1
        leaf_end = leaf_rows.cumsum()
        # a leaf's tables are the seed: its no-case is its base row plus the
        # seed's 0.0, and its yes-case at budget 1 its weight plus that 0.0
        lv = np.empty((min(k, 1) + 1, leaf_end[-1]))
        at = np.arange(leaf_end[-1]) + (offset[leaves] - leaf_end + leaf_rows).repeat(leaf_rows)
        np.add(base[at], 0.0, out=lv[0])
        if k:
            np.add(feq[leaves].repeat(leaf_rows), 0.0, out=lv[1])
        b = 0
        leaf_tables = [seed]
        for c, e in zip(leaves.tolist(), leaf_end.tolist()):
            memo[c] = lv[:, b:e].T
            kept[c] = leaf_tables
            b = e
        bulk = leaf | (rnd >= 0)
        if not nodes.size:
            return bulk
        depth = levels[nodes]
        rows = depth + 2  # a node's children have its rows 0..d, and one for it
        row_end = rows.cumsum()
        row_start = row_end - rows
        within = np.arange(row_end[-1]) - row_start.repeat(rows)

        # the right folds, all rounds' at once: folds[s] holds every fold
        # with more than s leaves after the merge of the leaf s places from
        # the right, and acc each fold's latest table; past them, acc holds
        # the empty fold that the nodes with no right leaf read
        fold_end = rows[fold].cumsum()
        most = int(rights[fold[0]])
        fold_q = fold_end[np.searchsorted(-rights[fold], -np.arange(most)) - 1].tolist()
        acc = np.full((min(k1, most + 1), fold_end[-1] + rows.max()), _NEG)
        acc[0, fold_end[-1] :] = 0.0
        acc[:2, : fold_q[0]] = lv[:, : fold_q[0]]
        folds = [None]
        lo = fold_q[0]
        for s in range(1, most):
            q = fold_q[s]
            out = _max_plus_columns(lv[:, lo : lo + q], acc[: min(k1, s + 1), :q], k1)
            acc[: len(out), :q] = out
            folds.append(out)
            lo += q
        fold_start = np.full(nodes.size, fold_end[-1])
        fold_start[fold] = fold_end - rows[fold]

        # the rounds, each one stack of its nodes' rows
        fold_rows = fold_start.repeat(rows) + within
        b_rank = rank[branch[nodes]]
        branch_rows = row_start[b_rank].repeat(rows) + within
        own = base.take(offset[nodes].repeat(rows) + within, mode="clip")  # last row spare
        cap = np.minimum(tree.subtree_size.view(np.ndarray)[nodes], k)
        wide = np.minimum(k1, cap[b_rank] + rights + 1)  # the branch merge's columns
        ends = np.bincount(rnd[nodes]).cumsum().tolist()
        feq = feq[nodes]
        self._merges += int(fanout[nodes].sum()) - nodes.size
        per = [
            a.tolist()
            for a in (nodes, depth, cap, lefts, rights, row_start, fold_start, wide, order[start[nodes + 1] - 1])
        ]
        lefts_at, rights_at, caps_at, row_ends = per[3], per[4], per[2], row_end.tolist()
        per = zip(*per)
        n_lo = r_lo = 0
        prev = prev_lo = None
        for r, n_hi in enumerate(ends):
            r_hi = row_ends[n_hi - 1]
            most_right = max(rights_at[n_lo:n_hi])
            head = acc[: min(k1, most_right + 1), fold_rows[r_lo:r_hi]]
            if r:
                branched = prev[:, branch_rows[r_lo:r_hi] - prev_lo]
                if most_right:
                    branched = _max_plus_columns(branched, head, k1)
                head = branched
            most_left = lefts_at[n_lo]
            steps = []
            if most_left:
                wt = len(head)
                head = np.full((min(k1, wt + most_left), r_hi - r_lo), _NEG)
                head[:wt] = branched
                qs = row_end[n_lo + np.searchsorted(-lefts[n_lo:n_hi], -np.arange(most_left)) - 1]
                for t, q in enumerate((qs - r_lo).tolist()):
                    out = _max_plus_columns(lv[:, lo : lo + q], head[: min(k1, wt + t), :q], k1)
                    head[: len(out), :q] = out
                    steps.append(out)
                    lo += q
            # the memo step over every row of the round
            width = max(caps_at[n_lo:n_hi]) + 1
            vals = np.empty((width, r_hi - r_lo))
            w = min(len(head), width)
            np.add(head[:w], own[r_lo:r_hi], out=vals[:w])
            vals[w:] = _NEG
            # the plateau: a node whose subtree fits in k has a head one
            # column short of its cap, -inf there, and its memo repeats the
            # column before; rows never decrease, so this max changes no
            # other entry, and past a node's cap it leaves -inf
            no = vals[1:]
            np.maximum(no, vals[:-1], out=no)
            yes = head[: width - 1, row_end[n_lo:n_hi] - (r_lo + 1)] + feq[n_lo:n_hi]
            np.maximum(no, yes.repeat(rows[n_lo:n_hi], axis=1), out=no)
            for u, d, c, left, right, b, fb, wt, x in itertools.islice(per, n_hi - n_lo):
                b -= r_lo
                e = b + d + 2
                memo[u] = vals[: c + 1, b : e - 1].T
                tables = [steps[t][: min(k1, wt + t + 1), b:e].T for t in range(left - 1, -1, -1)] if left else []
                if r and right:
                    tables.append(branched[:wt, b:e].T)
                if right > 1:
                    tables += [folds[s][: min(k1, s + 2), fb : fb + d + 2].T for s in range(right - 1, 0, -1)]
                tables += (memo[x], seed)
                kept[u] = tables
            prev, prev_lo = vals, r_lo
            n_lo, r_lo = n_hi, r_hi
        return bulk

    # -- the knapsack kernel and the state decision -------------------------

    def _tables(self, u: int) -> List[np.ndarray]:
        """Suffix tables of u's children over every memo row u's cases read
        (rows 0..levels[u] for the no-case, row levels[u] + 1 for the
        yes-case), then the empty suffix, the shared seed: tables[i][r, b] is
        the best exact-sum total of children i.. at budget b, and a budget
        past a table's last column reads that column (``_read``).  The last
        child's table is its memo itself.

        The postorder loop calls it once per node with two or more children
        that the bulk pass left, a node that is neither a twig nor a
        one-branch node above one; the bulk pass makes the other nodes'
        tables without it.  It stays callable for any node as the bulk
        pass's oracle."""
        kids = self.tree.children[u]
        width = self.cap[u] + 1
        tables = [self._seed]
        memo = self.memo
        for x in reversed(kids):
            # a child's matrix is exactly these rows, and cap[x] <= cap[u];
            # the merge runs on the budget-major tables behind the views
            tables.append(memo[x] if len(tables) == 1 else _max_plus(memo[x].T, tables[-1].T, width).T)
        self._merges += max(len(kids) - 1, 0)
        tables.reverse()
        return tables

    def _split(self, u: int, budget: int, row: int) -> Tuple[int, ...]:
        """Lexicographically smallest budget split over u's children hitting
        tables[0][row, budget] of u's kept tables, reading memo row ``row``
        of every child.

        Every child but the last searches its budgets, and the last takes
        the budget left: its suffix table is its own memo, whose entries are
        all finite, and the empty suffix after it is finite only at budget
        0, so a search there would always stop at that budget."""
        memo = self.memo
        kids = self.tree.children[u]
        tables = self._kept[u]
        split = []
        b = budget
        for i in range(len(kids) - 1):
            target = _read(tables[i], row, b)
            vals = memo[kids[i]][row].tolist()
            rest = tables[i + 1][row].tolist()
            # budgets past the suffix's last column read that column
            rest += rest[-1:] * (b + 1 - len(rest))
            for j in range(min(b, len(vals) - 1) + 1):
                if vals[j] + rest[b - j] == target:
                    break
            else:
                raise InconsistentMemo(f"no split reaches {target!r} at child {kids[i]}")
            split.append(j)
            b -= j
        if kids:
            split.append(b)
        return tuple(split)

    def _row(self, na: int) -> int:
        """Memo row of nearest selected ancestor ``na`` (or _NO_ANCESTOR)."""
        return 0 if na < 0 else self._levels[na] + 1

    def _cases(self, u: int, b: int, na: int) -> Tuple[float, Optional[float]]:
        """(no-case value, yes-case value) of state (u, b, na); the yes-case
        is None at budget 0."""
        feq = self._feq[u]
        slv = self._slv
        base = 0.0 if na < 0 else feq / (slv[u] - slv[na] + 1)
        head = self._kept[u][0]
        no_v = base + _read(head, self._row(na), b)
        yes_v = feq + _read(head, self._row(u), b - 1) if b > 0 else None
        return no_v, yes_v

    def _decide(self, u: int, b: int, na: int) -> Tuple[float, str, Tuple[int, ...]]:
        """(value, choice, split) of state (u, b, na), with b already clamped.

        Value ties go to the no-case, and the value equals memo[u][row of na,
        b] (_evaluate_all adds the same floats).  Every node, leaves
        included, takes its split from ``_split``.
        """
        no_v, yes_v = self._cases(u, b, na)
        if yes_v is not None and no_v < yes_v:
            return yes_v, "yes", self._split(u, b - 1, self._row(u))
        return no_v, "no", self._split(u, b, self._row(na))

    # -- per-state queries -------------------------------------------------

    def _state(self, key: DpKey) -> Tuple[int, int, int]:
        """Checked (node, clamped budget, ancestor key) of a state."""
        tree = self.tree
        u = tree.check_node(key.node)
        na = _NO_ANCESTOR
        if key.ancestor is not None:
            na = tree.check_node(key.ancestor)
            if na == u or not tree.is_ancestor(na, u):
                na_id, u_id = tree._ids_at([na, u])
                raise UnknownNode(f"{na_id!r} is not a strict ancestor of {u_id!r}")
        b = min(key.budget, self.cap[u])
        if b < 0:
            raise InvalidK(f"negative budget {key.budget}")
        return u, b, na

    def dp_eval(self, key: DpKey) -> DpEntry:
        """Value and winning decision for a state; budgets clamp at the subtree size."""
        return DpEntry(*self._decide(*self._state(key)))

    def yes_case(self, key: DpKey) -> float:
        """Score of selecting the node itself and splitting the rest below."""
        u, b, na = self._state(key)
        if b < 1:
            raise InvalidK("yes-case requires budget >= 1")
        return self._cases(u, b, na)[1]

    def no_case(self, key: DpKey) -> float:
        """Score of skipping the node: ancestor's impact plus the child split."""
        return self._cases(*self._state(key))[0]

    def reconstruct(self) -> set:
        """Walk the winning choices from the root down; returns the raw DP set."""
        cap = self.cap
        children = self.tree.children
        selected = set()
        stack = [(self.tree.root, self.k, _NO_ANCESTOR)]
        while stack:
            u, b, na = stack.pop()
            b = min(b, cap[u])
            if b == 0:
                continue
            _, choice, split = self._decide(u, b, na)
            if choice == "yes":
                selected.add(u)
                na = u
            for x, j in zip(children[u], split):
                if j > 0:
                    stack.append((x, j, na))
        return selected

    def optimum(self) -> float:
        return float(self.memo[self.tree.root][0, self.k])

    def solve(self) -> SummaryResult:
        """The optimal summary, rescored and checked against the DP value.

        ``stats`` holds ``dp_cells`` (``state_count()``), ``merges`` (the
        max-plus merges this solver has run, counted per node and all in the
        bulk evaluation: one fewer than the children of each node, as the
        reconstruction reads every node's kept tables; the bulk pass runs a
        child position's merge for many nodes at once), ``per_node`` (the
        nodes the postorder loop evaluated one by one, not the bulk pass) and
        the wall times of ``evaluate_ms``, ``reconstruct_ms`` and
        ``rescore_ms``.
        """
        value = self.optimum()
        start = perf_counter()
        selected = self.reconstruct()
        if len(selected) < self.k:
            for v in self.tree.pre_order:
                if v not in selected:
                    selected.add(v)
                    if len(selected) == self.k:
                        break
        rebuilt = perf_counter()
        score = _g_unchecked(self.tree, selected)
        rescored = perf_counter()
        # the DP and the rescore accumulate the same terms in different
        # orders, so the guard scales with the magnitude of the value; it is
        # written so that a nan difference (inf against inf) fails it
        if not abs(score - value) <= max(1e-9, 1e-12 * abs(value)):
            raise InconsistentMemo(
                f"reconstructed set scores {score!r}, DP value is {value!r}"
            )
        pre_rank = self.tree.pre_rank
        return SummaryResult(
            selected=sorted(selected, key=pre_rank.__getitem__),
            score=score,
            algorithm="ots",
            stats={
                "dp_cells": self.state_count(),
                "merges": self._merges,
                "per_node": self._per_node,
                "evaluate_ms": self._evaluate_ms,
                "reconstruct_ms": (rebuilt - start) * 1000.0,
                "rescore_ms": (rescored - rebuilt) * 1000.0,
            },
        )

    def state_count(self) -> int:
        """Σ (levels + 1) * (cap + 1), the cells of every memo."""
        tree = self.tree
        return int(((tree.levels + 1) * (np.minimum(tree.subtree_size, self.k) + 1)).sum())


def ots(tree: WeightedTree, k: int) -> SummaryResult:
    """Optimal k-node summary via the budgeted tree DP."""
    tree.check_k(k)
    return OtsSolver(tree, k).solve()
