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
case "u selected".

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
``_BLOCK`` columns of its shorter operand, not a pair of calls per column.
The block's pairwise sums a[:, i] + g[:, j] are written into a scratch of
shape (rows, block, lg + block) whose last ``block`` columns are -inf; read
with a row length one shorter, row i of that scratch shifts right by i, so
every anti-diagonal i + j = b lines up in column b and one max over the
block axis gives the block's part of the result.  Max is exact and ignores
order (entries are >= 0 or -inf, so no NaN or -0.0 arises), so the values
are the floats of the column-by-column loop.  Blocking keeps the scratch at
rows * block * (lg + block) floats, the order of the output, instead of
rows * la * (la + lg).

Evaluation first does, in a fixed number of numpy calls per depth, the work
that needs no kernel.  Every node's base row, what each row's ancestor earns
by representing it, lies in one flat float64 array, ragged: Σ(levels + 1)
floats, filled depth by depth (a node's ancestor path is its parent's plus
the parent's score level) and then divided once (``_base_rows``).  Leaves
and twigs, nodes whose children are all leaves, need no per-node pass
(``_evaluate_bulk``): they are evaluated by child count m, leaves (m = 0)
first, since all nodes of one m share cap min(k, m + 1).  A twig's children
are gathered raggedly from the leaves' rows, and the rows of a merge are
independent, so one ``_max_plus`` per child position merges that position
for every twig of the group; the memo rows and the yes-case follow from the
per-node pass's float operations, bit for bit.  Other nodes' rows would need
padding to a common depth and child cap, which costs more than it saves, so
the postorder then walks them bottom-up with no recursion, one kernel call
for each node with two or more children.  A node with one child x merges
nothing: x's memo already is u's tables[0].  Every node's tables[0] may end
one column short of cap[u] = 1 + the children's total cap; that column
repeats the one before it, in the memo as in the reads.

Every node keeps its tables, ``_tables(u)``: its children's suffix tables
and then the seed, so a leaf keeps only the seed and a single child's memo
is kept with no copy.  The per-state queries (``_cases``) and the
reconstruction read them and merge nothing again.  Value–choice ties prefer
the no-case; knapsack split ties prefer the lexicographically smallest
budget vector.  One decision routine (``_decide``) picks a state's choice
and split, and ``dp_eval`` and ``reconstruct`` both use it.
"""
from __future__ import annotations

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
# columns of the shorter operand per max-plus block: the scratch of one block
# is rows * _BLOCK * (width + _BLOCK) floats
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
    """Row-wise max-plus convolution, c[:, b] = max over i + j = b of
    a[:, i] + g[:, j], for b below min(width, a's length + g's length - 1).

    Blocks the shorter operand by ``_BLOCK`` columns and reduces each block's
    pairwise sums along their anti-diagonals (see the module docstring);
    addition commutes exactly, so swapping the operands changes no value.
    """
    if a.shape[1] > g.shape[1]:
        a, g = g, a
    rows, lg = g.shape
    size = min(width, a.shape[1] + lg - 1)  # >= lg, as g comes cut to width
    la = min(a.shape[1], size)  # columns of a past size reach no budget
    block = min(la, _BLOCK)
    span = lg + block
    scratch = np.empty((rows, block, span))
    scratch[:, :, lg:] = _NEG
    # row i of skew starts i columns before row i of scratch, so skew[:, i, b]
    # is scratch[:, i, b - i]: g's column b - i, or -inf from a row's tail
    skew = scratch.reshape(rows, block * span)[:, : block * (span - 1)]
    skew = skew.reshape(rows, block, span - 1)
    if la == block:
        np.add(a[:, :la, None], g[:, None], out=scratch[:, :, :lg])
        return np.maximum.reduce(skew, axis=1)[:, :size]
    out = np.full((rows, la + lg - 1), _NEG)
    for i in range(0, la, block):
        bw = min(block, la - i)
        np.add(a[:, i : i + bw, None], g[:, None], out=scratch[:, :bw, :lg])
        seg = out[:, i : i + lg + bw - 1]
        np.maximum(seg, np.maximum.reduce(skew[:, :bw, : lg + bw - 1], axis=1), out=seg)
    return out[:, :size]


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
        seed = np.full((tree.height + 2, k + 1), _NEG)
        seed[:, 0] = 0.0
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
        # a node is a leaf or a twig exactly when its subtree is itself and
        # its children
        fanout = tree._child_start[1:] - tree._child_start[:-1]
        bulk = tree.subtree_size.view(np.ndarray) == fanout + 1
        nodes = np.flatnonzero(bulk)
        self._evaluate_bulk(nodes, fanout[nodes], base, offset)
        feq = self._feq
        offset = offset.tolist()
        children = tree.children
        kept = self._kept
        post = tree.post_order
        for u in post[~bulk[post]].tolist():
            d = levels[u]
            kids = children[u]
            # a single child merges nothing: its memo is tables[0]
            kept[u] = tables = self._tables(u) if len(kids) > 1 else [memo[kids[0]], seed]
            head = tables[0]
            have = head.shape[1]
            cap_u = cap[u]
            lo = offset[u]
            vals = np.empty((d + 1, cap_u + 1))
            np.add(base[lo : lo + d + 1, None], head[: d + 1], out=vals[:, :have])
            if have == cap_u:
                vals[:, cap_u] = vals[:, cap_u - 1]
            if cap_u:
                # the better case per budget; equal cases are the same float,
                # so the no-case tie rule only matters in _decide
                no = vals[:, 1:]
                np.maximum(no, feq[u] + head[d + 1, :cap_u], out=no)
            memo[u] = vals

    def _evaluate_bulk(self, nodes, fanout, base, offset):
        """memo and kept tables of every leaf and twig (a node whose
        ``fanout`` children are all leaves), in one pass per child count m,
        leaves (m = 0) first.

        Each twig's block of rows is what ``_tables`` would merge for it
        alone, its children's rows gathered from the leaves' group, and the
        rows, the yes-case and the maximum are the per-node loop's float
        operations, so every memo and kept table is bit for bit the per-node
        one."""
        tree = self.tree
        memo, kept, seed = self.memo, self._kept, self._seed
        per = np.bincount(fanout).tolist()
        by_m = fanout.argsort(kind="stable")
        nodes, fanout = nodes[by_m], fanout[by_m]
        depth = tree.levels.view(np.ndarray)[nodes]
        # a node's children have its rows 0..d and a last row for the node
        rows = depth + 2
        row_end = rows.cumsum()
        within = np.arange(row_end[-1]) - (row_end - rows).repeat(rows)
        # each node's first row in its group; the leaves' group starts at 0
        starts = np.zeros(tree.n, dtype=np.int64)
        starts[nodes] = row_end - rows
        # every twig's children in child order, and each one's first row
        kid_end = fanout.cumsum()
        slot = (tree._child_start[nodes] - (kid_end - fanout)).repeat(fanout)
        kid = tree._child_order[slot + np.arange(kid_end[-1])]
        kid_row = starts[kid]
        # every node's base rows 0..d, lined up with its children's rows; the
        # last row is spare: it reads the next node's entry (clipped at the
        # end of base), and no memo reaches it
        own = base.take(offset[nodes].repeat(rows) + within, mode="clip")
        feq = tree.feq[nodes]
        ends = row_end.tolist()
        kid, kid_end = kid.tolist(), kid_end.tolist()
        nodes, depth = nodes.tolist(), depth.tolist()
        leaf_tables = [seed]
        leaves = None  # the leaves' rows, from which every twig's children are read
        lo = 0
        for m, count in enumerate(per):
            if not count:
                continue
            hi = lo + count
            r_lo = ends[lo - 1] if lo else 0
            r_hi = ends[hi - 1]
            k_lo = kid_end[lo - 1] if lo else 0
            width = min(self.k, m + 1) + 1
            if m:
                # kids[i]: the memo rows of every twig's child i
                pos = kid_row[k_lo : kid_end[hi - 1]].reshape(count, m).T
                kids = leaves[pos.repeat(rows[lo:hi], axis=1) + within[r_lo:r_hi]]
                tables = [kids[m - 1]]
                for i in range(m - 2, -1, -1):
                    tables.append(_max_plus(kids[i], tables[-1], width))
                tables.reverse()
                self._merges += count * (m - 1)
                head = tables[0]
            else:
                head = seed[within[r_lo:r_hi], :width]
            have = head.shape[1]
            cap_u = width - 1
            vals = np.empty((r_hi - r_lo, width))
            np.add(own[r_lo:r_hi, None], head, out=vals[:, :have])
            if have == cap_u:
                vals[:, cap_u] = vals[:, cap_u - 1]
            if cap_u:
                yes = feq[lo:hi, None] + head[row_end[lo:hi] - (r_lo + 1), :cap_u]
                no = vals[:, 1:]
                np.maximum(no, yes.repeat(rows[lo:hi], axis=0), out=no)
            b = 0
            for u, d, e in zip(nodes[lo:hi], depth[lo:hi], kid_end[lo:hi]):
                memo[u] = vals[b : b + d + 1]
                if m:
                    # the last child's table is its own memo, as in _tables
                    kept[u] = [t[b : b + d + 2] for t in tables[:-1]] + [memo[kid[e - 1]], seed]
                else:
                    kept[u] = leaf_tables
                b += d + 2
            if not m:
                leaves = vals
            lo = hi

    # -- the knapsack kernel and the state decision -------------------------

    def _tables(self, u: int) -> List[np.ndarray]:
        """Suffix tables of u's children over every memo row u's cases read
        (rows 0..levels[u] for the no-case, row levels[u] + 1 for the
        yes-case), then the empty suffix, the shared seed: tables[i][r, b] is
        the best exact-sum total of children i.. at budget b, and a budget
        past a table's last column reads that column (``_read``).  The last
        child's table is its memo itself.

        The bulk pass calls it once per node with two or more children that
        is not a twig and makes the other nodes' tables without it; it stays
        callable for any node as the oracle of the bulk pass."""
        kids = self.tree.children[u]
        width = self.cap[u] + 1
        tables = [self._seed]
        memo = self.memo
        acc = None
        for x in reversed(kids):
            # a child's matrix is exactly these rows, and cap[x] <= cap[u]
            acc = memo[x] if acc is None else _max_plus(memo[x], acc, width)
            tables.append(acc)
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
        reconstruction reads every node's kept tables; one ``_max_plus`` call
        runs a merge of every twig with the same child count) and the wall
        times of ``evaluate_ms``, ``reconstruct_ms`` and ``rescore_ms``.
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
