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
total cap are computed.  A suffix table stops there, and a budget past its
last column reads that column; only tables[0], which the cases of u read
directly, is widened to the full budget range.  Memo rows never decrease
with budget, so every candidate the bounds drop is matched or beaten by one
they keep, and the values are the same floats as the unbounded fold.  With
the childless suffix worth 0 at budget 0 and -inf otherwise, the rightmost
child takes whatever budget is left, even beyond its cap.  Over the whole
tree the bounded merges cost O(n * k) per memo row (Johnson & Niemi 1983),
and a node has at most h + 2 rows, so the evaluation is O(n * h * k).

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
the parent's score level) and then divided once (``_base_rows``).  A leaf's
only suffix is the empty one, so its memo is written directly: column 0 is
its base row and column 1 its weight.  A twig, a node whose children are
all leaves, needs no per-node pass either (``_evaluate_twigs``).  Its
children all have cap 1 and at most two columns, so the twigs with the same
child count m are evaluated together, their children's rows stacked
raggedly as the leaf block is: the rows of a merge are independent, so one
``_max_plus`` per child position merges that position for every twig of the
group, and the memo rows and the yes-case follow from the same float
operations as in the per-node pass.  Each twig's memo and kept tables are
views into its group's arrays, bit for bit what the per-node pass makes.
Only twigs are batched: other nodes' rows would need padding to a common
depth and child cap, which costs more than it saves.  Then the postorder
walks the other internal nodes bottom-up with no recursion.  A node with two
or more children makes one kernel call: the children's levels[u] + 2 rows
give every no-case of u and its yes-case together.  A node with one child x
merges nothing: x's memo is already u's tables[0], short by at most the one
plateau column that cap[x] = cap[u] - 1 leaves out, so u's memo is read
straight from it.
Value–choice ties prefer the no-case; knapsack split ties prefer the
lexicographically smallest budget vector.  The suffix tables of every node
with two or more children are kept, so the per-state queries (``_cases``)
and the reconstruction read the bulk pass's tables instead of merging again.
A node with fewer than two children needs neither tables nor a split
search: a single child is worth its memo entry at min(b, cap), and it takes
all of the budget b, since the empty suffix is finite only at budget 0; a
leaf's children are worth 0.0 at budget 0 and -inf above it, with the empty
split.  One decision routine (``_decide``) picks a state's choice and split,
and ``dp_eval`` and ``reconstruct`` both use it.
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


def _plateau(table: np.ndarray, width: int) -> np.ndarray:
    """``table`` extended to ``width`` columns by repeating its last column."""
    have = table.shape[1]
    if have == width:
        return table
    out = np.empty((table.shape[0], width))
    out[:, :have] = table
    out[:, have:] = table[:, have - 1 : have]
    return out


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

    Builds every node's value matrix eagerly, bottom-up.  A single solver is
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
        # the bulk pass's suffix tables of every node with two or more
        # children, for _cases to read; None elsewhere, where the cases read
        # the child's memo or the empty suffix directly
        self._kept: List[Optional[List[np.ndarray]]] = [None] * tree.n
        start = perf_counter()
        self._evaluate_all()
        self._evaluate_ms = (perf_counter() - start) * 1000.0

    # -- bulk evaluation --------------------------------------------------

    def _evaluate_all(self):
        tree = self.tree
        levels = self._levels
        memo = self.memo
        cap = self.cap
        base, offset, order = _base_rows(tree)
        # A leaf's only suffix is the empty one, 0.0 at budget 0 and -inf
        # past it, so its kernel pass gives column 0 = base + 0.0 and column
        # 1 = max(base + -inf, feq + 0.0) = feq + 0.0.  The additions keep a
        # -0.0 weight's +0.0, as the kernel does.
        leaf = tree.subtree_size[order] == 1
        width = tree.levels[order] + 1
        leaves = order[leaf]
        block = np.empty((int(width[leaf].sum()), min(self.k, 1) + 1))
        np.add(base[np.repeat(leaf, width)], 0.0, out=block[:, 0])
        if self.k:
            np.add(np.repeat(tree.feq[leaves], width[leaf]), 0.0, out=block[:, 1])
        ends = np.cumsum(width[leaf])
        starts = np.zeros(tree.n, dtype=np.int64)  # each leaf's first row in block
        starts[leaves] = ends - width[leaf]
        ends = ends.tolist()
        for u, lo, hi in zip(leaves.tolist(), [0] + ends, ends):
            memo[u] = block[lo:hi]
        # a node is a leaf or a twig exactly when its subtree is itself and
        # its children
        fanout = tree._child_start[1:] - tree._child_start[:-1]
        bulk = tree.subtree_size.view(np.ndarray) == fanout + 1
        twigs = np.flatnonzero(bulk & (fanout > 0))
        if twigs.size:
            self._evaluate_twigs(twigs, fanout[twigs], base, offset, block, starts)
        feq = self._feq
        offset = offset.tolist()
        children = tree.children
        kept = self._kept
        post = tree.post_order
        for u in post[~bulk[post]].tolist():
            d = levels[u]
            kids = children[u]
            if len(kids) > 1:
                kept[u] = self._tables(u)
                tails = kept[u][0]
            else:
                # a single child x merges nothing: its own memo is tables[0]
                # up to the plateau column that cap[x] = cap[u] - 1 drops
                tails = memo[kids[0]]
            have = tails.shape[1]
            cap_u = cap[u]
            lo = offset[u]
            vals = np.empty((d + 1, cap_u + 1))
            np.add(base[lo : lo + d + 1, None], tails[: d + 1], out=vals[:, :have])
            if have == cap_u:
                vals[:, cap_u] = vals[:, cap_u - 1]
            if cap_u:
                # the better case per budget; equal cases are the same float,
                # so the no-case tie rule only matters in _decide
                no = vals[:, 1:]
                np.maximum(no, feq[u] + tails[d + 1, :cap_u], out=no)
            memo[u] = vals

    def _evaluate_twigs(self, twigs, fanout, base, offset, block, starts):
        """memo, and for two or more children the kept tables, of every twig,
        a node whose ``fanout`` children are all leaves, in one pass per
        child count m.

        The twigs of one m share cap min(k, m + 1), so one ``_max_plus`` per
        child position merges that position for all of them at once: the
        rows of a merge are independent, and each twig's block of rows is
        what ``_tables`` would merge for it alone.  The children's rows are
        gathered straight from the leaf ``block`` (``starts``: each leaf's
        first row there), and the rows, the yes-case and the maximum are
        the per-node loop's float operations, so every memo and kept table
        is bit for bit the per-node one."""
        tree = self.tree
        memo, kept, seed = self.memo, self._kept, self._seed
        per = np.bincount(fanout).tolist()
        by_m = fanout.argsort(kind="stable")
        twigs, fanout = twigs[by_m], fanout[by_m]
        depth = tree.levels.view(np.ndarray)[twigs]
        # a twig's children have its rows 0..d and a last row for the twig
        rows = depth + 2
        row_end = rows.cumsum()
        within = np.arange(row_end[-1]) - (row_end - rows).repeat(rows)
        # each child's first row in the leaf block, twig by twig, in child order
        kid_end = fanout.cumsum()
        slot = (tree._child_start[twigs] - (kid_end - fanout)).repeat(fanout)
        kid_row = starts[tree._child_order[slot + np.arange(kid_end[-1])]]
        # every twig's base rows 0..d, lined up with its children's rows; the
        # last row is spare: it reads the next node's entry (clipped at the
        # end of base), and no memo reaches it
        own = base.take(offset[twigs].repeat(rows) + within, mode="clip")
        feq = tree.feq[twigs]
        ends = row_end.tolist()
        twigs, depth, kid_end = twigs.tolist(), depth.tolist(), kid_end.tolist()
        lo = 0
        for m, count in enumerate(per):
            if not count:
                continue
            hi = lo + count
            r_lo = ends[lo - 1] if lo else 0
            r_hi = ends[hi - 1]
            k_lo = kid_end[lo - 1] if lo else 0
            width = min(self.k, m + 1) + 1
            # kids[i]: the memo rows of every twig's child i
            pos = kid_row[k_lo : kid_end[hi - 1]].reshape(count, m).T
            kids = block[pos.repeat(rows[lo:hi], axis=1) + within[r_lo:r_hi]]
            tables = [kids[m - 1]]
            for i in range(m - 2, -1, -1):
                tables.append(_max_plus(kids[i], tables[-1], width))
            tables.reverse()
            head = tables[0] = _plateau(tables[0], width)
            self._merges += count * (m - 1)
            vals = own[r_lo:r_hi, None] + head
            cap_u = width - 1
            if cap_u:
                yes = feq[lo:hi, None] + head[row_end[lo:hi] - (r_lo + 1), :cap_u]
                no = vals[:, 1:]
                np.maximum(no, yes.repeat(rows[lo:hi], axis=0), out=no)
            b = 0
            for u, d in zip(twigs[lo:hi], depth[lo:hi]):
                memo[u] = vals[b : b + d + 1]
                if m > 1:
                    kept[u] = [t[b : b + d + 2] for t in tables] + [seed[: d + 2, :width]]
                b += d + 2
            lo = hi

    # -- the knapsack kernel and the state decision -------------------------

    def _tables(self, u: int) -> List[np.ndarray]:
        """Suffix tables of u's children over every memo row u's cases read
        (rows 0..levels[u] for the no-case, row levels[u] + 1 for the
        yes-case): tables[i][r, b] is the best exact-sum total of children
        i.. at budget b.  tables[0] spans b in 0..cap[u]; every other table
        stops at its suffix's total cap (budgets past its last column read
        that column), except the last one, the empty suffix, which spans
        them all.

        The solver calls it in the bulk pass, once per node with two or more
        children that is not a twig; the twig pass merges the twigs'
        children in bulk.  For a node with fewer than two children it merges
        nothing, and it stays callable for any node as the oracle of the
        twig pass and of the direct reads."""
        kids = self.tree.children[u]
        width = self.cap[u] + 1
        tables = [self._seed[: self._levels[u] + 2, :width]]
        memo = self.memo
        acc = None
        for x in reversed(kids):
            # a child's matrix is exactly these rows, and cap[x] <= cap[u]
            acc = memo[x] if acc is None else _max_plus(memo[x], acc, width)
            tables.append(acc)
        self._merges += max(len(kids) - 1, 0)
        tables.reverse()
        tables[0] = _plateau(tables[0], width)
        return tables

    def _split(self, u: int, tables, budget: int, row: int) -> Tuple[int, ...]:
        """Lexicographically smallest budget split over u's children hitting
        tables[0][row, budget], reading memo row ``row`` of every child."""
        memo = self.memo
        split = []
        b = budget
        target = float(tables[0][row, b])
        for i, x in enumerate(self.tree.children[u]):
            vals = memo[x][row].tolist()
            rest = tables[i + 1][row].tolist()
            top = len(vals) - 1
            # budgets past the suffix's last column read that column
            rest += rest[-1:] * (b + 1 - len(rest))
            for j in range(min(b, top) + 1):
                if vals[j] + rest[b - j] == target:
                    break
            else:
                # past its cap a child reads its plateau; only the last child,
                # which takes the whole remainder, ever gets that far
                j = b
                if j <= top or vals[top] + rest[0] != target:
                    raise InconsistentMemo(f"no split reaches {target!r} at child {x}")
            split.append(j)
            b -= j
            target = rest[b]
        return tuple(split)

    def _row(self, na: int) -> int:
        """Memo row of nearest selected ancestor ``na`` (or _NO_ANCESTOR)."""
        return 0 if na < 0 else self._levels[na] + 1

    def _tail(self, u: int, row: int, b: int) -> float:
        """tables[0][row, b] of u, the best total of u's children at budget
        b in memo row ``row``: the kept table's entry, or for a single child
        its own memo entry (tables[0] plateaus at its cap), or for a leaf the
        empty suffix's."""
        kids = self.tree.children[u]
        if len(kids) > 1:
            return float(self._kept[u][0][row, b])
        if kids:
            x = kids[0]
            return float(self.memo[x][row, min(b, self.cap[x])])
        return 0.0 if b == 0 else _NEG

    def _children_split(self, u: int, b: int, row: int) -> Tuple[int, ...]:
        """The split of ``_tail(u, row, b)`` over u's children.  The empty
        suffix is finite only at budget 0, so a single child takes all of b
        and a leaf's split is empty; only a wider node searches its kept
        tables."""
        kids = self.tree.children[u]
        if len(kids) > 1:
            return self._split(u, self._kept[u], b, row)
        return (b,) if kids else ()

    def _cases(self, u: int, b: int, na: int) -> Tuple[float, Optional[float]]:
        """(no-case value, yes-case value) of state (u, b, na); the yes-case
        is None at budget 0."""
        feq = self._feq[u]
        slv = self._slv
        base = 0.0 if na < 0 else feq / (slv[u] - slv[na] + 1)
        no_v = base + self._tail(u, self._row(na), b)
        yes_v = feq + self._tail(u, self._row(u), b - 1) if b > 0 else None
        return no_v, yes_v

    def _decide(self, u: int, b: int, na: int) -> Tuple[float, str, Tuple[int, ...]]:
        """(value, choice, split) of state (u, b, na), with b already clamped.

        Value ties go to the no-case, and the value equals memo[u][row of na,
        b] (_evaluate_all adds the same floats).
        """
        no_v, yes_v = self._cases(u, b, na)
        if yes_v is not None and no_v < yes_v:
            return yes_v, "yes", self._children_split(u, b - 1, self._row(u))
        return no_v, "no", self._children_split(u, b, self._row(na))

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
        bulk evaluation: one fewer than the children of each node with two or
        more, as the reconstruction reads their kept tables and, for any
        other node, the child's memo; one ``_max_plus`` call runs a merge of
        every twig with the same child count) and the wall times of
        ``evaluate_ms``,
        ``reconstruct_ms`` and ``rescore_ms``.
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
