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

Evaluation walks the postorder bottom-up with no recursion, one kernel call
per node: the children's levels[u] + 2 rows give every no-case of u and its
yes-case together.  Value–choice ties prefer the no-case; knapsack split
ties prefer the lexicographically smallest budget vector.  The per-state
queries repeat that one call for the state's node (``_cases``), and one
decision routine (``_decide``) picks a state's choice and split from it;
``dp_eval`` and ``reconstruct`` both use it, so nothing beyond the value
matrices is stored.
"""
from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from .errors import InconsistentMemo, InvalidK, UnknownNode
from .result import SummaryResult
from .scoring import _g_unchecked
from .tree import WeightedTree

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
        start = perf_counter()
        self._evaluate_all()
        self._evaluate_ms = (perf_counter() - start) * 1000.0

    # -- bulk evaluation --------------------------------------------------

    def _evaluate_all(self):
        tree = self.tree
        feq = tree.feq.tolist()
        slv = tree.score_levels.tolist()
        levels = self._levels
        memo = self.memo
        cap = self.cap
        # base[u][r]: what row r's ancestor earns by representing u.  In
        # preorder, path[j + 1] is the score level of u's ancestor at depth j;
        # path[0] = -inf makes row 0 (no ancestor) come out as 0.0.
        base = [None] * tree.n
        path = np.empty(tree.height + 2)
        path[0] = _NEG
        for u in tree.pre_order.tolist():
            d = levels[u]
            path[d + 1] = slv[u]
            base[u] = feq[u] / (slv[u] + 1 - path[: d + 1])
        for u in tree.post_order.tolist():
            cap_u = cap[u]
            d = levels[u]
            tails = self._tables(u)[0]
            vals = base[u][:, None] + tails[: d + 1]
            if cap_u:
                # the better case per budget; equal cases are the same float,
                # so the no-case tie rule only matters in _decide
                no = vals[:, 1:]
                np.maximum(no, feq[u] + tails[d + 1, :cap_u], out=no)
            memo[u] = vals

    # -- the knapsack kernel and the state decision -------------------------

    def _tables(self, u: int) -> List[np.ndarray]:
        """Suffix tables of u's children over every memo row u's cases read
        (rows 0..levels[u] for the no-case, row levels[u] + 1 for the
        yes-case): tables[i][r, b] is the best exact-sum total of children
        i.. at budget b.  tables[0] spans b in 0..cap[u]; every other table
        stops at its suffix's total cap (budgets past its last column read
        that column), except the last one, the empty suffix, which spans
        them all."""
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
            end = len(rest) - 1
            tries = list(range(min(b, top) + 1))
            if b > top:
                # past its cap a child reads its plateau; only the last child,
                # which takes the whole remainder, ever gets that far
                tries.append(b)
            for j in tries:
                if vals[min(j, top)] + rest[min(b - j, end)] == target:
                    break
            else:
                raise InconsistentMemo(f"no split reaches {target!r} at child {x}")
            split.append(j)
            b -= j
            target = rest[min(b, end)]
        return tuple(split)

    def _row(self, na: int) -> int:
        """Memo row of nearest selected ancestor ``na`` (or _NO_ANCESTOR)."""
        return 0 if na < 0 else self._levels[na] + 1

    def _cases(self, u: int, b: int, na: int) -> Tuple[float, Optional[float], List[np.ndarray]]:
        """(no-case value, yes-case value, u's tables) of state (u, b, na);
        the yes-case is None at budget 0."""
        tables = self._tables(u)
        feq = self.tree.feq[u]
        slv = self.tree.score_levels
        base = 0.0 if na < 0 else feq / (slv[u] - slv[na] + 1)
        no_v = base + float(tables[0][self._row(na), b])
        yes_v = feq + float(tables[0][self._row(u), b - 1]) if b > 0 else None
        return no_v, yes_v, tables

    def _decide(self, u: int, b: int, na: int) -> Tuple[float, str, Tuple[int, ...]]:
        """(value, choice, split) of state (u, b, na), with b already clamped.

        One kernel call gives both cases; value ties go to the no-case, and
        the value equals memo[u][row of na, b] (_evaluate_all makes the same
        floats in the same call).
        """
        no_v, yes_v, tables = self._cases(u, b, na)
        if yes_v is not None and no_v < yes_v:
            return yes_v, "yes", self._split(u, tables, b - 1, self._row(u))
        return no_v, "no", self._split(u, tables, b, self._row(na))

    # -- per-state queries -------------------------------------------------

    def _state(self, key: DpKey) -> Tuple[int, int, int]:
        """Checked (node, clamped budget, ancestor key) of a state."""
        u = self.tree.check_node(key.node)
        na = _NO_ANCESTOR
        if key.ancestor is not None:
            na = self.tree.check_node(key.ancestor)
            if na == u or not self.tree.is_ancestor(na, u):
                raise UnknownNode(
                    f"{self.tree.ids[na]!r} is not a strict ancestor of {self.tree.ids[u]!r}"
                )
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
        max-plus merges this solver has run: the bulk evaluation and the
        reconstruction) and the wall times of ``evaluate_ms``,
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
        # orders, so the guard scales with the magnitude of the value
        if abs(score - value) > max(1e-9, 1e-12 * abs(value)):
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
        return sum(a.size for a in self.memo)


def ots(tree: WeightedTree, k: int) -> SummaryResult:
    """Optimal k-node summary via the budgeted tree DP."""
    tree.check_k(k)
    return OtsSolver(tree, k).solve()
