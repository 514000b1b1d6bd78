"""Exact summarizer: dynamic programming over (node, budget, nearest ancestor).

The optimal summary of a subtree rooted at u, given a budget of b nodes and
the nearest already-selected ancestor ``na`` above u, is the better of two
cases:

  yes:  select u, then distribute b - 1 among the child subtrees, whose
        nearest selected ancestor becomes u;
  no:   keep na as the representative of u (worth feq(u) * cor(na, u),
        zero without na) and distribute all b among the children.

Distributing a budget over an ordered child list is a small knapsack, and
one kernel (``_knap``) solves it everywhere: with G_i(b) the best total for
children i.. with budget exactly b, G is computed right to left by a max-plus
convolution with each child's value array, and every suffix table is kept so
that ``_split`` can walk the winning budgets out again.
A child's array is indexed by budget and clamped at its subtree size, so
overfull assignments plateau instead of going infeasible: budgets may go
unspent, and the final answer is padded back to exactly k nodes with the
smallest-preorder leftovers (the objective is monotone, so padding never
hurts and the at-most-k optimum equals the exactly-k optimum).  The empty
suffix is worth 0 at budget 0 and -inf otherwise, which keeps the zero-budget
column an exact sum of the children's zero-budget values.

States are memoized per (node, nearest ancestor) as one value array over
budgets 0..min(k, subtree size); the nearest ancestor always lies on the
node's root path, so a node has at most depth + 1 states.  Evaluation walks
the postorder bottom-up with no recursion.  Value–choice ties prefer the
no-case; knapsack split ties prefer the lexicographically smallest budget
vector.  One decision routine (``_decide``) re-derives a state's choice and
split from the memoized arrays; ``dp_eval`` and ``reconstruct`` both use it,
so nothing beyond the value arrays is stored.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InconsistentMemo, InvalidK, UnknownNode
from .result import SummaryResult
from .scoring import _g_unchecked
from .tree import WeightedTree

_NEG = float("-inf")
_NO_ANCESTOR = -1


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


class OtsSolver:
    """All DP state for one (tree, k) run.

    Builds every reachable (node, ancestor) value array eagerly, bottom-up.
    A single solver is single-use and single-threaded; concurrent runs on
    the same tree need separate solvers.
    """

    def __init__(self, tree: WeightedTree, k: int):
        if not 0 <= k <= tree.n:
            raise InvalidK(f"k={k} outside 0..{tree.n}")
        self.tree = tree
        self.k = k
        self.cap = [min(k, s) for s in tree.subtree_size]
        # memo[u][na] -> value array over budgets 0..cap[u]; na is a node
        # index or _NO_ANCESTOR
        self.memo: List[Dict[int, List[float]]] = [{} for _ in range(tree.n)]
        self._evaluate_all()

    # -- bulk evaluation --------------------------------------------------

    def _evaluate_all(self):
        tree = self.tree
        feq = tree.feq
        slv = tree.score_levels
        parent = tree.parent
        memo = self.memo
        cap = self.cap
        children = tree.children
        for u in tree.post_order:
            cap_u = cap[u]
            kids = children[u]
            yes_tail = self._knap(kids, cap_u - 1, u)[0] if cap_u else []
            feq_u = feq[u]
            slv_u = slv[u]
            na = parent[u]
            na_keys = [_NO_ANCESTOR]
            while na >= 0:
                na_keys.append(na)
                na = parent[na]
            store = memo[u]
            for na in na_keys:
                no_tail = self._knap(kids, cap_u, na)[0]
                base = 0.0 if na < 0 else feq_u / (slv_u - slv[na] + 1)
                vals = [base + no_tail[0]]
                for b in range(1, cap_u + 1):
                    yes_v = feq_u + yes_tail[b - 1]
                    no_v = base + no_tail[b]
                    vals.append(no_v if no_v >= yes_v else yes_v)
                store[na] = vals

    # -- the knapsack kernel and the state decision -------------------------

    def _knap(self, kids, max_budget: int, na: int) -> List[List[float]]:
        """Suffix tables: tables[i][b] is the best exact-sum total of kids[i:]
        at budget b, for b in 0..max_budget; tables[len(kids)] is the base."""
        tables = [[0.0] + [_NEG] * max_budget]
        memo = self.memo
        for x in reversed(kids):
            arr = memo[x][na]
            cx = len(arr) - 1
            top = arr[cx]
            G = tables[-1]
            new = []
            for b in range(max_budget + 1):
                best = _NEG
                for j in range(b + 1):
                    v = (arr[j] if j <= cx else top) + G[b - j]
                    if v > best:
                        best = v
                new.append(best)
            tables.append(new)
        tables.reverse()
        return tables

    def _split(self, kids, tables, budget: int, na: int) -> Tuple[int, ...]:
        """Lexicographically smallest per-child budget split hitting tables[0][budget]."""
        memo = self.memo
        split = []
        b = budget
        for i, x in enumerate(kids):
            arr = memo[x][na]
            cx = len(arr) - 1
            top = arr[cx]
            target = tables[i][b]
            nxt = tables[i + 1]
            for j in range(b + 1):
                if (arr[j] if j <= cx else top) + nxt[b - j] == target:
                    split.append(j)
                    b -= j
                    break
            else:
                raise InconsistentMemo(f"no split reaches {target!r} at child {x}")
        return tuple(split)

    def _yes(self, u: int, b: int):
        """Yes-case value and child tables of state (u, b), b >= 1."""
        tables = self._knap(self.tree.children[u], b - 1, u)
        return self.tree.feq[u] + tables[0][b - 1], tables

    def _no(self, u: int, b: int, na: int):
        """No-case value and child tables of state (u, b, na)."""
        tables = self._knap(self.tree.children[u], b, na)
        slv = self.tree.score_levels
        base = 0.0 if na < 0 else self.tree.feq[u] / (slv[u] - slv[na] + 1)
        return base + tables[0][b], tables

    def _decide(self, u: int, b: int, na: int) -> Tuple[float, str, Tuple[int, ...]]:
        """(value, choice, split) of state (u, b, na), with b already clamped.

        Each case's knapsack runs once; value ties go to the no-case, exactly
        as in _evaluate_all, so the value equals memo[u][na][b].
        """
        kids = self.tree.children[u]
        no_v, no_tables = self._no(u, b, na)
        if b > 0:
            yes_v, yes_tables = self._yes(u, b)
            if no_v < yes_v:
                return yes_v, "yes", self._split(kids, yes_tables, b - 1, u)
        return no_v, "no", self._split(kids, no_tables, b, na)

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
        u, b, _ = self._state(key)
        if b < 1:
            raise InvalidK("yes-case requires budget >= 1")
        return self._yes(u, b)[0]

    def no_case(self, key: DpKey) -> float:
        """Score of skipping the node: ancestor's impact plus the child split."""
        return self._no(*self._state(key))[0]

    def knapsack_combine(self, kids: Sequence[int], budget: int, ancestor: Optional[int]):
        """Optimal budget assignment over an ordered child list.

        Returns (value, split); ties prefer smaller budgets for earlier
        children.  Children may receive more than their subtree size, in
        which case the excess is simply unspent.
        """
        if budget < 0:
            raise InvalidK(f"negative budget {budget}")
        kids = [self.tree.check_node(x) for x in kids]
        na = _NO_ANCESTOR
        if ancestor is not None:
            na = self.tree.check_node(ancestor)
            for x in kids:
                if na == x or not self.tree.is_ancestor(na, x):
                    raise UnknownNode(
                        f"{self.tree.ids[na]!r} is not a strict ancestor of "
                        f"{self.tree.ids[x]!r}"
                    )
        tables = self._knap(kids, budget, na)
        return tables[0][budget], self._split(kids, tables, budget, na)

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
        return self.memo[self.tree.root][_NO_ANCESTOR][self.k]

    def solve(self) -> SummaryResult:
        value = self.optimum()
        selected = self.reconstruct()
        if len(selected) < self.k:
            for v in self.tree.pre_order:
                if v not in selected:
                    selected.add(v)
                    if len(selected) == self.k:
                        break
        score = _g_unchecked(self.tree, selected)
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
        )

    def state_count(self) -> int:
        return sum(len(d) * len(next(iter(d.values()))) for d in self.memo if d)


def ots(tree: WeightedTree, k: int) -> SummaryResult:
    """Optimal k-node summary via the budgeted tree DP."""
    if not 1 <= k <= tree.n:
        raise InvalidK(f"k={k} outside 1..{tree.n}")
    return OtsSolver(tree, k).solve()
