import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesum import (
    GenSpec,
    OtsSolver,
    brute_force,
    g_score,
    gen_random_tree,
    gts,
    lift_result,
    ots,
    vtree,
)
from treesum import optimal
from treesum.errors import InvalidK, UnknownNode
from treesum.optimal import _BLOCK, DpKey, _max_plus

from test_tree import random_trees


@pytest.fixture(scope="module")
def gap_solver(gap_tree):
    return OtsSolver(gap_tree, 2)


def test_gap_tree_optimum(gap_tree):
    res = ots(gap_tree, 2)
    assert res.selected_ids(gap_tree) == ["v3", "v4"]
    assert res.score == 81.0


def test_running_example_optimum(ontology):
    assert ots(ontology, 5).score == 160.0


def test_k_equals_n(ontology):
    res = ots(ontology, ontology.n)
    assert len(res.selected) == ontology.n
    assert res.score == 200.0


def test_invalid_k(ontology):
    with pytest.raises(InvalidK):
        ots(ontology, 0)
    with pytest.raises(InvalidK):
        ots(ontology, ontology.n + 1)


def test_zero_budget_states(gap_tree, gap_solver):
    t, s = gap_tree, gap_solver
    v3 = t.index("v3")
    assert s.dp_eval(DpKey(t.index("v5"), 0, v3)).value == 9.0
    assert s.dp_eval(DpKey(t.index("v6"), 0, v3)).value == 3.0
    assert s.dp_eval(DpKey(t.index("v7"), 0, v3)).value == 3.0


def test_leaf_states(gap_tree, gap_solver):
    t, s = gap_tree, gap_solver
    v4 = t.index("v4")
    assert s.dp_eval(DpKey(v4, 1, None)).value == 42.0
    assert s.dp_eval(DpKey(v4, 1, t.index("v2"))).value == 42.0
    assert s.yes_case(DpKey(v4, 1, None)) == 42.0


def test_zero_weight_leaf_state(sparse_tree):
    s = OtsSolver(sparse_tree, 1)
    v8 = sparse_tree.index("v8")
    assert s.dp_eval(DpKey(v8, 0, None)).value == 0.0


def test_yes_no_cases(gap_tree, gap_solver):
    t, s = gap_tree, gap_solver
    assert s.yes_case(DpKey(t.index("v3"), 1, None)) == 39.0
    assert s.yes_case(DpKey(t.index("v4"), 1, None)) == 42.0
    assert s.yes_case(DpKey(t.index("v2"), 2, None)) == 64.0
    assert s.no_case(DpKey(t.index("v2"), 2, None)) == 81.0
    assert s.yes_case(DpKey(t.index("v1"), 2, None)) == 57.5
    assert s.no_case(DpKey(t.index("v1"), 2, None)) == 81.0
    assert s.dp_eval(DpKey(t.index("v2"), 2, None)).value == 81.0
    assert s.dp_eval(DpKey(t.index("v1"), 2, None)).value == 81.0
    assert s.no_case(DpKey(t.index("v4"), 0, None)) == 0.0


def test_dp_entry_choice_and_split(gap_tree, gap_solver):
    t, s = gap_tree, gap_solver
    root_entry = s.dp_eval(DpKey(t.index("v1"), 2, None))
    assert root_entry.choice == "no"
    assert root_entry.split == (2,)
    v3_entry = s.dp_eval(DpKey(t.index("v3"), 1, None))
    assert v3_entry.choice == "yes"
    assert v3_entry.split == (0, 0, 0)


def test_invalid_ancestor_key(gap_tree, gap_solver):
    t, s = gap_tree, gap_solver
    with pytest.raises(UnknownNode):
        s.dp_eval(DpKey(t.index("v3"), 1, t.index("v4")))
    with pytest.raises(UnknownNode):
        s.dp_eval(DpKey(t.index("v3"), 1, t.index("v3")))


def _node_combine(solver, u, budget, na):
    """(value, split) of u's knapsack over its children at ``budget``, in the
    memo row of ancestor ``na`` (a node or None), from u's own tables."""
    row = 0 if na is None else solver.tree.levels[na] + 1
    tables = solver._tables(u)
    return float(tables[0][row, budget]), solver._split(u, tables, budget, row)


def test_node_knapsack(gap_tree, gap_solver):
    t, s = gap_tree, gap_solver
    assert _node_combine(s, t.index("v2"), 2, None) == (81.0, (1, 1))
    v3 = t.index("v3")
    assert _node_combine(s, v3, 0, v3) == (15.0, (0, 0, 0))
    assert _node_combine(s, t.index("v4"), 0, None) == (0.0, ())


def _compositions(parts, total):
    """Every vector of ``parts`` non-negative ints summing to ``total``, in
    lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for j in range(total + 1):
        for rest in _compositions(parts - 1, total - j):
            yield (j,) + rest


def _exhaustive_combine(solver, kids, budget, na):
    """First maximum over all budget vectors in lexicographic order.

    Totals are summed right to left, as the knapsack tables add them, so
    the maximum and its ties are compared on the same floats.
    """
    vals = {x: [solver.dp_eval(DpKey(x, j, na)).value for j in range(budget + 1)] for x in kids}
    best, best_mix = float("-inf"), None
    for mix in _compositions(len(kids), budget):
        total = 0.0
        for x, j in reversed(list(zip(kids, mix))):
            total = vals[x][j] + total
        if total > best:
            best, best_mix = total, mix
    return best, best_mix


def _ancestor_keys(tree, u):
    """None, then every strict ancestor of u from its parent up."""
    keys = [None]
    a = tree.parent[u]
    while a >= 0:
        keys.append(a)
        a = tree.parent[a]
    return keys


@pytest.mark.parametrize("seed", range(6))
def test_knapsack_matches_exhaustive(seed):
    t = gen_random_tree(GenSpec(n=16, important_count=8, seed=400 + seed, max_children=4))
    s = OtsSolver(t, 4)
    wide = [v for v in range(t.n) if len(t.children[v]) >= 2]
    for u in wide[:4]:
        kids = t.children[u]
        # every row u's cases read: no ancestor, each strict ancestor of u,
        # and u itself; budgets past the children's total cap reach the
        # last child's plateau
        for na in [None, u] + _ancestor_keys(t, u)[1:]:
            for budget in range(s.cap[u] + 1):
                got, split = _node_combine(s, u, budget, na)
                want, want_split = _exhaustive_combine(s, kids, budget, na)
                assert got == want
                assert split == want_split


@pytest.mark.parametrize("seed", range(3))
def test_dp_eval_is_the_better_case(seed):
    # equal weights and weightless inner nodes make yes/no ties common
    t = gen_random_tree(
        GenSpec(n=14, important_count=7, seed=500 + seed, weight_low=2, weight_high=2)
    )
    s = OtsSolver(t, 5)
    ties = 0
    for u in range(t.n):
        kids = t.children[u]
        for na in _ancestor_keys(t, u):
            for b in range(s.cap[u] + 1):
                entry = s.dp_eval(DpKey(u, b, na))
                no = s.no_case(DpKey(u, b, na))
                if b == 0:
                    assert (entry.value, entry.choice) == (no, "no")
                    assert entry.split == _exhaustive_combine(s, kids, 0, na)[1]
                    continue
                yes = s.yes_case(DpKey(u, b, na))
                ties += yes == no
                assert entry.value == max(yes, no)
                if no >= yes:
                    assert entry.choice == "no"
                    assert entry.split == _exhaustive_combine(s, kids, b, na)[1]
                else:
                    assert entry.choice == "yes"
                    assert entry.split == _exhaustive_combine(s, kids, b - 1, u)[1]
    assert ties > 0


def test_reconstruct(gap_tree, gap_solver):
    assert {gap_tree.ids[v] for v in gap_solver.reconstruct()} == {"v3", "v4"}


def test_reconstruct_k_zero(gap_tree):
    assert OtsSolver(gap_tree, 0).reconstruct() == set()


@pytest.mark.parametrize("seed", range(25))
def test_reconstructed_set_scores_memo_value(seed):
    t = gen_random_tree(GenSpec(n=20, important_count=10, seed=700 + seed))
    for k in (2, 4):
        solver = OtsSolver(t, k)
        res = solver.solve()
        assert len(res.selected) == k
        assert res.score == pytest.approx(solver.optimum(), abs=1e-9)
        assert g_score(t, res.selected) == pytest.approx(res.score, abs=1e-12)


@pytest.mark.parametrize("seed", range(15))
def test_optimality_and_dominance(seed):
    t = gen_random_tree(GenSpec(n=15, important_count=8, seed=900 + seed))
    for k in (1, 2, 3):
        best = ots(t, k).score
        assert best == pytest.approx(brute_force(t, k).score, abs=1e-9)
        assert best >= gts(t, k).score - 1e-9


def test_state_count_bound(ontology):
    for k in (1, 3, 5):
        solver = OtsSolver(ontology, k)
        bound = ontology.n * (ontology.height + 1) * (k + 1)
        assert solver.state_count() <= bound


# -- the blocked anti-diagonal merge against the column loop ------------------


def _loop_max_plus(a, g, width):
    """The merge the blocked kernel replaced, as an oracle: one add and one
    maximum per column of the shorter operand."""
    if a.shape[1] > g.shape[1]:
        a, g = g, a
    lg = g.shape[1]
    size = min(width, a.shape[1] + lg - 1)
    out = np.empty((a.shape[0], size))
    np.add(a[:, :1], g, out=out[:, :lg])
    out[:, lg:] = float("-inf")
    for i in range(1, min(a.shape[1], size)):
        m = min(lg, size - i)
        seg = out[:, i : i + m]
        np.maximum(seg, a[:, i : i + 1] + g[:, :m], out=seg)
    return out


# 1e16 next to 0.1 and 1/3 makes a sum's rounding depend on its terms
MERGE_ENTRIES = (0.0, 0.1, 1 / 3, 7.0, 1e16, float("-inf"))


@st.composite
def merge_operands(draw):
    """(a, g, width): strided views into wider matrices, each cut to
    ``width`` columns, with ``width`` below, at or above the longest
    budget la + lg - 1 that the merge can reach."""
    rows = draw(st.integers(1, 5))
    la, lg = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    width = draw(st.integers(max(la, lg), la + lg + 3))

    def operand(cols):
        cells = draw(st.lists(st.sampled_from(MERGE_ENTRIES), min_size=rows * cols, max_size=rows * cols))
        wide = np.zeros((rows + 1, cols + 2))
        wide[:rows, :cols] = np.reshape(cells, (rows, cols))
        return wide[:rows, :cols]

    return operand(la), operand(lg), width


@settings(max_examples=300, deadline=None)
@given(merge_operands())
def test_max_plus_matches_loop(operands):
    a, g, width = operands
    for x, y in ((a, g), (g, a)):
        got, want = _max_plus(x, y, width), _loop_max_plus(x, y, width)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("la", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1])
def test_max_plus_block_edges(la):
    rng = np.random.default_rng(la)
    for lg in (la, la + 1, 3 * _BLOCK + 2):
        a, g = rng.random((3, la)) * 1e16, rng.random((3, lg)) / 3
        for width in (lg, la + lg - 2, la + lg - 1, la + lg + 5):
            if width < lg:
                continue
            got, want = _max_plus(a, g, width), _loop_max_plus(a, g, width)
            assert got.tobytes() == want.tobytes()


def test_max_plus_scratch_is_blocked():
    # unblocked, the pairwise sums of this merge would take 30 * 1001 * 2002
    # floats (481 MB); blocked, the scratch and the output stay near 4 MB
    rows, k = 30, 1000
    width = k + 1
    rng = np.random.default_rng(0)
    a, g = rng.random((rows, width)), rng.random((rows, width))
    tracemalloc.start()
    try:
        out = _max_plus(a, g, width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (rows, width)
    assert peak <= 2 * rows * _BLOCK * (width + _BLOCK) * 8


@settings(max_examples=40, deadline=None)
@given(random_trees(max_n=24), st.data())
def test_ots_stats_count_the_work(t, data):
    calls = []

    def counted(a, g, width):
        calls.append(width)
        return _max_plus(a, g, width)

    k = data.draw(st.integers(1, t.n))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(optimal, "_max_plus", counted)
        solver = OtsSolver(t, k)
        stats = solver.solve().stats
    assert set(stats) == {"dp_cells", "merges", "evaluate_ms", "reconstruct_ms", "rescore_ms"}
    assert stats["dp_cells"] == solver.state_count()
    assert stats["merges"] == len(calls)
    assert all(type(stats[key]) is int for key in ("dp_cells", "merges"))
    assert all(type(stats[key]) is float and stats[key] >= 0 for key in stats if key.endswith("_ms"))
    # stats never take part in result equality
    assert ots(t, k) == solver.solve()


# -- the scalar DP as an oracle for the row kernel ----------------------------


class _ScalarOts:
    """The pure-Python DP that the row-matrix kernel replaced, as an oracle:
    memo[u][na] is a list over budgets 0..cap[u], with na a node or -1, and
    every knapsack merges each child over the full budget range (j above the
    child's cap reads its plateau)."""

    def __init__(self, tree, k):
        self.tree = tree
        self.cap = [min(k, s) for s in tree.subtree_size]
        self.memo = [{} for _ in range(tree.n)]
        for u in tree.post_order:
            cap_u = self.cap[u]
            kids = tree.children[u]
            yes_tail = self._knap(kids, cap_u - 1, u)[0] if cap_u else []
            slv = tree.score_levels
            na_keys = [-1]
            na = tree.parent[u]
            while na >= 0:
                na_keys.append(na)
                na = tree.parent[na]
            for na in na_keys:
                no_tail = self._knap(kids, cap_u, na)[0]
                base = 0.0 if na < 0 else tree.feq[u] / (slv[u] - slv[na] + 1)
                vals = [base + no_tail[0]]
                for b in range(1, cap_u + 1):
                    yes_v = tree.feq[u] + yes_tail[b - 1]
                    no_v = base + no_tail[b]
                    vals.append(no_v if no_v >= yes_v else yes_v)
                self.memo[u][na] = vals

    def _knap(self, kids, max_budget, na):
        tables = [[0.0] + [float("-inf")] * max_budget]
        for x in reversed(kids):
            arr = self.memo[x][na]
            cx = len(arr) - 1
            G = tables[-1]
            new = []
            for b in range(max_budget + 1):
                best = float("-inf")
                for j in range(b + 1):
                    v = (arr[j] if j <= cx else arr[cx]) + G[b - j]
                    if v > best:
                        best = v
                new.append(best)
            tables.append(new)
        tables.reverse()
        return tables

    def _split(self, kids, tables, budget, na):
        split = []
        b = budget
        for i, x in enumerate(kids):
            arr = self.memo[x][na]
            cx = len(arr) - 1
            for j in range(b + 1):
                if (arr[j] if j <= cx else arr[cx]) + tables[i + 1][b - j] == tables[i][b]:
                    split.append(j)
                    b -= j
                    break
            else:
                raise AssertionError("no split")
        return tuple(split)

    def combine(self, kids, budget, na):
        tables = self._knap(kids, budget, na)
        return tables[0][budget], self._split(kids, tables, budget, na)

    def yes(self, u, b):
        value, split = self.combine(self.tree.children[u], b - 1, u)
        return self.tree.feq[u] + value, split

    def no(self, u, b, na):
        slv = self.tree.score_levels
        base = 0.0 if na < 0 else self.tree.feq[u] / (slv[u] - slv[na] + 1)
        value, split = self.combine(self.tree.children[u], b, na)
        return base + value, split

    def decide(self, u, b, na):
        no_v, no_split = self.no(u, b, na)
        if b > 0:
            yes_v, yes_split = self.yes(u, b)
            if no_v < yes_v:
                return yes_v, "yes", yes_split
        return no_v, "no", no_split


def _budgets(n, data):
    """k in {0, 1, a drawn value, n}."""
    return sorted({0, 1, data.draw(st.integers(0, n)), n} & set(range(n + 1)))


def _row(tree, na):
    return 0 if na < 0 else tree.levels[na] + 1


@settings(max_examples=60, deadline=None)
@given(random_trees(max_n=24), st.data())
def test_row_memo_matches_scalar_dp(t, data):
    for k in _budgets(t.n, data):
        solver = OtsSolver(t, k)
        ref = _ScalarOts(t, k)
        for u in range(t.n):
            assert solver.memo[u].shape == (t.levels[u] + 1, ref.cap[u] + 1)
            assert len(ref.memo[u]) == t.levels[u] + 1
            for na, vals in ref.memo[u].items():
                assert solver.memo[u][_row(t, na)].tolist() == vals
        assert solver.state_count() == sum(len(m) * (c + 1) for m, c in zip(ref.memo, ref.cap))


@settings(max_examples=30, deadline=None)
@given(random_trees(max_n=12), st.data())
def test_states_match_scalar_dp(t, data):
    for k in _budgets(t.n, data):
        solver = OtsSolver(t, k)
        ref = _ScalarOts(t, k)
        for u in range(t.n):
            kids = t.children[u]
            for na in ref.memo[u]:
                key_na = None if na < 0 else na
                # budgets above cap[u] clamp
                for b in range(ref.cap[u] + 2):
                    key = DpKey(u, b, key_na)
                    clamped = min(b, ref.cap[u])
                    entry = solver.dp_eval(key)
                    assert (entry.value, entry.choice, entry.split) == ref.decide(u, clamped, na)
                    assert solver.no_case(key) == ref.no(u, clamped, na)[0]
                    if clamped:
                        assert solver.yes_case(key) == ref.yes(u, clamped)[0]
            # every row of u's tables, at every budget up to cap[u], which
            # may pass the children's total cap by one
            for na in [u] + [a for a in ref.memo[u] if a >= 0] + [-1]:
                for b in range(ref.cap[u] + 1):
                    got = _node_combine(solver, u, b, None if na < 0 else na)
                    assert got == ref.combine(kids, b, na)


# -- ots against brute force and through the reduction ------------------------


@settings(max_examples=60, deadline=None)
@given(random_trees(max_n=9), st.data())
def test_ots_equals_brute_force(t, data):
    k = data.draw(st.integers(1, t.n))
    best = ots(t, k).score
    # equal optima can be different sets whose float sums differ in the
    # last bits
    assert best == pytest.approx(brute_force(t, k).score, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(random_trees(max_n=9), st.data())
def test_ots_through_vtree_keeps_the_optimum(t, data):
    rt = vtree(t)
    k = data.draw(st.integers(1, rt.tree.n))
    lifted = lift_result(rt, ots(rt.tree, k))
    assert lifted.score == pytest.approx(ots(t, k).score, rel=1e-12, abs=1e-12)
    assert len(set(lifted.selected)) == k
