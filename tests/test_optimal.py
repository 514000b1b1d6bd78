import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesum import (
    GenSpec,
    OtsSolver,
    WeightedTree,
    brute_force,
    g_score,
    gen_random_tree,
    gts,
    lift_result,
    ots,
    vtree,
)
from treesum import optimal
from treesum.errors import InconsistentMemo, InvalidK, UnknownNode
from treesum.optimal import _BLOCK, DpKey, _base_rows, _max_plus, _max_plus_columns, _read

from test_tree import SIGNED_ZERO_WEIGHTS, random_trees, shuffled_trees

INF = float("inf")
NAN = float("nan")


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
    # every query checks its key the same way; the ancestor check indexes
    # arrays, where index -1 would be valid
    v2, v3, v4 = t.index("v2"), t.index("v3"), t.index("v4")
    for query in ("dp_eval", "yes_case", "no_case"):
        solver = OtsSolver(t, 2)
        ask = getattr(solver, query)
        for bad in (-1, t.n):
            for key in (DpKey(bad, 1, None), DpKey(bad, 1, v2), DpKey(v3, 1, bad)):
                with pytest.raises(UnknownNode, match=f"^node index {bad} out of range$"):
                    ask(key)
        for ancestor in (None, v2):
            with pytest.raises(InvalidK, match="^negative budget -1$"):
                ask(DpKey(v3, -1, ancestor))
        with pytest.raises(UnknownNode, match="^'v4' is not a strict ancestor of 'v3'$"):
            ask(DpKey(v3, 1, v4))
        with pytest.raises(UnknownNode, match="^'v3' is not a strict ancestor of 'v3'$"):
            ask(DpKey(v3, 1, v3))
        assert ask(DpKey(v4, 1, v2)) == getattr(s, query)(DpKey(v4, 1, v2))


def _node_combine(solver, u, budget, na):
    """(value, split) of u's knapsack over its children at ``budget``, in the
    memo row of ancestor ``na`` (a node or None), from the tables the bulk
    pass kept for u."""
    row = 0 if na is None else solver.tree.levels[na] + 1
    return _read(solver._kept[u][0], row, budget), solver._split(u, budget, row)


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
    """(a, g, width): (rows, columns) views of budget-major stacks, each cut
    from a wider stack to ``width`` columns and to rows inside it, with
    ``width`` below, at or above the longest budget la + lg - 1 that the
    merge can reach.  Up to 40 rows, more than ``_BLOCK``; the cells come
    from a drawn seed, as drawing each of up to 2,800 cells would overrun
    hypothesis's buffer."""
    rows = draw(st.integers(1, 40))
    la, lg = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    width = draw(st.integers(max(la, lg), la + lg + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(cols):
        wide = np.zeros((cols + 2, rows + 3))
        wide[:cols, 1 : rows + 1] = rng.choice(MERGE_ENTRIES, (cols, rows))
        return wide[:cols, 1 : rows + 1].T

    return operand(la), operand(lg), width


@settings(max_examples=300, deadline=None)
@given(merge_operands())
def test_max_plus_matches_loop(operands):
    a, g, width = operands
    for x, y in ((a, g), (g, a)):
        want = _loop_max_plus(x, y, width)
        # both kernels take and give budget-major tables
        for got in (_max_plus(x.T, y.T, width).T, _max_plus_columns(x.T, y.T, width).T):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("la", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1])
def test_max_plus_block_edges(la):
    rng = np.random.default_rng(la)
    for rows, lg in itertools.product((3, _BLOCK + 3), (la, la + 1, 3 * _BLOCK + 2)):
        a, g = rng.random((rows, la)) * 1e16, rng.random((rows, lg)) / 3
        for width in (lg, la + lg - 2, la + lg - 1, la + lg + 5):
            if width < lg:
                continue
            got, want = _max_plus(a.T, g.T, width).T, _loop_max_plus(a, g, width)
            assert got.tobytes() == want.tobytes()


def test_max_plus_scratch_is_blocked():
    # unblocked, the pairwise sums of this merge would take 30 * 1001 * 2002
    # floats (481 MB); blocked, the scratch and the output stay near 4 MB
    rows, k = 30, 1000
    width = k + 1
    rng = np.random.default_rng(0)
    a, g = rng.random((width, rows)), rng.random((width, rows))
    tracemalloc.start()
    try:
        out = _max_plus(a, g, width).T
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (rows, width)
    assert peak <= 2 * rows * _BLOCK * (width + _BLOCK) * 8


def _twig_counts(t):
    """{twig: child count} over the nodes whose children are all leaves."""
    kids = t.children
    return {u: len(c) for u, c in enumerate(kids) if c and not any(kids[x] for x in c)}


def _bulk_nodes(t, k):
    """The nodes the bulk pass evaluates: the leaves and, at k > 0, the
    twigs and every one-branch node (children all leaves but one, a single
    child included) whose non-leaf child the bulk pass evaluates."""
    kids = t.children
    bulk = set()
    for u in t.post_order.tolist():
        inner = [x for x in kids[u] if kids[x]]
        if not kids[u] or k and (not inner or inner == [inner[0]] and inner[0] in bulk):
            bulk.add(u)
    return bulk


def _construction_merges(t, k):
    """The ``_max_plus`` calls that build a solver: one fewer than the
    children of each node with two or more children that the postorder loop
    evaluates, as the bulk pass merges with ``_max_plus_columns``."""
    bulk = _bulk_nodes(t, k)
    return sum(len(c) - 1 for u, c in enumerate(t.children) if len(c) > 1 and u not in bulk)


def _counting_max_plus(calls):
    def counted(a, g, width):
        calls.append(width)
        return _max_plus(a, g, width)

    return counted


@settings(max_examples=40, deadline=None)
@given(random_trees(max_n=24), st.data())
def test_ots_stats_count_the_work(t, data):
    calls = []
    k = data.draw(st.integers(1, t.n))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(optimal, "_max_plus", _counting_max_plus(calls))
        solver = OtsSolver(t, k)
        built = len(calls)
        stats = solver.solve().stats
    assert set(stats) == {"dp_cells", "merges", "per_node", "evaluate_ms", "reconstruct_ms", "rescore_ms"}
    assert stats["dp_cells"] == solver.state_count()
    # merges counts each node's merges, however many calls ran them
    assert stats["merges"] == sum(max(len(kids) - 1, 0) for kids in t.children)
    assert stats["per_node"] == t.n - len(_bulk_nodes(t, k))
    assert len(calls) == built == _construction_merges(t, k)
    assert all(type(stats[key]) is int for key in ("dp_cells", "merges", "per_node"))
    assert all(type(stats[key]) is float and stats[key] >= 0 for key in stats if key.endswith("_ms"))
    # stats never take part in result equality
    assert ots(t, k) == solver.solve()


@settings(max_examples=40, deadline=None)
@given(random_trees(max_n=24), st.data())
def test_merges_are_the_bulk_pass_merges(t, data):
    calls = []
    k = data.draw(st.integers(0, t.n))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(optimal, "_max_plus", _counting_max_plus(calls))
        solver = OtsSolver(t, k)
        bulk = sum(max(len(kids) - 1, 0) for kids in t.children)
        assert solver._merges == bulk
        assert len(calls) == _construction_merges(t, k)
        built = len(calls)
        # the reconstruction and the per-state queries merge nothing
        assert solver.solve().stats["merges"] == bulk
        for u in range(t.n):
            for b in range(solver.cap[u] + 1):
                solver.dp_eval(DpKey(u, b, t.parent[u] if t.parent[u] >= 0 else None))
    assert len(calls) == built
    assert solver._merges == bulk


@pytest.mark.parametrize(
    "value, score", [(INF, INF), (160.0, NAN), (NAN, NAN)], ids=["inf-inf", "nan-score", "nan-both"]
)
def test_rescore_guard_fails_a_non_finite_mismatch(ontology, monkeypatch, value, score):
    # inf - inf is nan, and a nan difference is no agreement
    solver = OtsSolver(ontology, 5)
    monkeypatch.setattr(solver, "optimum", lambda: value)
    monkeypatch.setattr(optimal, "_g_unchecked", lambda tree, selected: score)
    with pytest.raises(InconsistentMemo):
        solver.solve()


# -- the batched base rows and leaf memos against the per-node pass -----------


def _path_base_rows(tree):
    """The per-node preorder loop the batched base rows replaced, as an
    oracle: base[u][r] = feq[u] / (slv[u] + 1 - path[r]), with path[j + 1]
    the score level of u's ancestor at depth j and path[0] = -inf."""
    feq = tree.feq.tolist()
    slv = tree.score_levels.tolist()
    levels = tree.levels.tolist()
    base = [None] * tree.n
    path = np.empty(tree.height + 2)
    path[0] = -INF
    for u in tree.pre_order.tolist():
        d = levels[u]
        path[d + 1] = slv[u]
        base[u] = feq[u] / (slv[u] + 1 - path[: d + 1])
    return base


def _relabelled(shape, perm, feq):
    """The tree of parent array ``shape`` with node i renamed perm[i]; node
    j weighs feq[j]."""
    parent = [-1] * len(shape)
    for i, p in enumerate(shape):
        parent[perm[i]] = -1 if p < 0 else perm[p]
    return WeightedTree([f"n{i}" for i in range(len(shape))], parent, feq)


@st.composite
def deep_trees(draw, min_height=50):
    """Path-like trees of height at least ``min_height``: a spine with leaves
    and short branches hanging at many depths, node indices relabelled at
    random."""
    spine = draw(st.integers(min_height + 1, min_height + 5))
    shape = [-1] + list(range(spine - 1))
    for _ in range(draw(st.integers(8, 16))):
        shape.append(draw(st.integers(0, len(shape) - 1)))
    perm = draw(st.permutations(range(len(shape))))
    feq = [draw(st.sampled_from(SIGNED_ZERO_WEIGHTS)) for _ in shape]
    return _relabelled(shape, perm, feq)


@settings(max_examples=80, deadline=None)
@given(st.one_of(shuffled_trees(weights=SIGNED_ZERO_WEIGHTS), deep_trees()), st.booleans())
def test_base_rows_match_path_loop(t, reduced):
    if reduced:
        # score levels are the original levels, not the reduced ones
        t = vtree(t).tree
    base, offset, order = _base_rows(t)
    widths = t.levels + 1
    # ragged: exactly sum(levels + 1) floats, each node's segment in place
    assert base.dtype == np.float64
    assert base.shape == (int(widths.sum()),)
    # by depth and then by index, as numpy's stable argsort orders them
    assert order.tolist() == np.argsort(t.levels, kind="stable").tolist()
    assert offset[order].tolist() == (np.cumsum(widths[order]) - widths[order]).tolist()
    for u, want in enumerate(_path_base_rows(t)):
        got = base[offset[u] : offset[u] + widths[u]]
        assert got.tobytes() == want.tobytes()


def _kernel_memo(solver, base, u):
    """memo[u] as the per-node pass made it before leaves and base rows were
    batched: one kernel call on u's children, leaves included, its head read
    cell by cell up to cap[u]."""
    head = solver._tables(u)[0]
    d = solver.tree.levels[u]
    cap_u = solver.cap[u]
    tails = np.array([[_read(head, r, b) for b in range(cap_u + 1)] for r in range(d + 2)])
    vals = base[u][:, None] + tails[: d + 1]
    if cap_u:
        no = vals[:, 1:]
        np.maximum(no, solver.tree.feq[u] + tails[d + 1, :cap_u], out=no)
    return vals


def _assert_matches_per_node_pass(t, k, base):
    """Every memo and kept table of OtsSolver(t, k), bytes and shapes, is the
    one the per-node pass makes."""
    solver = OtsSolver(t, k)
    for u in range(t.n):
        want = _kernel_memo(solver, base, u)
        assert solver.memo[u].shape == want.shape
        assert solver.memo[u].tobytes() == want.tobytes()
        # every node's tables are the ones a fresh kernel call makes, and
        # they end with the last child's own memo and the shared seed
        kept = solver._kept[u]
        fresh = solver._tables(u)
        assert [a.tobytes() for a in kept] == [a.tobytes() for a in fresh]
        assert [a.shape for a in kept] == [a.shape for a in fresh]
        assert kept[-1] is solver._seed
        kids = t.children[u]
        assert len(kept) == len(kids) + 1
        if kids:
            assert kept[-2] is solver.memo[kids[-1]]


@settings(max_examples=60, deadline=None)
@given(st.one_of(shuffled_trees(max_n=30, weights=SIGNED_ZERO_WEIGHTS), deep_trees()), st.data())
def test_memo_and_kept_tables_match_the_per_node_pass(t, data):
    base = _path_base_rows(t)
    for k in _budgets(t.n, data):
        _assert_matches_per_node_pass(t, k, base)


# -- the twig pass against the per-node pass ----------------------------------


def _twig_budgets(n, counts):
    """k in {0, 1, m, m + 1, m + 2, n} for each twig child count m: k below,
    at and above each twig's cap m + 1."""
    ks = {0, 1, n}
    for m in counts:
        ks |= {m, m + 1, m + 2}
    return sorted(ks & set(range(n + 1)))


def test_brooms_match_the_per_node_pass():
    # a handle of 0 or 3 nodes, then one twig of m leaves
    rng = np.random.default_rng(18)
    for m in range(1, 41):
        for handle in (0, 3):
            shape = [-1] + list(range(handle)) + [handle] * m
            perm = rng.permutation(len(shape)).tolist()
            feq = rng.choice(SIGNED_ZERO_WEIGHTS, len(shape)).tolist()
            t = _relabelled(shape, perm, feq)
            assert _twig_counts(t) == {perm[handle]: m}
            base = _path_base_rows(t)
            for k in _twig_budgets(t.n, [m]):
                _assert_matches_per_node_pass(t, k, base)


@st.composite
def caterpillars(draw):
    """A spine with twigs of 1..5 leaves, single leaves and twigs of twigs
    hanging at many depths, so twigs sit beside siblings that are not twigs;
    node indices relabelled at random, weights with -0.0."""
    spine = draw(st.integers(1, 20))
    shape = [-1] + list(range(spine - 1))
    for _ in range(draw(st.integers(1, 12))):
        at = draw(st.integers(0, len(shape) - 1))
        shape.append(at)
        twig = len(shape) - 1
        shape.extend([twig] * draw(st.integers(0, 5)))
    perm = draw(st.permutations(range(len(shape))))
    feq = [draw(st.sampled_from(SIGNED_ZERO_WEIGHTS)) for _ in shape]
    return _relabelled(shape, perm, feq)


@settings(max_examples=60, deadline=None)
@given(caterpillars())
def test_caterpillar_twigs_match_the_per_node_pass(t):
    counts = set(_twig_counts(t).values())
    base = _path_base_rows(t)
    for k in _twig_budgets(t.n, counts):
        _assert_matches_per_node_pass(t, k, base)


# -- the one-branch rounds against the per-node pass -------------------------


@st.composite
def one_branch_trees(draw):
    """Chains of one-branch nodes (children all leaves but one, the branch)
    hanging from a short spine: each chain node has 0-4 leaves on each side
    of its branch, the next chain node, so with none it has one child, and
    a chain ends in a twig or a twig of twigs.  Half the trees are relabelled at random, which also reorders
    siblings; weights include -0.0."""
    shape = [-1] + list(range(draw(st.integers(0, 3))))
    for _ in range(draw(st.integers(1, 4))):
        cur = len(shape)
        shape.append(draw(st.integers(0, len(shape) - 1)))
        for _ in range(draw(st.integers(0, 5))):
            shape.extend([cur] * draw(st.integers(0, 4)))
            branch = len(shape)
            shape.append(cur)
            shape.extend([cur] * draw(st.integers(0, 4)))
            cur = branch
        for _ in range(draw(st.integers(0, 2))):
            twig = len(shape)
            shape.append(cur)
            shape.extend([twig] * draw(st.integers(1, 3)))
        shape.extend([cur] * draw(st.integers(1, 4)))
    perm = list(range(len(shape)))
    if draw(st.booleans()):
        perm = draw(st.permutations(perm))
    feq = [draw(st.sampled_from(SIGNED_ZERO_WEIGHTS)) for _ in shape]
    return _relabelled(shape, perm, feq)


def _one_branch_budgets(t):
    """k in {0, 1, 2, n}, and each one-branch or one-child node's subtree
    size s - 1, s and s + 1: its cap below, at and past its plateau."""
    kids = t.children
    ks = {0, 1, 2, t.n}
    for u, c in enumerate(kids):
        if sum(1 for x in c if kids[x]) == 1:
            size = int(t.subtree_size[u])
            ks |= {size - 1, size, size + 1}
    return sorted(ks & set(range(t.n + 1)))


@settings(max_examples=40, deadline=None)
@given(one_branch_trees())
def test_one_branch_rounds_match_the_per_node_pass(t):
    base = _path_base_rows(t)
    for k in _one_branch_budgets(t):
        _assert_matches_per_node_pass(t, k, base)


# parent arrays whose children come in index order; node 0 is a one-branch
# or one-child node at every k > 0
ONE_BRANCH_SHAPES = {
    # three leaves right of a twig of two
    "branch-first": [-1, 0, 0, 0, 0, 1, 1],
    # two leaves left of a twig of three
    "branch-last": [-1, 0, 0, 0, 3, 3, 3],
    # a twig of one leaf, 3 memo columns, before a fold of four leaves, 5
    "narrow-branch": [-1, 0, 0, 0, 0, 0, 1],
    # five leaves right of the branch: at k < 5 the fold reaches its cap
    # before its last leaf
    "cap-mid-fold": [-1, 0, 0, 0, 0, 0, 0, 0, 2, 2],
    # three rounds: node 4 a twig, node 2 above it, node 0 above that
    "chain": [-1, 0, 0, 0, 2, 2, 4, 4],
    # two one-child nodes above a twig of two
    "one-child-chain": [-1, 0, 1, 2, 2],
    # a one-child node above a one-branch node above a twig
    "one-child-over-branch": [-1, 0, 1, 1, 1, 3, 3],
    # one-child nodes between two one-branch nodes, in one round each
    "mixed-chain": [-1, 0, 0, 2, 3, 3, 4, 4, 4],
}


@pytest.mark.parametrize("shape", ONE_BRANCH_SHAPES.values(), ids=ONE_BRANCH_SHAPES.keys())
def test_hand_built_one_branch_nodes_match_the_per_node_pass(shape):
    rng = np.random.default_rng(32)
    for _ in range(3):
        feq = rng.choice(SIGNED_ZERO_WEIGHTS, len(shape)).tolist()
        t = _relabelled(shape, list(range(len(shape))), feq)
        assert 0 in _bulk_nodes(t, 1)
        base = _path_base_rows(t)
        for k in range(t.n + 1):
            _assert_matches_per_node_pass(t, k, base)
            assert OtsSolver(t, k).solve().stats["per_node"] == t.n - len(_bulk_nodes(t, k))


# -- one budget-major layout for every table ----------------------------------


def _assert_budget_major(solver):
    """Every memo and kept table of ``solver`` is a (rows, budgets) view of
    budget-major storage: its row axis has unit stride."""
    for u in range(solver.tree.n):
        for table in (solver.memo[u], *solver._kept[u]):
            assert table.strides[0] == table.itemsize, (u, table.shape, table.strides)


@settings(max_examples=40, deadline=None)
@given(st.one_of(shuffled_trees(max_n=30), deep_trees(), caterpillars(), one_branch_trees()), st.data())
def test_every_table_is_budget_major(t, data):
    for k in _budgets(t.n, data):
        _assert_budget_major(OtsSolver(t, k))


# the benchmark's workloads at its default seed: GenSpec fields, ks, trees
WORKLOAD_TREES = {
    "load-1e5": ({"n": 10**5, "important_count": 10**3}, (10,), 1),
    "solve-1e4x3": ({"n": 10**4, "important_count": 10**3}, (10, 25, 100), 3),
    "deep-500x4": ({"n": 500, "important_count": 500, "height_bias": 0.9}, (10, 25), 4),
}


@pytest.mark.parametrize("fields, ks, trees", WORKLOAD_TREES.values(), ids=WORKLOAD_TREES.keys())
def test_workload_tables_are_budget_major(fields, ks, trees):
    for i in range(trees):
        t = vtree(gen_random_tree(GenSpec(**fields, seed=70_707 + (i << 32)))).tree
        for k in sorted({0, 1, *ks, t.n}):
            _assert_budget_major(OtsSolver(t, k))


# -- budgets and the state count ----------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.one_of(random_trees(max_n=24, weights=SIGNED_ZERO_WEIGHTS), deep_trees()), st.data())
def test_memo_is_a_prefix_of_a_larger_budgets_memo(t, data):
    # every k <= K is read off the first cap + 1 columns of the K solver's
    # memo, bit for bit
    big = OtsSolver(t, t.n)
    for k in sorted({0, 1, 2, data.draw(st.integers(0, t.n)), t.n - 1} & set(range(t.n + 1))):
        solver = OtsSolver(t, k)
        for u in range(t.n):
            want = big.memo[u][:, : solver.cap[u] + 1]
            assert solver.memo[u].shape == want.shape
            assert solver.memo[u].tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.one_of(random_trees(max_n=24), deep_trees(), caterpillars()), st.data())
def test_state_count_is_the_memo_size(t, data):
    for k in _budgets(t.n, data):
        solver = OtsSolver(t, k)
        count = solver.state_count()
        assert type(count) is int
        assert count == sum(a.size for a in solver.memo)


# -- the decisions against freshly merged tables ------------------------------


@settings(max_examples=20, deadline=None)
@given(st.one_of(random_trees(max_n=24, weights=SIGNED_ZERO_WEIGHTS), deep_trees()))
def test_direct_reads_match_the_tables(t):
    # the oracle is the decision read off a fresh kernel call on u's
    # children: tables[0] padded to cap[u] with its last column, and the
    # clamped split search over every child, in every row u's cases read
    # (no ancestor, each strict ancestor, u itself) and at every budget
    feq, slv, levels = t.feq.tolist(), t.score_levels.tolist(), t.levels.tolist()
    for k in sorted({0, 1, t.n}):
        solver = OtsSolver(t, k)
        for u in range(t.n):
            tables = solver._tables(u)
            last = tables[0].shape[1] - 1
            row_u = levels[u] + 1
            budgets = range(solver.cap[u] + 1)
            head = [[r[min(b, last)] for b in budgets] for r in tables[0][: row_u + 1].tolist()]
            splits = {}
            for row in range(row_u + 1):
                for b in budgets:
                    splits[row, b] = _clamped_split(solver, u, tables, b, row)
                    assert solver._split(u, b, row) == splits[row, b]
            for na in _ancestor_keys(t, u):
                row_na = 0 if na is None else levels[na] + 1
                base = 0.0 if na is None else feq[u] / (slv[u] - slv[na] + 1)
                for b in budgets:
                    key = DpKey(u, b, na)
                    no_v = base + head[row_na][b]
                    want = (no_v, "no", splits[row_na, b])
                    assert repr(solver.no_case(key)) == repr(no_v)
                    if b:
                        yes_v = feq[u] + head[row_u][b - 1]
                        assert repr(solver.yes_case(key)) == repr(yes_v)
                        if no_v < yes_v:
                            want = (yes_v, "yes", splits[row_u, b - 1])
                    entry = solver.dp_eval(key)
                    assert repr((entry.value, entry.choice, entry.split)) == repr(want)


@settings(max_examples=40, deadline=None)
@given(st.one_of(random_trees(max_n=24), deep_trees()), st.data())
def test_tables_run_once_per_node_with_two_or_more_children(t, data):
    # _tables runs in the bulk pass only, once for each node with two or
    # more children that the postorder loop evaluates
    calls = []
    tables = OtsSolver._tables

    def counted(solver, u):
        calls.append(u)
        return tables(solver, u)

    k = data.draw(st.integers(0, t.n))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(OtsSolver, "_tables", counted)
        solver = OtsSolver(t, k)
        solver.solve()
        for u in range(t.n):
            na = t.parent[u] if t.parent[u] >= 0 else None
            for b in range(solver.cap[u] + 1):
                solver.dp_eval(DpKey(u, b, na))
                solver.no_case(DpKey(u, b, na))
                if b:
                    solver.yes_case(DpKey(u, b, na))
    # the rounds make the tables of twigs and one-branch nodes at k > 0
    bulk = _bulk_nodes(t, k)
    assert sorted(calls) == [u for u in range(t.n) if len(t.children[u]) > 1 and u not in bulk]


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
@given(st.one_of(random_trees(max_n=24), deep_trees()), st.data())
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


def _clamped_split(solver, u, tables, budget, row):
    """The split search as it was before each suffix row was padded to the
    budget: every candidate clamps its two reads with ``min``.  The oracle
    of ``OtsSolver._split``."""
    split = []
    b = budget
    target = _read(tables[0], row, b)
    for i, x in enumerate(solver.tree.children[u]):
        vals = solver.memo[x][row].tolist()
        rest = tables[i + 1][row].tolist()
        top = len(vals) - 1
        end = len(rest) - 1
        tries = list(range(min(b, top) + 1))
        if b > top:
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


@settings(max_examples=40, deadline=None)
@given(st.one_of(random_trees(max_n=24, weights=SIGNED_ZERO_WEIGHTS), caterpillars()), st.data())
def test_split_matches_clamped_search(t, data):
    # every row a node's cases read and every budget up to its cap, at k
    # below, at and above subtree sizes, where the last child's plateau
    # decides the split; the oracle searches the last child too
    for k in _budgets(t.n, data):
        solver = OtsSolver(t, k)
        for u in range(t.n):
            tables = solver._kept[u]
            for row in range(t.levels[u] + 2):
                for b in range(solver.cap[u] + 1):
                    want = _clamped_split(solver, u, tables, b, row)
                    assert solver._split(u, b, row) == want


def test_split_raises_on_a_corrupt_child_memo():
    # a non-last child's memo entry that no longer adds up to u's kept
    # table: the search finds no budget for that child and raises
    t = gen_random_tree(GenSpec(n=30, important_count=20, seed=41, max_children=4))
    solver = OtsSolver(t, 6)
    for u in range(t.n):
        kids = t.children[u]
        if len(kids) < 2:
            continue
        tables, b = solver._kept[u], solver.cap[u]
        for row in range(t.levels[u] + 2):
            target = _read(tables[0], row, b)
            vals = solver.memo[kids[0]][row]
            tries = range(min(b, len(vals) - 1) + 1)
            hits = [j for j in tries if vals[j] + _read(tables[1], row, b - j) == target]
            if len(hits) == 1:
                break
        else:
            continue
        break
    else:
        pytest.fail("no state whose first child reaches the target at one budget only")
    assert solver._split(u, b, row)[0] == hits[0]
    vals[hits[0]] = -1.0
    with pytest.raises(InconsistentMemo, match=f"^no split reaches {target!r} at child {kids[0]}$"):
        solver._split(u, b, row)
