import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesum import (
    EulerLcaIndex,
    GenSpec,
    WeightedTree,
    build_tree,
    gen_random_tree,
    vtree,
)
from treesum.errors import (
    CycleDetected,
    DuplicateId,
    MultipleRoots,
    NegativeWeight,
    NonFiniteWeight,
    OrphanParentReference,
    UnknownNode,
)


def test_build_running_example(ontology):
    t = ontology
    assert t.n == 13
    assert len(t.important) == 11
    assert t.height == 3
    assert t.ids[t.root] == "r"
    assert t.levels[t.index("c2")] == 3


def test_build_singleton():
    t = build_tree([{"id": "r", "parent": None, "weight": 7}])
    assert t.n == 1
    assert t.levels[t.root] == 0
    assert t.important.tolist() == [t.root]


def test_build_two_roots():
    with pytest.raises(MultipleRoots):
        build_tree(
            [
                {"id": "a", "parent": None, "weight": 1},
                {"id": "b", "parent": None, "weight": 1},
            ]
        )


def test_build_no_root():
    from treesum.errors import NoRoot

    with pytest.raises(NoRoot):
        build_tree([])
    with pytest.raises(NoRoot):
        build_tree(
            [
                {"id": "a", "parent": "b", "weight": 1},
                {"id": "b", "parent": "a", "weight": 1},
            ]
        )


def test_build_errors():
    with pytest.raises(DuplicateId):
        build_tree(
            [
                {"id": "a", "parent": None, "weight": 1},
                {"id": "a", "parent": "a", "weight": 1},
            ]
        )
    with pytest.raises(OrphanParentReference):
        build_tree(
            [
                {"id": "a", "parent": None, "weight": 1},
                {"id": "b", "parent": "zzz", "weight": 1},
            ]
        )
    with pytest.raises(NegativeWeight):
        build_tree([{"id": "a", "parent": None, "weight": -3}])
    with pytest.raises(CycleDetected):
        build_tree(
            [
                {"id": "r", "parent": None, "weight": 1},
                {"id": "a", "parent": "b", "weight": 1},
                {"id": "b", "parent": "a", "weight": 1},
            ]
        )


def test_preorder_running_example(ontology):
    ids = [ontology.ids[v] for v in ontology.pre_order]
    assert ids[:3] == ["r", "A", "a1"]
    assert sorted(ids) == sorted(ontology.ids)


def test_preorder_singleton():
    t = build_tree([{"id": "x", "parent": None, "weight": 0}])
    assert t.pre_order.tolist() == [t.root]


def test_preorder_restricted_to_weighted(sparse_tree):
    t = sparse_tree
    imp = set(t.important)
    order = [t.ids[v] for v in t.pre_order if v in imp]
    assert order == ["v7", "v9", "v6"]


def test_lca_golden(sparse_tree):
    t = sparse_tree
    idx = EulerLcaIndex(t)
    assert t.ids[idx.lca(t.index("v7"), t.index("v9"))] == "v2"
    assert t.ids[idx.lca(t.index("v9"), t.index("v6"))] == "v1"
    v = t.index("v5")
    assert idx.lca(v, v) == v
    with pytest.raises(UnknownNode):
        idx.lca(0, 999)
    with pytest.raises(UnknownNode):
        idx.lca(-1, 0)


def test_preorder_table_shape(ontology):
    t = ontology
    idx = EulerLcaIndex(t)
    level_pre = [t.levels[v] for v in t.pre_order]
    assert len(idx.table) == t.n.bit_length()
    for j, row in enumerate(idx.table):
        width = 1 << j
        assert len(row) == t.n - width + 1
        for i, key in enumerate(row.tolist()):
            level, pos = divmod(key, t.n)
            assert i <= pos < i + width
            assert level == level_pre[pos] == min(level_pre[i : i + width])


def _ancestors(tree, v):
    """Ancestors of v from v up to the root, by walking parents: an oracle."""
    out = [v]
    while tree.parent[out[-1]] >= 0:
        out.append(tree.parent[out[-1]])
    return out


def _naive_lca(tree, a, b):
    seen = set(_ancestors(tree, a))
    v = b
    while v not in seen:
        v = tree.parent[v]
    return v


@pytest.mark.parametrize("seed", range(8))
def test_lca_matches_naive_walk(seed):
    t = gen_random_tree(GenSpec(n=50, important_count=20, seed=seed))
    idx = EulerLcaIndex(t)
    for a in range(t.n):
        for b in range(a, t.n):
            assert idx.lca(a, b) == _naive_lca(t, a, b)


@st.composite
def random_trees(draw, max_n=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    parent = [-1] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    weights = [draw(st.sampled_from([0.0, 0.0, 1.0, 2.5, 7.0, 40.0])) for _ in range(n)]
    return WeightedTree([f"n{i}" for i in range(n)], parent, weights)


@settings(max_examples=60, deadline=None)
@given(random_trees())
def test_preorder_parent_precedes_descendants(t):
    seen = set()
    for v in t.pre_order:
        p = t.parent[v]
        assert p < 0 or p in seen
        assert v not in seen
        seen.add(v)
    assert len(seen) == t.n


@settings(max_examples=60, deadline=None)
@given(random_trees())
def test_child_counts_sum_to_edges(t):
    assert sum(len(c) for c in t.children) == t.n - 1
    for v in range(t.n):
        expected = t.levels[v] + 1
        assert len(_ancestors(t, v)) == expected


# -- equivalence of the array build and the preorder-RMQ index -------------


def _reference_build(parent, feq):
    """The per-node depth-first construction the array build replaced."""
    n = len(parent)
    children = [[] for _ in range(n)]
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    root = parent.index(-1)
    levels = [-1] * n
    pre_order = []
    pre_rank = [-1] * n
    post_order = []
    subtree_size = [1] * n
    levels[root] = 0
    stack = [(root, 0)]
    while stack:
        node, child_pos = stack[-1]
        if child_pos == 0:
            pre_rank[node] = len(pre_order)
            pre_order.append(node)
        kids = children[node]
        if child_pos < len(kids):
            stack[-1] = (node, child_pos + 1)
            child = kids[child_pos]
            levels[child] = levels[node] + 1
            stack.append((child, 0))
        else:
            stack.pop()
            post_order.append(node)
            if stack:
                subtree_size[stack[-1][0]] += subtree_size[node]
    important = [i for i in range(n) if feq[i] > 0]
    return {
        "root": root,
        "children": children,
        "levels": levels,
        "pre_order": pre_order,
        "pre_rank": pre_rank,
        "post_order": post_order,
        "subtree_size": subtree_size,
        "important": important,
        "important_pre": sorted(important, key=pre_rank.__getitem__),
        "height": max(levels),
    }


# each per-node number of a tree, stored as one read-only array of this dtype
ARRAYS = {
    "parent": np.int64,
    "feq": np.float64,
    "levels": np.int64,
    "score_levels": np.int64,
    "pre_order": np.int64,
    "pre_rank": np.int64,
    "post_order": np.int64,
    "subtree_size": np.int64,
    "important": np.int64,
    "important_pre": np.int64,
    "subtree_weight": np.float64,
}


def _assert_matches_reference(t):
    expected = _reference_build(t.parent.tolist(), t.feq.tolist())
    for name, value in expected.items():
        got = getattr(t, name)
        if name in ARRAYS:
            assert isinstance(got, np.ndarray) and got.dtype == ARRAYS[name], name
            assert not got.flags.writeable, name
            # one element reads as a Python int, as a list item did
            assert all(type(x) is int for x in got), name
            got = got.tolist()
        assert got == value, name
        assert type(got) is type(value), name


# 1e16 next to 0.1 and 1/3 makes a sum depend on the order of its terms
ORDER_WEIGHTS = (0.0, 0.1, 1 / 3, 1e16, 7.0, 2.0)


@st.composite
def shuffled_trees(draw, max_n=60, weights=(0.0, 0.0, 1.0, 2.5, 7.0)):
    """Random trees whose node indices are a random relabelling, so parents
    may come after their children in input order; each weight is drawn from
    ``weights``."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    shape = [-1] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    perm = draw(st.permutations(range(n)))
    parent = [-1] * n
    for i, p in enumerate(shape):
        parent[perm[i]] = -1 if p < 0 else perm[p]
    feq = [draw(st.sampled_from(weights)) for _ in range(n)]
    return WeightedTree([f"n{i}" for i in range(n)], parent, feq)


@settings(max_examples=150, deadline=None)
@given(shuffled_trees())
def test_array_build_matches_reference(t):
    _assert_matches_reference(t)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 300])
def test_array_build_chain_and_star(n):
    chain = WeightedTree([f"c{i}" for i in range(n)], [-1] + list(range(n - 1)), [1.0] * n)
    _assert_matches_reference(chain)
    assert chain.height == n - 1
    star = WeightedTree([f"s{i}" for i in range(n)], [-1] + [0] * (n - 1), [0.0] + [2.0] * (n - 1))
    _assert_matches_reference(star)
    assert star.height == min(1, n - 1)


def test_array_build_root_last_in_input():
    # the root is the last record and every child precedes its parent
    t = WeightedTree(["c", "b", "a", "r"], [1, 3, 3, -1], [1.0, 0.0, 2.0, 0.0])
    _assert_matches_reference(t)
    assert [t.ids[v] for v in t.pre_order] == ["r", "b", "c", "a"]


def test_array_build_generated_tree():
    t = gen_random_tree(GenSpec(n=5000, important_count=400, seed=11))
    _assert_matches_reference(t)


def test_cycle_message_names_unreachable_nodes():
    ids = ["r", "a", "b", "c"]
    with pytest.raises(CycleDetected, match=r"\['a', 'b', 'c'\]"):
        WeightedTree(ids, [-1, 2, 3, 1], [1.0] * 4)
    with pytest.raises(CycleDetected, match=r"\['a'\]"):
        WeightedTree(["r", "a"], [-1, 1], [1.0, 1.0])


@settings(max_examples=80, deadline=None)
@given(shuffled_trees(max_n=40), st.data())
def test_lca_many_matches_scalar_and_naive(t, data):
    idx = EulerLcaIndex(t)
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, t.n - 1), st.integers(0, t.n - 1)), max_size=30)
    )
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    naive = [_naive_lca(t, x, y) for x, y in pairs]
    assert idx.lca_many(a, b).tolist() == naive
    assert [idx.lca(x, y) for x, y in pairs] == naive


def _naive_closure(tree, nodes):
    """Pairwise LCAs added until none is new: the LCA closure by definition."""
    kept = set(nodes)
    while True:
        more = {_naive_lca(tree, a, b) for a in kept for b in kept} - kept
        if not more:
            return kept
        kept |= more


@settings(max_examples=150, deadline=None)
@given(shuffled_trees(max_n=40), st.data())
def test_closure_matches_naive(t, data):
    idx = EulerLcaIndex(t)
    drawn = data.draw(st.lists(st.integers(0, t.n - 1), min_size=1, max_size=2 * t.n))
    everything = list(range(t.n))
    # one node, the root, every node in either order, and any drawn list
    # with repeats in any order
    for nodes in ([t.n - 1], [t.root], everything, everything[::-1], drawn):
        kept, up = idx._closure(nodes)
        want = sorted(_naive_closure(t, nodes), key=t.pre_rank.__getitem__)
        assert kept.tolist() == want
        position = {v: i for i, v in enumerate(want)}
        walked = []
        for v in want:
            u = t.parent[v]
            while u >= 0 and u not in position:
                u = t.parent[u]
            walked.append(position.get(u, -1))
        assert up.tolist() == walked
        assert kept.dtype == up.dtype == np.int64


def test_lca_many_broadcasts_and_checks_range(sparse_tree):
    t = sparse_tree
    idx = EulerLcaIndex(t)
    imp = t.important_pre
    assert idx.lca_many(imp[0], imp).tolist() == [_naive_lca(t, imp[0], y) for y in imp]
    with pytest.raises(UnknownNode):
        idx.lca_many([0, 1], [1, t.n])
    with pytest.raises(UnknownNode):
        idx.lca_many(-1, [0])


def test_non_finite_weights_rejected():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(NonFiniteWeight, match="node 'b'"):
            WeightedTree(["a", "b"], [-1, 0], [1.0, bad])
    # finite weights whose total is not: every score is bounded by the total
    with pytest.raises(NonFiniteWeight, match="total weight"):
        WeightedTree(["r", "a", "b"], [-1, 0, 0], [1e308] * 3)
    assert WeightedTree(["r", "a"], [-1, 0], [1e308, 7e307]).total_weight() == 1.7e308


def test_lca_on_chain_with_64_bit_keys():
    # (height + 1) * n passes 2**31, so the table falls back to 64-bit keys
    n = 50_000
    t = WeightedTree([f"c{i}" for i in range(n)], [-1] + list(range(n - 1)), [1.0] * n)
    idx = EulerLcaIndex(t)
    assert idx.table[0].dtype.itemsize == 8
    a = [0, 1, n - 1, 777, n - 2, 31_000]
    b = [n - 1, n - 1, 0, 40_000, n - 1, 31_000]
    assert idx.lca_many(a, b).tolist() == [min(x, y) for x, y in zip(a, b)]
    assert [idx.lca(x, y) for x, y in zip(a, b)] == [min(x, y) for x, y in zip(a, b)]
    lv = t.levels
    assert lv[0] + lv[n - 1] - 2 * lv[idx.lca(0, n - 1)] == n - 1


def _walk_nearest(tree, selected, v):
    """The ancestor walk that the nearest-selected query replaced, as its
    oracle: v's nearest self-inclusive ancestor in ``selected``, or -1."""
    while v >= 0 and v not in selected:
        v = tree.parent[v]
    return v


@settings(max_examples=150, deadline=None)
@given(shuffled_trees(), st.data())
def test_nearest_selected_matches_walk(t, data):
    drawn = data.draw(st.sets(st.integers(0, t.n - 1)))
    nodes = list(range(t.n))
    for selected in (set(), {t.root}, set(nodes), drawn):
        got = t._nearest_selected(selected, nodes)
        assert got.tolist() == [_walk_nearest(t, selected, v) for v in nodes]
    # a batch may repeat nodes, come in any order, or be empty
    batch = data.draw(st.lists(st.integers(0, t.n - 1), max_size=2 * t.n))
    got = t._nearest_selected(drawn, batch)
    assert got.tolist() == [_walk_nearest(t, drawn, v) for v in batch]


@pytest.mark.parametrize("m", [1, 2, 50])
def test_nearest_selected_climbs_a_nested_spine(m):
    # spine s0 -> ... -> s_m, and s_i's second child is the leaf l_i; the
    # leaves follow the whole deeper spine in preorder, so l_0 climbs m times
    parent = [-1] + list(range(m)) + list(range(m))
    ids = [f"s{i}" for i in range(m + 1)] + [f"l{i}" for i in range(m)]
    t = WeightedTree(ids, parent, [1.0] * (2 * m + 1))
    spine = set(range(m + 1))
    nodes = list(range(t.n))
    got = t._nearest_selected(spine, nodes)
    assert got.tolist() == [_walk_nearest(t, spine, v) for v in nodes]
    assert got.tolist()[m + 1:] == list(range(m))


def test_arrays_are_read_only(ontology):
    for t in (ontology, vtree(ontology).tree):
        arrays = {
            name: getattr(t, name)
            for name in (*WeightedTree.__slots__, "subtree_weight")
            if isinstance(getattr(t, name), np.ndarray)
        }
        assert ARRAYS.keys() <= arrays.keys()
        for name, a in arrays.items():
            assert name not in ARRAYS or a.dtype == ARRAYS[name], name
            assert not a.flags.writeable, name
            with pytest.raises(ValueError):
                a[0] = a[0]
        with pytest.raises(ValueError):
            t.feq[0] = 1.0
        lists = {name for name in WeightedTree.__slots__ if isinstance(getattr(t, name), list)}
        assert lists <= {"ids", "labels", "_children"}
