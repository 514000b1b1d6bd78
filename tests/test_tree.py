import copy
import pickle
import tracemalloc

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
    gts,
    ots,
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
from treesum.tree import _NodeArray, _stable_argsort32


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
    n = t.n
    # one key per preorder position
    assert idx._keys.shape == (n,) and idx._keys.dtype == np.int64
    for i, v in enumerate(t.pre_order.tolist()):
        assert idx._keys[i] == t.levels[v] * n + i
        assert idx._parent_pre[i] == t.parent[v]


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
def random_trees(draw, max_n=40, weights=(0.0, 0.0, 1.0, 2.5, 7.0, 40.0)):
    """Random trees whose parents come before their children in index
    order; each weight is drawn from ``weights``."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    parent = [-1] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    weights = [draw(st.sampled_from(weights)) for _ in range(n)]
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
    important_pre = sorted(important, key=pre_rank.__getitem__)
    return {
        "root": root,
        "children": children,
        "levels": levels,
        "pre_order": pre_order,
        "pre_rank": pre_rank,
        "post_order": post_order,
        "subtree_size": subtree_size,
        "important": important,
        "important_pre": important_pre,
        "important_rank": [pre_rank[v] for v in important_pre],
        "important_feq": [feq[v] for v in important_pre],
        "important_levels": [levels[v] for v in important_pre],
        "important_score_levels": [levels[v] for v in important_pre],
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
    "important_rank": np.int64,
    "important_feq": np.float64,
    "important_levels": np.int64,
    "important_score_levels": np.int64,
    "subtree_weight": np.float64,
}


def _assert_matches_reference(t):
    expected = _reference_build(t.parent.tolist(), t.feq.tolist())
    for name, value in expected.items():
        got = getattr(t, name)
        if name in ARRAYS:
            assert isinstance(got, np.ndarray) and got.dtype == ARRAYS[name], name
            assert not got.flags.writeable, name
            # one element reads as a Python int or float, as a list item did
            kind = float if ARRAYS[name] is np.float64 else int
            assert all(type(x) is kind for x in got), name
            got = got.tolist()
        assert got == value, name
        assert type(got) is type(value), name


# 1e16 next to 0.1 and 1/3 makes a sum depend on the order of its terms
ORDER_WEIGHTS = (0.0, 0.1, 1 / 3, 1e16, 7.0, 2.0)
# -0.0 passes the weight check; a result built from it must keep its sign
SIGNED_ZERO_WEIGHTS = (-0.0, 0.0, 1.0, 2.5, 7.0, 40.0)


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


def _variants(parent, seed):
    """The tree of ``parent`` in three input orders: as given, reversed (so
    every child list is reversed and the root comes last), and a random
    relabelling; weights are drawn from ORDER_WEIGHTS."""
    n = len(parent)
    rng = np.random.default_rng(seed)
    reverse = list(range(n - 1, -1, -1))
    for perm in (list(range(n)), reverse, rng.permutation(n).tolist()):
        relabelled = [-1] * n
        for i, p in enumerate(parent):
            relabelled[perm[i]] = -1 if p < 0 else perm[p]
        feq = rng.choice(ORDER_WEIGHTS, size=n).tolist()
        yield WeightedTree([f"n{i}" for i in range(n)], relabelled, feq)


@pytest.mark.parametrize("j", range(1, 13))
def test_array_build_paths_around_powers_of_two(j):
    # each doubling takes ceil(log2(height + 1)) rounds, so these heights
    # sit on both sides of a change in the round count
    for n in (2**j - 1, 2**j, 2**j + 1):
        for t in _variants([-1] + list(range(n - 1)), seed=n):
            _assert_matches_reference(t)
            assert t.height == n - 1


@pytest.mark.parametrize("handle, width", [(1, 1), (2, 7), (33, 1), (64, 100), (1000, 3000)])
def test_array_build_brooms(handle, width):
    # a path of ``handle`` nodes whose last node has ``width`` leaves
    parent = [-1] + list(range(handle - 1)) + [handle - 1] * width
    for t in _variants(parent, seed=handle + width):
        _assert_matches_reference(t)
        assert t.height == handle


@pytest.mark.parametrize("spine, legs", [(2, 1), (17, 3), (600, 2), (129, 40)])
def test_array_build_caterpillars(spine, legs):
    # a path of ``spine`` nodes with ``legs`` leaves on each; the reversed
    # input order makes each next spine node its parent's last child
    parent = [-1] + list(range(spine - 1)) + [s for s in range(spine) for _ in range(legs)]
    for t in _variants(parent, seed=spine * legs):
        _assert_matches_reference(t)
        assert t.height == spine


def test_array_build_deep_random_tree():
    # each parent 1 to 5 steps back in a random order: height near n / 3
    n = 20_000
    rng = np.random.default_rng(6517)
    parent = [-1] + np.maximum(np.arange(1, n) - rng.integers(1, 6, size=n - 1), 0).tolist()
    for t in _variants(parent, seed=1):
        assert t.height > 6000
        _assert_matches_reference(t)


def test_array_build_past_16_bit_indices():
    # the children's sort takes parent indices 16 bits at a time
    n = 70_000
    rng = np.random.default_rng(16)
    parent = [-1] + (rng.random(n - 1) * np.arange(1, n)).astype(np.int64).tolist()
    for t in _variants(parent, seed=3):
        _assert_matches_reference(t)


@pytest.mark.parametrize(
    "low, high",
    [(0, 4), (0, 1 << 16), ((1 << 16) - 3, (1 << 16) + 3), (0, 1 << 32), ((1 << 32) - 5, 1 << 32)],
    ids=["ties", "16-bit", "around-2**16", "32-bit", "near-2**32"],
)
@pytest.mark.parametrize("size", [0, 1, 7, 5000])
def test_stable_argsort32_matches_numpy_stable_sort(low, high, size):
    rng = np.random.default_rng(size + low % 97)
    # few distinct values, so most keys tie with many others
    values = rng.integers(low, high, size=min(size, 30) or 1, dtype=np.int64)
    keys = rng.choice(values, size=size)
    order = _stable_argsort32(keys)
    assert order.dtype == np.int64
    assert order.tolist() == np.argsort(keys, kind="stable").tolist()


# (ids, parent indices, message); the messages are those that the
# Euler-tour build gave, before the doubling build replaced it
CYCLES = [
    # a self-loop
    (["r", "a", "b"], [-1, 1, 0], "['a']"),
    # a 2-cycle with a tail of two hanging under it
    (["r", "a", "b", "c", "d", "e"], [-1, 2, 1, 1, 3, 0], "['a', 'b', 'c', 'd']"),
    # two disjoint cycles, of two and of three nodes, between reachable nodes
    (["r", "a", "x", "b", "c", "y", "d", "e"], [-1, 3, 0, 1, 6, 2, 7, 4], "['a', 'b', 'c', 'd', 'e']"),
    # six unreachable nodes among reachable ones: the first five by index
    (
        ["q", "r", "z", "p", "y", "o", "x", "n", "w", "m"],
        [3, -1, 1, 5, 2, 0, 1, 5, 7, 8],
        "['q', 'p', 'o', 'n', 'w']",
    ),
]


@pytest.mark.parametrize("ids, parent, named", CYCLES)
def test_cycle_messages_are_pinned(ids, parent, named):
    with pytest.raises(CycleDetected) as err:
        WeightedTree(ids, parent, [1.0] * len(ids))
    assert str(err.value) == f"nodes unreachable from the root: {named}"


def test_build_peak_memory_per_node_on_a_path():
    # measured 159 bytes per node for the doubling build (Python 3.11,
    # numpy 2.4), against 255 for the Euler-tour build it replaced; the
    # bound leaves a 20% margin
    n = 20_000
    ids = [f"c{i}" for i in range(n)]
    parent = [-1] + list(range(n - 1))
    feq = [1.0] * n
    tracemalloc.start()
    try:
        WeightedTree(ids, parent, feq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 190


@settings(max_examples=80, deadline=None)
@given(shuffled_trees(max_n=40), st.data())
def test_lca_matches_naive_on_shuffled_trees(t, data):
    idx = EulerLcaIndex(t)
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, t.n - 1), st.integers(0, t.n - 1)), max_size=30)
    )
    got = [idx.lca(x, y) for x, y in pairs]
    assert got == [_naive_lca(t, x, y) for x, y in pairs]
    assert all(type(v) is int for v in got)


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
    # one node, the root, the last node in preorder (whose window ends the
    # key row) alone and after the root, every node in either order, and any
    # drawn list with repeats in any order
    last = t.pre_order[-1]
    inputs = ([t.n - 1], [t.root], [last], [t.root, last], everything, everything[::-1], drawn)
    for nodes in inputs:
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


def test_lca_checks_range_and_ends_the_key_row(sparse_tree):
    t = sparse_tree
    idx = EulerLcaIndex(t)
    for a, b in ((1, t.n), (t.n, 1), (-1, 0), (0, -1)):
        with pytest.raises(UnknownNode):
            idx.lca(a, b)
    # the window to the last preorder position ends the key row
    last = t.pre_order[-1]
    for v in range(t.n):
        assert idx.lca(v, last) == idx.lca(last, v) == _naive_lca(t, v, last)
    assert idx.lca(last, last) == last


def test_non_finite_weights_rejected():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(NonFiniteWeight, match="node 'b'"):
            WeightedTree(["a", "b"], [-1, 0], [1.0, bad])
    # finite weights whose total is not: every score is bounded by the total
    with pytest.raises(NonFiniteWeight, match="total weight"):
        WeightedTree(["r", "a", "b"], [-1, 0, 0], [1e308] * 3)
    assert WeightedTree(["r", "a"], [-1, 0], [1e308, 7e307]).total_weight() == 1.7e308


def test_lca_on_chain_with_64_bit_keys():
    # the largest key, height * n + n - 1, passes 2**31
    n = 50_000
    t = WeightedTree([f"c{i}" for i in range(n)], [-1] + list(range(n - 1)), [1.0] * n)
    idx = EulerLcaIndex(t)
    a = [0, 1, n - 1, 777, n - 2, 31_000]
    b = [n - 1, n - 1, 0, 40_000, n - 1, 31_000]
    assert [idx.lca(x, y) for x, y in zip(a, b)] == [min(x, y) for x, y in zip(a, b)]
    lv = t.levels
    assert lv[0] + lv[n - 1] - 2 * lv[idx.lca(0, n - 1)] == n - 1


def _walk_nearest(tree, selected, v):
    """The ancestor walk that the nearest-selected query replaced, as its
    oracle: v's nearest self-inclusive ancestor in ``selected``, or -1."""
    while v >= 0 and v not in selected:
        v = tree.parent[v]
    return v


def _stack_climb_nearest(tree, selected, nodes):
    """The member stack and climb that the nearest-member search replaced,
    as its oracle: a Python stack gives each member its nearest selected
    proper ancestor, and each node starts at the last member at or before
    it in preorder and climbs, one numpy step per nesting level, until an
    interval holds it."""
    members = np.fromiter(selected, dtype=np.int64, count=len(selected))
    members = members[np.argsort(tree.pre_rank[members])]
    lo = tree.pre_rank[members]
    # position -1 is a sentinel: no member, with an interval holding every node
    ends = (lo + tree.subtree_size[members]).tolist() + [tree.n]
    up = []
    stack = [-1]
    for i, start in enumerate(lo.tolist()):
        while ends[stack[-1]] <= start:
            stack.pop()
        up.append(stack[-1])
        stack.append(i)
    up = np.array(up, dtype=np.int64)
    hi = np.array(ends)

    rank = tree.pre_rank[np.asarray(nodes, dtype=np.int64)]
    at = np.searchsorted(lo, rank, side="right") - 1
    todo = np.arange(len(at))
    while todo.size:
        cur = at[todo]
        outside = rank[todo] >= hi[cur]
        todo = todo[outside]
        at[todo] = up[cur[outside]]
    return np.append(members, -1)[at]


def _assert_nearest_matches_oracles(t, selected, nodes):
    want = [_walk_nearest(t, selected, v) for v in nodes]
    assert _stack_climb_nearest(t, selected, nodes).tolist() == want
    assert t._nearest_selected(selected, nodes).tolist() == want
    rank = t.pre_rank[np.asarray(nodes, dtype=np.int64)]
    assert t._nearest_at(selected, rank).tolist() == want


@settings(max_examples=150, deadline=None)
@given(shuffled_trees(), st.data())
def test_nearest_selected_matches_walk(t, data):
    drawn = data.draw(st.sets(st.integers(0, t.n - 1)))
    nodes = list(range(t.n))
    for selected in (set(), {t.root}, set(nodes), drawn):
        _assert_nearest_matches_oracles(t, selected, nodes)
    # a batch may repeat nodes, come in any order, or be empty
    batch = data.draw(st.lists(st.integers(0, t.n - 1), max_size=2 * t.n))
    for selected in (set(), {t.root}, set(nodes), drawn):
        _assert_nearest_matches_oracles(t, selected, batch)
    _assert_nearest_matches_oracles(t, drawn, [])


@pytest.mark.parametrize("m", [1, 2, 50, 500])
def test_nearest_selected_climbs_a_nested_spine(m):
    # spine s0 -> ... -> s_m, and s_i's second child is the leaf l_i; the
    # leaves follow the whole deeper spine in preorder, so l_0 is held by m
    # nested members that start after it
    parent = [-1] + list(range(m)) + list(range(m))
    ids = [f"s{i}" for i in range(m + 1)] + [f"l{i}" for i in range(m)]
    t = WeightedTree(ids, parent, [1.0] * (2 * m + 1))
    spine = set(range(m + 1))
    nodes = list(range(t.n))
    _assert_nearest_matches_oracles(t, spine, nodes)
    assert t._nearest_selected(spine, nodes).tolist()[m + 1:] == list(range(m))
    # every other spine node, and the leaves with them
    _assert_nearest_matches_oracles(t, set(range(0, m + 1, 2)), nodes[::-1])
    _assert_nearest_matches_oracles(t, set(range(1, t.n, 2)), nodes * 2)


@settings(max_examples=60, deadline=None)
@given(shuffled_trees(weights=SIGNED_ZERO_WEIGHTS))
def test_weighted_arrays_are_the_weighted_nodes_in_preorder(t):
    # the reduced tree's score levels differ from its levels
    for tree in (t, vtree(t).tree):
        imp = tree.important_pre
        assert imp.tolist() == [v for v in tree.pre_order if tree.feq[v] > 0]
        assert tree.important_rank.tolist() == tree.pre_rank[imp].tolist()
        assert tree.important_feq.tobytes() == tree.feq[imp].tobytes()
        assert tree.important_levels.tolist() == tree.levels[imp].tolist()
        assert tree.important_score_levels.tolist() == tree.score_levels[imp].tolist()
        aliased = tree.important_score_levels is tree.important_levels
        assert aliased == (tree.score_levels is tree.levels)


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
        assert lists <= {"_ids", "_labels", "_children"}


def test_constructors_copy_what_the_caller_passes():
    ids = ["r", "a", "b"]
    parent = np.array([-1, 0, 0])
    feq = np.array([0.0, 2.0, 3.0])
    labels = ["root", "A", "B"]
    for t in (
        WeightedTree(ids, parent, feq, labels),
        WeightedTree.from_parent_ids(ids, ["-", "r", "r"], feq, labels, root_parent="-"),
    ):
        assert parent.flags.writeable and feq.flags.writeable
        assert not np.shares_memory(t.parent, parent) and not np.shares_memory(t.feq, feq)
        assert t.labels is not labels
    parent[2] = 1
    feq[1] = 9.0
    labels[0] = "x"
    assert t.parent.tolist() == [-1, 0, 0]
    assert t.feq.tolist() == [0.0, 2.0, 3.0]
    assert t.labels == ["root", "A", "B"]


def _solved(tree, k):
    """gts's and ots's results at k, without ots's stage times."""
    exact = ots(tree, k)
    exact.stats = {name: v for name, v in exact.stats.items() if not name.endswith("_ms")}
    return repr(gts(tree, k)), repr(exact)


@pytest.mark.parametrize(
    "round_trip",
    [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_round_trips_keep_arrays_frozen(round_trip):
    raw = gen_random_tree(GenSpec(n=80, important_count=30, seed=21))
    for t in (raw, vtree(raw).tree):
        t.subtree_weight, t.children
        u = round_trip(t)
        arrays = [name for name in WeightedTree.__slots__ if isinstance(getattr(t, name), np.ndarray)]
        assert ARRAYS.keys() - {"subtree_weight"} <= set(arrays)
        for name in arrays:
            a = getattr(u, name)
            assert type(a) is _NodeArray, name
            assert not a.flags.writeable, name
            assert a.dtype is np.dtype(getattr(t, name).dtype.type), name
            assert a.tobytes() == getattr(t, name).tobytes(), name
        assert (u.score_levels is u.levels) == (t.score_levels is t.levels)
        assert u.ids == t.ids and u.children == t.children
        for k in (1, 7, t.n):
            assert _solved(u, k) == _solved(t, k)


@pytest.mark.parametrize(
    "round_trip",
    [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_round_trips_of_a_tree_with_every_cache_built(round_trip):
    t = gen_random_tree(GenSpec(n=80, important_count=30, seed=21))
    t.subtree_weight, t.children, t.index("n7")
    u = round_trip(t)
    arrays = [name for name in WeightedTree.__slots__ if isinstance(getattr(t, name), np.ndarray)]
    assert set(ARRAYS) <= {name.lstrip("_") for name in arrays}
    for name in arrays:
        a, b = getattr(u, name), getattr(t, name)
        assert type(a) is _NodeArray and not a.flags.writeable, name
        assert a.dtype is np.dtype(ARRAYS.get(name.lstrip("_"), np.int64)), name
        assert a.tobytes() == b.tobytes(), name
        # only a shallow copy shares the original's arrays
        assert np.shares_memory(a, b) == (round_trip is copy.copy), name
    assert u.score_levels is u.levels
    assert u.children == t.children and u.index("n7") == 7 and u.ids == t.ids
