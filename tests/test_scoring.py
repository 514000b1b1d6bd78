import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesum import (
    GenSpec,
    g_score,
    gen_random_tree,
    marginal_gain_fast,
    marginal_gain_naive,
    rep,
    smy,
    vtree,
)
from treesum.errors import AlreadySelected, UnknownNode
from treesum.scoring import _g_unchecked, cor

from test_greedy import _lists, _walk_gain
from test_tree import ORDER_WEIGHTS, _walk_nearest, random_trees, shuffled_trees


def test_cor_values(ontology):
    t = ontology
    assert cor(t, t.index("B"), t.index("b1")) == 0.5
    assert cor(t, t.index("r"), t.index("b1")) == pytest.approx(1 / 3)
    assert cor(t, t.index("A"), t.index("A")) == 1.0
    assert cor(t, t.index("B"), t.index("a1")) == 0.0
    with pytest.raises(UnknownNode):
        cor(t, 0, 10**6)


def test_rep_values(ontology):
    t = ontology
    assert rep(t, t.index("B"), t.index("b1")) == 15.0
    assert rep(t, t.index("r"), t.index("b1")) == 10.0
    assert rep(t, t.index("C"), t.index("a2")) == 0.0


def test_smy_values(ontology):
    t = ontology
    s = set(t.indices(["r", "A", "a1", "b1", "c0"]))
    assert smy(t, s, t.index("a1")) == 40.0
    assert smy(t, s, t.index("c3")) == 5.0
    assert smy(t, set(), t.index("a1")) == 0.0


def test_smy_rejects_unknown_members(ontology):
    t = ontology
    for bad in (10**6, t.n, -1):
        with pytest.raises(UnknownNode):
            smy(t, {t.root, bad}, t.index("a1"))


def test_g_score_values(ontology, gap_tree):
    t = ontology
    assert g_score(t, t.indices(["r", "A", "a1", "b1", "c0"])) == 160.0
    assert g_score(t, []) == 0.0
    assert g_score(gap_tree, gap_tree.indices(["v2", "v4"])) == 64.0


def test_marginal_gain_fast_values(ontology):
    t = ontology
    assert marginal_gain_fast(t, set(), t.index("A")) == 70.0
    assert marginal_gain_fast(t, set(t.indices(["A", "r"])), t.index("a1")) == 20.0
    assert marginal_gain_fast(
        t, set(t.indices(["A", "r", "a1", "b1"])), t.index("c0")
    ) == pytest.approx(50 / 3, abs=1e-9)
    # the root's own first gain strictly dominates every other candidate
    assert marginal_gain_fast(t, set(), t.root) == 75.0


def test_marginal_gain_naive_values(ontology):
    t = ontology
    assert marginal_gain_naive(t, set(), t.index("B")) == 15.0
    assert marginal_gain_naive(t, set(), t.index("C")) == pytest.approx(55 / 3, abs=1e-9)
    # selecting the only weighted node gains exactly its own weight
    lone = gen_random_tree(GenSpec(n=6, important_count=1, seed=3))
    star = lone.important[0]
    assert marginal_gain_naive(lone, set(), star) == lone.feq[star]


def test_already_selected(ontology):
    t = ontology
    with pytest.raises(AlreadySelected):
        marginal_gain_fast(t, {t.root}, t.root)
    with pytest.raises(AlreadySelected):
        marginal_gain_naive(t, {t.root}, t.root)


def test_marginal_gain_rejects_unknown_members(ontology):
    t = ontology
    # -1 would read as the last node, and n past the end
    for bad in (-1, t.n, 10**6):
        for gain in (marginal_gain_fast, marginal_gain_naive):
            with pytest.raises(UnknownNode):
                gain(t, {bad}, t.root)
            with pytest.raises(UnknownNode):
                gain(t, [t.index("A"), bad], t.index("a1"))


def test_gain_zero_for_nodes_without_weighted_descendants(sparse_tree):
    t = sparse_tree
    v8 = t.index("v8")
    assert marginal_gain_fast(t, set(), v8) == 0.0
    assert marginal_gain_fast(t, {t.index("v5")}, v8) == 0.0
    base = g_score(t, t.indices(["v1", "v6"]))
    assert g_score(t, t.indices(["v1", "v6", "v8"])) == base


def test_fast_equals_naive_exhaustive_small(ontology):
    t = ontology
    nodes = range(t.n)
    for size in (0, 1, 2):
        for s in itertools.combinations(nodes, size):
            sel = set(s)
            for x in nodes:
                if x in sel:
                    continue
                assert marginal_gain_fast(t, sel, x) == pytest.approx(
                    marginal_gain_naive(t, sel, x), abs=1e-9
                )


@settings(max_examples=80, deadline=None)
@given(random_trees(), st.data())
def test_fast_equals_naive_random(t, data):
    members = data.draw(st.sets(st.integers(0, t.n - 1), max_size=min(6, t.n - 1)))
    x = data.draw(st.integers(0, t.n - 1))
    if x in members:
        members.discard(x)
    assert marginal_gain_fast(t, members, x) == pytest.approx(
        marginal_gain_naive(t, members, x), abs=1e-9
    )


@settings(max_examples=80, deadline=None)
@given(random_trees(), st.data())
def test_monotone(t, data):
    small = data.draw(st.sets(st.integers(0, t.n - 1), max_size=t.n))
    extra = data.draw(st.sets(st.integers(0, t.n - 1), max_size=t.n))
    big = small | extra
    assert g_score(t, small) <= g_score(t, big) + 1e-9


@settings(max_examples=80, deadline=None)
@given(random_trees(), st.data())
def test_submodular(t, data):
    small = data.draw(st.sets(st.integers(0, t.n - 1), max_size=t.n))
    extra = data.draw(st.sets(st.integers(0, t.n - 1), max_size=t.n))
    big = small | extra
    x = data.draw(st.integers(0, t.n - 1))
    if x in big:
        return
    gain_small = g_score(t, small | {x}) - g_score(t, small)
    gain_big = g_score(t, big | {x}) - g_score(t, big)
    assert gain_small >= gain_big - 1e-9


def _walk_smy(tree, selected, y):
    z = _walk_nearest(tree, selected, y)
    lv = tree.score_levels
    return tree.feq[y] / (lv[y] - lv[z] + 1) if z >= 0 else 0.0


def _walk_g(tree, selected):
    """The loop _g_unchecked replaced, as an oracle: every weighted node walks
    up to its first selected ancestor, and the terms add in preorder."""
    total = 0.0
    for y in tree.important_pre:
        if _walk_nearest(tree, selected, y) >= 0:
            total += _walk_smy(tree, selected, y)
    return total


@settings(max_examples=150, deadline=None)
@given(shuffled_trees(weights=ORDER_WEIGHTS), st.data())
def test_score_matches_walk_bit_for_bit(t, data):
    # the reduced tree scores with score_levels that differ from its levels
    for tree in (t, vtree(t).tree):
        drawn = data.draw(st.sets(st.integers(0, tree.n - 1)))
        for selected in (set(), {tree.root}, set(range(tree.n)), drawn):
            assert repr(_g_unchecked(tree, selected)) == repr(_walk_g(tree, selected))
            assert repr(g_score(tree, selected)) == repr(_walk_g(tree, selected))
            for y in range(tree.n):
                assert repr(smy(tree, selected, y)) == repr(_walk_smy(tree, selected, y))


@settings(max_examples=150, deadline=None)
@given(shuffled_trees(max_n=40, weights=ORDER_WEIGHTS), st.data())
def test_fast_gain_matches_walk_bit_for_bit(t, data):
    # the reduced tree scores with score_levels that differ from its levels
    for tree in (t, vtree(t).tree):
        lists = _lists(tree)
        drawn = data.draw(st.sets(st.integers(0, tree.n - 1)))
        for x in range(tree.n):
            for members in (set(), drawn - {x}):
                fast = marginal_gain_fast(tree, members, x)
                assert repr(fast) == repr(_walk_gain(members, x, *lists))
        # members above and below x, which shield parts of its subtree
        x = data.draw(st.integers(0, tree.n - 1))
        ancestors = {v for v in range(tree.n) if v != x and tree.is_ancestor(v, x)}
        descendants = {v for v in range(tree.n) if v != x and tree.is_ancestor(x, v)}
        keep = data.draw(st.lists(st.booleans(), min_size=tree.n, max_size=tree.n))
        mixed = {v for v in ancestors | descendants if keep[v]}
        for members in (ancestors, descendants, ancestors | descendants, mixed):
            fast = marginal_gain_fast(tree, members, x)
            assert repr(fast) == repr(_walk_gain(members, x, *lists))
