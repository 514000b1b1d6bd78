import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesum import (
    GenSpec,
    WeightedTree,
    agg_topk,
    brute_force,
    cagg_topk,
    feq_topk,
    gen_random_tree,
    g_score,
    ots,
)
from treesum import baselines
from treesum.errors import EnumerationTooLarge, InvalidK

from test_tree import SIGNED_ZERO_WEIGHTS, _variants, random_trees


def test_feq_topk(ontology):
    t = ontology
    res = feq_topk(t, 5)
    assert set(res.selected_ids(t)) == {"a1", "A", "b1", "a2", "a3"}
    assert feq_topk(t, 1).selected_ids(t) == ["a1"]


def test_feq_tie_break_preorder():
    t = gen_random_tree(GenSpec(n=6, important_count=6, seed=1, weight_low=5, weight_high=5))
    res = feq_topk(t, 2)
    assert res.selected == t.pre_order[:2].tolist()


def test_aggregate_weights(ontology):
    t = ontology
    af = t.subtree_weight.tolist()
    assert af[t.root] == 200.0 == t.total_weight()
    assert af[t.index("A")] == 110.0
    assert af[t.index("C")] == 50.0
    assert af[t.index("c0")] == 50.0
    assert af[t.index("c3")] == t.feq[t.index("c3")]


def test_aggregate_matches_descendant_sums():
    t = gen_random_tree(GenSpec(n=50, important_count=25, seed=11))
    af = t.subtree_weight.tolist()
    for v in range(t.n):
        direct = sum(t.feq[y] for y in range(t.n) if t.is_ancestor(v, y))
        assert af[v] == pytest.approx(direct, abs=1e-9)


def _post_order_aggregate(tree):
    """The post-order loop that the level-by-level sums replaced, as an oracle."""
    af = list(tree.feq)
    for v in tree.post_order:
        p = tree.parent[v]
        if p >= 0:
            af[p] += af[v]
    return af


def _hexes(values):
    """``values`` as ``float.hex`` strings, which tell -0.0 from 0.0."""
    return [x.hex() for x in values]


ROUNDING_WEIGHTS = (0.0, 0.1, 0.7, 1 / 3, 2.5, 1e16)
# mostly weightless nodes, as in the paper's datasets: the aggregate then
# folds only the weighted nodes' ancestors
SPARSE_WEIGHTS = (0.0,) * 10 + (0.1, 2.5)


@st.composite
def _rounding_trees(draw, weights=ROUNDING_WEIGHTS):
    """Random shapes with weights whose sums depend on the order of addition."""
    t = draw(random_trees())
    weights = draw(st.lists(st.sampled_from(weights), min_size=t.n, max_size=t.n))
    return WeightedTree(t.ids, t.parent, weights)


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(
        _rounding_trees(),
        _rounding_trees(weights=SPARSE_WEIGHTS),
        _rounding_trees(weights=SIGNED_ZERO_WEIGHTS),
    ),
    st.sampled_from([0.0, 0.1, 0.4, 0.5, 1.0]),
)
def test_aggregate_and_cagg_filter_match_post_order_loop(t, theta):
    af = _post_order_aggregate(t)
    assert _hexes(t.subtree_weight.tolist()) == _hexes(af)
    # built once per tree and shared, so no caller may write into it
    assert t.subtree_weight is t.subtree_weight
    assert not t.subtree_weight.flags.writeable
    qualifying = []
    for v in t.pre_order:
        p = t.parent[v]
        if (1.0 if p < 0 or af[p] == 0 else af[v] / af[p]) >= theta:
            qualifying.append(v)
    ranked = sorted(qualifying, key=lambda v: (-af[v], t.pre_rank[v]))
    assert cagg_topk(t, t.n, theta).selected == ranked


# r(a(a1, a2), b(b1(b2)), c)
FIXED_SHAPE = [-1, 0, 0, 0, 1, 1, 2, 6]
FIXED_WEIGHTS = {
    "all-positive-zero": [0.0] * 8,
    "all-negative-zero": [-0.0] * 8,
    "only-the-root": [3.0] + [0.0] * 7,
    # b is -0.0 over b1 (+0.0) over b2 (-0.0): b's sum is +0.0
    "negative-over-positive-zero": [0.0, 1.5, -0.0, 0.0, 2.0, 0.0, 0.0, -0.0],
}


@pytest.mark.parametrize("weights", FIXED_WEIGHTS.values(), ids=FIXED_WEIGHTS.keys())
def test_aggregate_of_fixed_trees(weights):
    t = WeightedTree([f"n{i}" for i in range(len(weights))], FIXED_SHAPE, weights)
    assert _hexes(t.subtree_weight.tolist()) == _hexes(_post_order_aggregate(t))


def test_aggregate_past_16_bit_levels():
    # a spine of 70,000 nodes with a leaf on each: the depth order needs both
    # passes of the radix sort, and in each level the leaf and the next spine
    # node add into the same parent in child order; with only the bottom
    # leaf weighted, the climb to the support takes one step per level
    spine = 70_000
    parent = [-1] + list(range(spine - 1)) + list(range(spine))
    one_leaf = [0.0] * len(parent)
    one_leaf[-1] = 0.7
    deep_sparse = WeightedTree([f"n{i}" for i in range(len(parent))], parent, one_leaf)
    for t in (*_variants(parent, seed=spine), deep_sparse):
        assert t.height == spine
        af = _post_order_aggregate(t)
        assert _hexes(t.subtree_weight.tolist()) == _hexes(af)


def test_agg_topk(ontology):
    t = ontology
    assert set(agg_topk(t, 5).selected_ids(t)) == {"r", "A", "C", "c0", "a1"}


def test_cagg_topk(ontology):
    t = ontology
    res = cagg_topk(t, 5, theta=0.4)
    assert set(res.selected_ids(t)) == {"r", "A", "b1", "c0"}
    assert res.underfilled
    assert "a1" not in res.selected_ids(t)  # 40/110 falls below 0.4


@pytest.mark.parametrize("seed", range(8))
def test_cagg_theta_zero_equals_agg(seed):
    t = gen_random_tree(GenSpec(n=35, important_count=12, seed=40 + seed))
    for k in (1, 4, 9):
        assert cagg_topk(t, k, theta=0.0).selected == agg_topk(t, k).selected


def test_cagg_theta_one(ontology):
    res = cagg_topk(ontology, 5, theta=1.0)
    ids = set(res.selected_ids(ontology))
    # only full-contribution chains qualify: the root and single-child lines
    assert ids == {"r", "b1", "c0"}
    assert res.underfilled


def _sorted_ranking(tree, value, candidates, k):
    """The full-sort top-k cut that the partition cut replaced."""
    return sorted(candidates, key=lambda v: (-value[v], tree.pre_rank[v]))[:k]


def _qualifying(tree, af, theta):
    """cagg's candidates: every node whose share of its parent's aggregate
    is at least ``theta``, in preorder."""
    return [
        v
        for v in tree.pre_order
        if tree.parent[v] < 0 or af[tree.parent[v]] == 0 or af[v] / af[tree.parent[v]] >= theta
    ]


@settings(max_examples=80, deadline=None)
@given(_rounding_trees(weights=(-0.0, *ROUNDING_WEIGHTS)), st.sampled_from([0.0, 0.4, 1.0]))
def test_positive_cut_matches_sorted_ranking(t, theta):
    # around k = p, the number of positive candidates, the baselines switch
    # between ranking the positive candidates and ranking them all
    af = _post_order_aggregate(t)
    for summarize, value, candidates in (
        (feq_topk, t.feq.tolist(), t.pre_order.tolist()),
        (agg_topk, af, t.pre_order.tolist()),
        (lambda t, k: cagg_topk(t, k, theta), af, _qualifying(t, af, theta)),
    ):
        p = sum(value[v] > 0 for v in candidates)
        for k in sorted({1, p - 1, p, p + 1, t.n} & set(range(1, t.n + 1))):
            res = summarize(t, k)
            expected = _sorted_ranking(t, value, candidates, k)
            assert res.selected == expected
            assert repr(res.score) == repr(g_score(t, expected))
            assert res.underfilled == (len(candidates) < k)
            ranked = res.stats["ranked"]
            assert type(ranked) is int and ranked == (p if p >= k else len(candidates))


def test_baselines_count_the_ranked_candidates():
    # 1% of the nodes weighted, as in the paper's datasets
    t = gen_random_tree(GenSpec(n=10**4, important_count=100, seed=19))
    assert feq_topk(t, 10).stats == {"ranked": 100}
    assert feq_topk(t, 101).stats == {"ranked": t.n}
    positive = int((t.subtree_weight > 0).sum())
    assert 100 < positive < t.n
    assert agg_topk(t, 10).stats == {"ranked": positive}
    assert cagg_topk(t, 10, theta=0.0).stats == {"ranked": positive}


def test_agg_positive_route_matches_preorder_route():
    # agg_topk ranks only the nodes of positive aggregate when at least k
    # exist; a full sort of every node in preorder is the route it replaced
    sparse = gen_random_tree(GenSpec(n=2000, important_count=8, seed=23))
    assert 10 < int((sparse.subtree_weight > 0).sum()) < sparse.n // 10
    signed_zero = WeightedTree(["r", "a", "b", "c"], [-1, 0, 0, 1], [0.0, -0.0, 2.0, 0.0])
    for t in (sparse, signed_zero):
        af = t.subtree_weight
        p = int((af > 0).sum())
        # k = 1 .. p with the positive nodes, p + 1 .. with fewer than k of them
        for k in sorted({1, p - 1, p, p + 1, p + 10} & set(range(1, t.n + 1))):
            got, want = agg_topk(t, k), _sorted_ranking(t, af, t.pre_order, k)
            assert got.selected == want
            assert repr(got.score) == repr(g_score(t, want))
            assert not got.underfilled
            assert got.stats == {"ranked": p if p >= k else t.n}


def test_cagg_fallback_ranks_zero_aggregate_nodes():
    # four nodes have a positive aggregate, but only r and a qualify at
    # theta = 0.9; every node is then filtered, and z1 (aggregate 0 under z,
    # also 0) qualifies with ratio 1 and comes in third by preorder rank
    t = WeightedTree(["r", "a", "z", "a1", "a2", "z1"], [-1, 0, 0, 1, 1, 2], [0, 5, 0, 2, 3, 0])
    assert int((t.subtree_weight > 0).sum()) == 4
    for k in (3, 4):
        res = cagg_topk(t, k, theta=0.9)
        assert res.selected_ids(t) == ["r", "a", "z1"]
        assert repr(res.score) == repr(7.5)
        assert res.underfilled == (k == 4)
        assert res.stats == {"ranked": 3}


@pytest.mark.parametrize("seed", range(6))
def test_topk_matches_sorted_ranking_with_ties(seed):
    # weights drawn from {1, 2} and many weightless nodes: values tie often
    t = gen_random_tree(
        GenSpec(n=60, important_count=30, seed=90 + seed, weight_low=1, weight_high=2)
    )
    af = t.subtree_weight.tolist()
    for k in (1, 2, 7, 30, t.n):
        assert feq_topk(t, k).selected == _sorted_ranking(t, t.feq, t.pre_order, k)
        assert agg_topk(t, k).selected == _sorted_ranking(t, af, t.pre_order, k)
        for theta in (0.0, 0.3, 0.5):
            qualifying = [
                v
                for v in t.pre_order
                if t.parent[v] < 0 or af[t.parent[v]] == 0 or af[v] / af[t.parent[v]] >= theta
            ]
            res = cagg_topk(t, k, theta=theta)
            assert res.selected == _sorted_ranking(t, af, qualifying, k)
            assert res.underfilled == (len(qualifying) < k)
            assert res.score == g_score(t, res.selected)


def test_brute_force_golden(ontology, gap_tree):
    res = brute_force(gap_tree, 2)
    assert res.selected_ids(gap_tree) == ["v3", "v4"]
    assert res.score == 81.0
    assert brute_force(ontology, 5).score == 160.0


def test_brute_force_k_equals_n(gap_tree):
    res = brute_force(gap_tree, gap_tree.n)
    assert len(res.selected) == gap_tree.n
    assert res.score == gap_tree.total_weight()


def test_brute_force_cap(ontology):
    with pytest.raises(EnumerationTooLarge):
        brute_force(ontology, 6, subset_cap=100)


def test_invalid_k(ontology):
    for fn in (feq_topk, agg_topk, brute_force):
        with pytest.raises(InvalidK):
            fn(ontology, 0)
    with pytest.raises(InvalidK):
        cagg_topk(ontology, 0)


def test_brute_matches_exact_solver():
    for seed in range(8):
        t = gen_random_tree(GenSpec(n=13, important_count=6, seed=60 + seed))
        for k in (1, 2, 3):
            assert brute_force(t, k).score == pytest.approx(ots(t, k).score, abs=1e-9)


def test_brute_tie_break_lexicographic(monkeypatch):
    # all weights equal on a star: every singleton scores the same except
    # the root, which covers everything; pick k covering sets tie and the
    # preorder-lexicographically smallest combination must win
    t = gen_random_tree(GenSpec(n=5, important_count=5, seed=2, weight_low=3, weight_high=3))
    res = brute_force(t, 2)
    assert res.score == pytest.approx(g_score(t, res.selected), abs=1e-12)
    # one subset per batch: ties across batches resolve the same way
    monkeypatch.setattr(baselines, "_BATCH_CELLS", 1)
    alt = brute_force(t, 2)
    assert alt.selected == res.selected


def test_brute_force_batches_stay_within_their_budget():
    # 700 * 700 cells per subset: the budget fits 8 subsets a batch; a floor
    # of 16 subsets a batch peaked at 68.0 MiB here, past the bound
    t = gen_random_tree(GenSpec(n=700, important_count=700, seed=3))
    cells = len(t.important_pre) * t.n
    assert cells > 250_000
    tracemalloc.start()
    try:
        res = brute_force(t, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one batch's product plus the setup's few (weighted, n) matrices
    assert peak <= (baselines._BATCH_CELLS + 3 * cells) * 8
    assert res.score == pytest.approx(ots(t, 1).score, abs=1e-9)
