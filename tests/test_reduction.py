import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from treesum import (
    EulerLcaIndex,
    GenSpec,
    WeightedTree,
    gen_random_tree,
    g_score,
    gts,
    lift_result,
    ots,
    vtree,
)
from treesum import reduction
from treesum.errors import InvalidK, ScoreMismatch
from treesum.reduction import ReducedTree

from test_tree import _naive_lca, shuffled_trees

INF = float("inf")


def test_sparse_tree_reduction(sparse_tree):
    rt = vtree(sparse_tree)
    assert sorted(rt.tree.ids) == ["v1", "v2", "v6", "v7", "v9"]
    v7 = rt.tree.index("v7")
    assert rt.tree.ids[rt.tree.parent[v7]] == "v2"
    assert rt.edge_weights[v7] == 2
    v2 = rt.tree.index("v2")
    assert rt.tree.ids[rt.tree.parent[v2]] == "v1"
    assert rt.edge_weights[v2] == 1
    # levels seen by the scorer are the original ones
    assert rt.tree.score_levels[v7] == sparse_tree.levels[sparse_tree.index("v7")] == 3


def test_empty_important_set():
    t = WeightedTree(["a", "b", "c"], [-1, 0, 1], [0.0, 0.0, 0.0])
    rt = vtree(t)
    assert rt.tree.n == 1
    assert rt.tree.ids == ["a"]


def test_all_weights_positive_is_identity(ontology):
    t = WeightedTree(ontology.ids, ontology.parent, [w if w else 1.0 for w in ontology.feq])
    rt = vtree(t)
    assert rt.tree.n == t.n
    assert rt.tree.ids == [t.ids[v] for v in t.pre_order]
    assert rt.tree.n <= 2 * len(t.important) + 1
    res = ots(rt.tree, 4)
    lifted = lift_result(rt, res)
    assert sorted(lifted.selected_ids(t)) == sorted(res.selected_ids(rt.tree))


@pytest.mark.parametrize("seed", range(20))
def test_size_bound(seed):
    n = 40 + 13 * seed
    t = gen_random_tree(GenSpec(n=n, important_count=max(1, n // 3), seed=seed))
    rt = vtree(t)
    assert rt.tree.n <= 2 * len(t.important) + 1
    assert set(t.important_pre) <= set(rt.orig_index)
    assert t.root in rt.orig_index


@pytest.mark.parametrize("seed", range(12))
def test_optimum_preserved(seed):
    t = gen_random_tree(GenSpec(n=45 + 9 * seed, important_count=14, seed=3000 + seed))
    rt = vtree(t)
    for k in (1, 2, 3, 5):
        direct = ots(t, k)
        reduced = lift_result(rt, ots(rt.tree, k))
        assert reduced.score == pytest.approx(direct.score, abs=1e-9)
        assert g_score(t, reduced.selected) == pytest.approx(direct.score, abs=1e-9)


def test_sparse_tree_lift_scores(sparse_tree):
    rt = vtree(sparse_tree)
    for k in (1, 2, 3):
        lifted = lift_result(rt, ots(rt.tree, k))
        assert lifted.score == pytest.approx(ots(sparse_tree, k).score, abs=1e-9)


def test_greedy_guarantee_survives_reduction(sparse_tree):
    rt = vtree(sparse_tree)
    reduced = lift_result(rt, gts(rt.tree, 2))
    best = ots(sparse_tree, 2).score
    assert reduced.score >= (1 - 1 / 2.718281828459045) * best - 1e-9


def test_lift_rejects_bad_mapping(sparse_tree):
    rt = vtree(sparse_tree)
    res = ots(rt.tree, 2)
    # remap v* nodes to the wrong originals: scores must disagree
    broken = ReducedTree(
        tree=rt.tree,
        original=rt.original,
        orig_index=list(reversed(rt.orig_index)),
        edge_weights=rt.edge_weights,
    )
    with pytest.raises(ScoreMismatch):
        lift_result(broken, res)


@pytest.mark.parametrize("reduced, original", [(float("nan"), None), (INF, INF)], ids=["nan", "inf"])
def test_lift_guard_fails_a_non_finite_mismatch(sparse_tree, monkeypatch, reduced, original):
    # inf - inf is nan, and a nan difference is no agreement
    rt = vtree(sparse_tree)
    res = ots(rt.tree, 2)
    if original is not None:
        monkeypatch.setattr(reduction, "g_score", lambda tree, selected: original)
    with pytest.raises(ScoreMismatch):
        lift_result(rt, dataclasses.replace(res, score=reduced))


def test_k_larger_than_reduced_tree(sparse_tree):
    rt = vtree(sparse_tree)
    with pytest.raises(InvalidK):
        ots(rt.tree, rt.tree.n + 1)


def test_zero_weight_keepers_are_pair_ancestors(sparse_tree):
    t = sparse_tree
    rt = vtree(t)
    idx = EulerLcaIndex(t)
    imp = t.important_pre
    pair_lcas = {idx.lca(a, b) for a, b in zip(imp, imp[1:])}
    for i, orig in enumerate(rt.orig_index):
        if rt.tree.feq[i] == 0:
            assert orig == t.root or orig in pair_lcas


@pytest.mark.parametrize("seed", range(6))
def test_consecutive_pair_lcas_cover_all_subset_lcas(seed):
    t = gen_random_tree(GenSpec(n=24, important_count=9, seed=5000 + seed))
    idx = EulerLcaIndex(t)
    imp = t.important_pre
    for size in (2, 3, 4):
        for subset in itertools.combinations(imp, size):
            whole = subset[0]
            for v in subset[1:]:
                whole = idx.lca(whole, v)
            consecutive = {idx.lca(a, b) for a, b in zip(subset, subset[1:])}
            assert whole in consecutive


def _stack_vtree_links(tree):
    """The kept set, with pairwise LCAs from a parent walk, and the
    nearest-kept-ancestor stack loop that vtree's closure replaced, as an
    oracle: (kept nodes in preorder, reduced parents, edge weights)."""
    imp = tree.important_pre
    keep = set(imp)
    keep.add(tree.root)
    if len(imp) > 1:
        keep.update(_naive_lca(tree, a, b) for a, b in zip(imp[:-1], imp[1:]))
    ordered = sorted(keep, key=tree.pre_rank.__getitem__)
    new_index = {v: i for i, v in enumerate(ordered)}
    parent = [-1] * len(ordered)
    edge_weights = [0] * len(ordered)
    stack = []
    for v in ordered:
        while stack and not tree.is_ancestor(stack[-1], v):
            stack.pop()
        if stack:
            p = stack[-1]
            parent[new_index[v]] = new_index[p]
            edge_weights[new_index[v]] = tree.levels[v] - tree.levels[p]
        stack.append(v)
    return ordered, parent, edge_weights


def _assert_links_match_stack(tree):
    rt = vtree(tree)
    ordered, parent, edge_weights = _stack_vtree_links(tree)
    assert rt.orig_index == ordered
    assert rt.tree.parent.tolist() == parent
    assert rt.edge_weights == edge_weights
    assert all(type(x) is int for x in rt.orig_index + rt.edge_weights)
    assert rt.tree.parent.dtype == np.int64 and not rt.tree.parent.flags.writeable


@settings(max_examples=150, deadline=None)
@given(shuffled_trees())
def test_vtree_links_match_stack_loop(t):
    _assert_links_match_stack(t)


def test_vtree_links_match_stack_loop_on_fixtures(ontology, gap_tree, sparse_tree):
    for t in (ontology, gap_tree, sparse_tree):
        _assert_links_match_stack(t)
    # one weighted node: the root and that node are kept
    t = WeightedTree(["a", "b", "c", "d"], [-1, 0, 1, 0], [0.0, 0.0, 3.0, 0.0])
    _assert_links_match_stack(t)
    assert vtree(t).edge_weights == [0, 2]
