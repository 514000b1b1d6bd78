import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesum import (
    EulerLcaIndex,
    GenSpec,
    Splitmix64,
    WeightedTree,
    avg_level_difference,
    closeness_distance,
    compute_metrics,
    gen_random_tree,
    gts,
    lift_result,
    ots,
    vtree,
    weighted_coverage,
)
from treesum import agg_topk, cagg_topk, feq_topk, marginal_gain_fast, smy
from treesum.errors import EmptySummary, NoImportantNodes
from treesum.scoring import _g_unchecked

from test_greedy import _lists, _walk_gain
from test_optimal import WORKLOAD_TREES
from test_scoring import _walk_smy
from test_tree import (
    ORDER_WEIGHTS,
    SIGNED_ZERO_WEIGHTS,
    _stack_climb_nearest,
    _walk_nearest,
    shuffled_trees,
)


@pytest.fixture(scope="module")
def summary(ontology):
    return ontology.indices(["r", "A", "a1", "b1", "c0"])


def test_closeness_distance(ontology, summary):
    assert closeness_distance(ontology, summary) == 80.0


def test_closeness_distance_zero_when_all_covered(ontology):
    assert closeness_distance(ontology, range(ontology.n)) == 0.0
    assert closeness_distance(ontology, ontology.important) == 0.0


def test_closeness_distance_singleton_tree():
    t = WeightedTree(["x"], [-1], [4.0])
    assert closeness_distance(t, [0]) == 0.0


def test_closeness_distance_empty(ontology):
    with pytest.raises(EmptySummary):
        closeness_distance(ontology, [])


def test_avg_level_difference(ontology, summary):
    assert avg_level_difference(ontology, summary) == pytest.approx(0.4, abs=1e-12)


def test_avg_level_difference_empty_set(ontology):
    t = ontology
    expected = sum(t.levels[y] * t.feq[y] for y in t.important) / t.total_weight()
    assert avg_level_difference(t, []) == pytest.approx(expected, abs=1e-12)
    # the root alone removes only its own gap, which was already zero
    root_only = avg_level_difference(t, [t.root])
    assert root_only == pytest.approx(expected - 0.0, abs=1e-12)


def test_avg_level_difference_no_weights():
    t = WeightedTree(["a", "b"], [-1, 0], [0.0, 0.0])
    with pytest.raises(NoImportantNodes):
        avg_level_difference(t, [0])


def test_weighted_coverage(ontology, summary):
    t = ontology
    assert weighted_coverage(t, summary) == 200.0
    assert weighted_coverage(t, []) == 0.0
    assert weighted_coverage(t, [t.root]) == 40.0
    assert weighted_coverage(t, t.important) <= t.total_weight()


@pytest.mark.parametrize("ones", [2, 9])
def test_weight_sums_add_sequentially(ones):
    # in index order each 1e16 + 1.0 rounds back to 1e16; a compensated sum
    # (the builtin sum from Python 3.12) keeps the ones, and from 8 terms
    # np.sum's pairwise blocks do too
    n = ones + 1
    t = WeightedTree([f"n{i}" for i in range(n)], [-1] + [0] * ones, [1e16] + [1.0] * ones)
    assert t.total_weight() == 1e16
    assert weighted_coverage(t, [t.root]) == 1e16


def test_compute_metrics_report(ontology, summary):
    report = compute_metrics(ontology, summary, algorithm="gts")
    assert (report.cd, report.ald, report.wc) == (80.0, 0.4, 200.0)
    assert report.k == 5
    assert report.algorithm == "gts"
    empty = compute_metrics(ontology, [])
    assert empty.cd is None
    assert empty.wc == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_monotone_under_inclusion(seed):
    t = gen_random_tree(GenSpec(n=60, important_count=25, seed=7000 + seed))
    rng = Splitmix64(seed)
    for _ in range(40):
        small = {rng.randrange(t.n) for _ in range(1 + rng.randrange(6))}
        big = small | {rng.randrange(t.n) for _ in range(1 + rng.randrange(6))}
        assert closeness_distance(t, big) <= closeness_distance(t, small) + 1e-9
        assert avg_level_difference(t, big) <= avg_level_difference(t, small) + 1e-9
        assert weighted_coverage(t, big) >= weighted_coverage(t, small) - 1e-9
        assert avg_level_difference(t, big) <= max(
            t.levels[y] for y in t.important
        )


def _closeness_per_pair(tree, members, index):
    """The scalar per-pair LCA loop that the batched closeness_distance replaced."""
    selected = [tree.check_node(v) for v in set(members)]
    levels = tree.levels
    total = 0.0
    for y in tree.important_pre:
        ly = levels[y]
        best = None
        for x in selected:
            c = index.lca(x, y)
            d = levels[x] + ly - 2 * levels[c]
            if best is None or d < best:
                best = d
                if d == 0:
                    break
        total += best * tree.feq[y]
    return total


def _count_closures(monkeypatch) -> list:
    """A list that gains an entry at every ``EulerLcaIndex._closure`` call."""
    calls = []
    closure = EulerLcaIndex._closure

    def counting(self, nodes):
        calls.append(1)
        return closure(self, nodes)

    monkeypatch.setattr(EulerLcaIndex, "_closure", counting)
    return calls


def test_closeness_lca_queries_do_not_grow_with_k(monkeypatch):
    t = gen_random_tree(GenSpec(n=2000, important_count=200, seed=11))
    index = EulerLcaIndex(t)
    reduced = vtree(t, index)
    kept = set(index.weighted_closure.nodes.tolist())
    calls = _count_closures(monkeypatch)
    # members off the kept closure are closed afresh, once per call; members
    # on it are not closed at all
    outside = [v for v in t.pre_order[::37].tolist() if v not in kept]
    inside = sorted(kept)[::3]
    counts = []
    for members in (outside, inside):
        for k in (1, 50):
            calls.clear()
            closeness_distance(t, members[:k], index=index)
            counts.append(len(calls))
    assert counts == [1, 1, 0, 0]
    # an index vtree has not run on holds no kept closure, and the metrics
    # do not build one: the members are closed once
    calls.clear()
    fresh = EulerLcaIndex(t)
    compute_metrics(t, [v for v in t.pre_order[::37].tolist() if t.feq[v] == 0], index=fresh)
    assert len(calls) == 1 and fresh.weighted_closure is None
    # after vtree, lifted summaries are on the kept closure
    calls.clear()
    for solve in (ots, gts):
        compute_metrics(t, lift_result(reduced, solve(reduced.tree, 25)).selected, index=index)
    assert calls == []


def _closeness_agrees(t, members) -> bool:
    """Check closeness on a warmed index against the per-pair loop and the
    general closure (no index), by repr; True when every member is on the
    index's kept closure, so the kept closure answered."""
    index = EulerLcaIndex(t)
    vtree(t, index)
    want = repr(_closeness_per_pair(t, members, index))
    assert repr(closeness_distance(t, members, index=index)) == want
    assert repr(closeness_distance(t, members)) == want
    return index.weighted_closure.find(t.pre_rank[sorted(set(members))]) is not None


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(shuffled_trees(weights=ORDER_WEIGHTS), shuffled_trees(weights=SIGNED_ZERO_WEIGHTS)),
    st.data(),
)
def test_closeness_on_the_kept_closure_matches_oracles(t, data):
    reduced = vtree(t)
    k = data.draw(st.integers(1, reduced.tree.n))
    for solve in (ots, gts):
        lifted = lift_result(reduced, solve(reduced.tree, k)).selected
        assert _closeness_agrees(t, lifted)
    assert _closeness_agrees(t, [t.root])
    drawn = data.draw(st.sets(st.integers(0, t.n - 1), min_size=1))
    _closeness_agrees(t, drawn)


def test_kept_closure_is_read_only_and_shared_with_no_reduced_tree():
    t = gen_random_tree(GenSpec(n=2000, important_count=200, seed=11))
    index = EulerLcaIndex(t)
    reduced = vtree(t, index)
    closure = index.weighted_closure
    assert index.weighted_closure is closure
    compute_metrics(t, [t.root], index=index)
    names = ("nodes", "up", "levels", "rank", "weighted_at", "bounds")
    cached = [getattr(closure, name) for name in names] + list(closure.jumps)
    assert len(closure.jumps) > 1
    for values in cached:
        assert isinstance(values, np.ndarray) and not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = values[0]
    rt = reduced.tree
    for name in WeightedTree.__slots__:
        values = getattr(rt, name)
        if isinstance(values, np.ndarray):
            assert not any(np.shares_memory(values, c) for c in cached), name
    # the cached nodes and links are vtree's tree
    assert reduced.orig_index == closure.nodes.tolist()
    assert rt.parent.tolist() == closure.up.tolist()


def test_vtree_and_metrics_close_once_per_index(monkeypatch):
    t = gen_random_tree(GenSpec(n=2000, important_count=200, seed=11))
    calls = _count_closures(monkeypatch)
    index = EulerLcaIndex(t)
    reduced = vtree(t, index)
    for k in (1, 10, 50):
        for solve in (ots, gts):
            lifted = lift_result(reduced, solve(reduced.tree, k)).selected
            compute_metrics(t, lifted, index=index)
            compute_metrics(t, lifted, index=index)
    assert len(calls) == 1
    # with no index, one closure per call, as before the index kept one
    calls.clear()
    compute_metrics(t, lifted)
    assert len(calls) == 1


def test_reduction_and_metrics_never_query_pairs(monkeypatch):
    # the closure answers its consecutive windows in one pass; a pairwise
    # query costs its window length, so the pipeline must not make any
    t = gen_random_tree(GenSpec(n=2000, important_count=200, seed=11))
    index = EulerLcaIndex(t)

    def refuse(self, a, b):
        raise AssertionError("lca called")

    monkeypatch.setattr(EulerLcaIndex, "lca", refuse)
    reduced = vtree(t, index)
    assert reduced.tree.n > 1
    compute_metrics(t, t.pre_order[::37][:10].tolist(), index=index)
    compute_metrics(t, t.important[:5].tolist())
    assert vtree(t).tree.n == reduced.tree.n


def test_closeness_without_weighted_nodes_is_zero():
    t = WeightedTree(["r", "a", "b"], [-1, 0, 0], [0.0, 0.0, 0.0])
    index = EulerLcaIndex(t)
    for members in ([0], [2], [0, 1, 2]):
        for got in (closeness_distance(t, members), closeness_distance(t, members, index=index)):
            assert got == 0.0 and type(got) is float
    # the root alone is the kept closure, so [2] is closed afresh
    assert _closeness_agrees(t, [0]) and not _closeness_agrees(t, [2])


def test_closeness_of_one_member_off_the_weighted_set():
    t = gen_random_tree(GenSpec(n=300, important_count=40, seed=12))
    index = EulerLcaIndex(t)
    unweighted = [v for v in t.pre_order.tolist() if t.feq[v] == 0]
    for x in unweighted[::13] + unweighted[-1:]:
        assert repr(closeness_distance(t, [x], index=index)) == repr(
            _closeness_per_pair(t, [x], index)
        )


def test_closeness_on_a_long_chain():
    # every node is weighted, so the closure is the whole chain, and the
    # members at the root end are reached only across all 4,999 links
    n = 5000
    t = WeightedTree([f"c{i}" for i in range(n)], [-1] + list(range(n - 1)), [1.0] * n)
    index = EulerLcaIndex(t)
    assert closeness_distance(t, [0, 1], index=index) == (n - 2) * (n - 1) // 2
    assert closeness_distance(t, [1, 0], index=index) == _closeness_per_pair(t, [0, 1], index)
    assert closeness_distance(t, [n - 1], index=index) == (n - 1) * n // 2


def _coverage_from_children(tree, members):
    """The set-of-children coverage that the parent test replaced."""
    selected = {tree.check_node(v) for v in members}
    covered = set(selected)
    for v in selected:
        covered.update(tree.children[v])
    return sum(tree.feq[y] for y in tree.important if y in covered)


@pytest.mark.parametrize("seed", range(12))
def test_batched_metrics_match_oracles(seed):
    t = gen_random_tree(
        GenSpec(n=150, important_count=60, seed=8100 + seed, height_bias=0.05 + 0.07 * seed)
    )
    index = EulerLcaIndex(t)
    rng = Splitmix64(seed)
    for _ in range(25):
        members = [rng.randrange(t.n) for _ in range(1 + rng.randrange(12))]
        # bit-identical: same terms, same order
        assert closeness_distance(t, members, index=index) == _closeness_per_pair(t, members, index)
        assert closeness_distance(t, members) == _closeness_per_pair(t, members, index)
        assert weighted_coverage(t, members) == _coverage_from_children(t, members)


def _walk_avg_level_difference(tree, members):
    """The loop that avg_level_difference replaced, as an oracle."""
    selected = set(members)
    levels = tree.levels
    num = 0.0
    den = 0.0
    for y in tree.important_pre:
        w = tree.feq[y]
        den += w
        z = _walk_nearest(tree, selected, y)
        num += (levels[y] - (levels[z] if z >= 0 else 0)) * w
    return num / den


@settings(max_examples=150, deadline=None)
@given(shuffled_trees(weights=ORDER_WEIGHTS), st.data())
def test_metrics_match_walks_bit_for_bit(t, data):
    index = EulerLcaIndex(t)
    drawn = data.draw(st.sets(st.integers(0, t.n - 1)))
    for selected in (set(), {t.root}, set(range(t.n)), drawn):
        if selected:
            got = closeness_distance(t, selected, index=index)
            assert repr(got) == repr(_closeness_per_pair(t, selected, index))
        if not t.important.size:
            with pytest.raises(NoImportantNodes):
                avg_level_difference(t, selected)
            continue
        got = avg_level_difference(t, selected)
        assert repr(got) == repr(_walk_avg_level_difference(t, selected))


def test_metrics_leave_children_unbuilt(ontology, summary):
    t = WeightedTree(ontology.ids, ontology.parent, ontology.feq)
    compute_metrics(t, summary)
    assert t._children is None


def test_lca_index_of_another_tree_is_rejected():
    # both trees have 200 nodes, so the other tree's index answers every
    # query, only about the wrong nodes
    t, other = (gen_random_tree(GenSpec(n=200, important_count=40, seed=s)) for s in (1, 2))
    foreign = EulerLcaIndex(other)
    members = t.important_pre[:5].tolist()
    for call in (
        lambda: vtree(t, foreign),
        lambda: closeness_distance(t, members, index=foreign),
        lambda: compute_metrics(t, members, index=foreign),
    ):
        with pytest.raises(ValueError, match="another tree"):
            call()
    own = EulerLcaIndex(t)
    assert vtree(t, own).tree.n == vtree(t).tree.n == 52
    assert closeness_distance(t, members, index=own) == closeness_distance(t, members) == 7479.0


# -- the workload trees against the replaced routes ---------------------------


def _climb_g(tree, selected):
    """g as the parent route computed it: the replaced stack-and-climb
    routine's nearest members, and the terms gathered from the per-node
    arrays at the weighted nodes, added in preorder."""
    imp = tree.important_pre.tolist()
    z = _stack_climb_nearest(tree, selected, imp).tolist()
    lv, feq = tree.score_levels, tree.feq
    total = 0.0
    for y, x in zip(imp, z):
        if x >= 0:
            total += feq[y] / (lv[y] - lv[x] + 1)
    return total


def _closeness_by_paths(tree, members):
    """closeness_distance from each member's root path: LCA(x, y) is the
    deepest node on x's path whose preorder interval holds y."""
    imp = tree.important_pre
    rank = tree.pre_rank[imp]
    ly = tree.levels[imp]
    best = None
    for x in set(members):
        path = [x]
        while tree.parent[path[-1]] >= 0:
            path.append(tree.parent[path[-1]])
        lo = tree.pre_rank[path][:, None]
        holds = (lo <= rank) & (rank < lo + tree.subtree_size[path][:, None])
        meet = np.where(holds, tree.levels[path][:, None], -1).max(axis=0)
        dist = tree.levels[x] + ly - 2 * meet
        best = dist if best is None else np.minimum(best, dist)
    total = 0.0
    for d, y in zip(best.tolist(), imp.tolist()):
        total += d * tree.feq[y]
    return total


def _loop_coverage(tree, members):
    selected = set(members)
    total = 0.0
    for y in tree.important.tolist():
        if y in selected or tree.parent[y] in selected:
            total += tree.feq[y]
    return total


WORKLOAD_CASES = [
    (name, fields, ks, i)
    for name, (fields, ks, trees) in WORKLOAD_TREES.items()
    for i in range(trees)
]


@pytest.mark.parametrize(
    "fields, ks, i", [c[1:] for c in WORKLOAD_CASES], ids=[f"{c[0]}-t{c[3]}" for c in WORKLOAD_CASES]
)
def test_workload_scores_and_metrics_match_the_replaced_routes(fields, ks, i):
    # each of the benchmark's trees at its default seed, with the selections
    # a job makes: every score, gain and metric equals the replaced routes'
    # by float.hex, on the tree and, for the raw solver results, on the
    # reduced tree, whose score levels differ from its levels
    t = gen_random_tree(GenSpec(**fields, seed=70_707 + (i << 32)))
    index = EulerLcaIndex(t)
    reduced = vtree(t, index)
    lists = _lists(t)
    imp = t.important_pre.tolist()
    for k in ks:
        raw = [solve(reduced.tree, k) for solve in (ots, gts)]
        for res in raw:
            selected = set(res.selected)
            assert float.hex(res.score) == float.hex(_climb_g(reduced.tree, selected))
        lifted = [lift_result(reduced, res).selected for res in raw]
        baselines = [feq_topk(t, k), agg_topk(t, k), cagg_topk(t, k, 0.5)]
        for res in baselines:
            assert float.hex(res.score) == float.hex(_climb_g(t, set(res.selected)))
        for members in (*lifted, *(res.selected for res in baselines)):
            selected = set(members)
            assert float.hex(_g_unchecked(t, selected)) == float.hex(_climb_g(t, selected))
            report = compute_metrics(t, members, index=index)
            assert float.hex(report.cd) == float.hex(_closeness_by_paths(t, members))
            assert float.hex(report.ald) == float.hex(_walk_avg_level_difference(t, members))
            assert float.hex(report.wc) == float.hex(_loop_coverage(t, members))
            # smy at every 37th weighted node and at each member
            for y in imp[::37] + sorted(selected):
                assert float.hex(smy(t, selected, y)) == float.hex(_walk_smy(t, selected, y))
            # the gain of each member's parent, and of a few weighted nodes
            for x in {t.parent[v] for v in selected if t.parent[v] >= 0} | set(imp[::251]):
                if x not in selected:
                    want = _walk_gain(selected, x, *lists)
                    assert float.hex(marginal_gain_fast(t, selected, x)) == float.hex(want)
