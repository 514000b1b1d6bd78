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
    vtree,
    weighted_coverage,
)
from treesum.errors import EmptySummary, NoImportantNodes

from test_tree import ORDER_WEIGHTS, _walk_nearest, shuffled_trees


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
