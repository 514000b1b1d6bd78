import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesum import GenSpec, brute_force, g_score, gen_random_tree, gts, vtree
from treesum.errors import InvalidK
from treesum import greedy
from treesum.greedy import _first_round
from treesum.scoring import _cover_gain, _g_unchecked

from test_tree import random_trees, shuffled_trees

ONE_MINUS_1_OVER_E = 1 - 1 / 2.718281828459045

# {0, 1, 2} makes equal gains common, so the preorder tie-break decides;
# 1e16 next to 0.1 and 1/3 makes sums depend on the order of their terms.
TIE_WEIGHTS = (0.0, 1.0, 2.0)
ORDER_WEIGHTS = (0.0, 0.1, 1 / 3, 1e16, 7.0)


def _lists(tree):
    """The tree's parent, children, score levels and weights as lists."""
    return tree.parent.tolist(), tree.children, tree.score_levels.tolist(), tree.feq.tolist()


def _walk_gain(selected, x, parent, children, lv, feq):
    """The marginal gain of an unselected x by set-membership walks, the
    bit-exact oracle of the cover gain: climb to x's nearest selected
    ancestor, then stack-walk x's subtree without entering selected nodes."""
    lz = float("-inf")
    v = parent[x]
    while v >= 0:
        if v in selected:
            lz = lv[v]
            break
        v = parent[v]

    lx = lv[x]
    gain = 0.0
    stack = [x]
    while stack:
        y = stack.pop()
        w = feq[y]
        if w:
            ly = lv[y]
            gain += w / (ly - lx + 1) - w / (ly - lz + 1)
        for c in children[y]:
            if c not in selected:
                stack.append(c)
    return gain


def _scan_gts(tree, k):
    """The greedy loop gts replaces: every round rescans every candidate in
    preorder and keeps the first strict maximum."""
    selected = set()
    order = []
    trace = []
    lists = _lists(tree)
    for _ in range(k):
        best = None
        best_gain = -1.0
        for x in tree.pre_order:
            if x in selected:
                continue
            gain = _walk_gain(selected, x, *lists)
            if gain > best_gain:
                best_gain = gain
                best = x
        selected.add(best)
        order.append(best)
        trace.append((best, best_gain))
    return order, trace, _g_unchecked(tree, selected)


def _assert_matches_scan(tree, k):
    res = gts(tree, k)
    order, trace, score = _scan_gts(tree, k)
    assert res.selected == order
    assert res.trace == trace
    assert repr(res.score) == repr(score)


def test_running_example_trace(ontology):
    t = ontology
    res = gts(t, 5)
    assert res.selected_ids(t) == ["r", "A", "a1", "b1", "c0"]
    gains = [g for _, g in res.trace]
    assert gains[0] == 75.0
    assert gains[1] == pytest.approx(85 / 3, abs=1e-9)
    assert gains[2:4] == [20.0, 20.0]
    assert gains[4] == pytest.approx(50 / 3, abs=1e-9)
    assert res.score == 160.0
    assert res.algorithm == "gts"


def test_gap_tree(gap_tree):
    res = gts(gap_tree, 2)
    assert sorted(res.selected_ids(gap_tree)) == ["v2", "v4"]
    assert res.score == 64.0
    assert res.trace[0][1] == 43.0
    assert res.trace[1][1] == 21.0


def test_k_equals_n(ontology):
    res = gts(ontology, ontology.n)
    assert len(res.selected) == ontology.n
    assert res.score == ontology.total_weight() == 200.0


def test_invalid_k(ontology):
    with pytest.raises(InvalidK):
        gts(ontology, 0)
    with pytest.raises(InvalidK):
        gts(ontology, ontology.n + 1)


def test_score_matches_selected_set(ontology):
    res = gts(ontology, 4)
    assert res.score == pytest.approx(g_score(ontology, res.selected), abs=1e-12)


def test_deterministic_rerun(ontology):
    a = gts(ontology, 5)
    b = gts(ontology, 5)
    assert a.selected == b.selected
    assert a.trace == b.trace
    assert a.score == b.score


@pytest.mark.parametrize("seed", range(10))
def test_trace_gains_non_increasing(seed):
    t = gen_random_tree(GenSpec(n=30, important_count=12, seed=seed))
    res = gts(t, 8)
    gains = [g for _, g in res.trace]
    for earlier, later in zip(gains, gains[1:]):
        # exact: the lazy heap relies on gains never rising in floating point
        assert later <= earlier


@pytest.mark.parametrize("seed", range(10))
def test_approximation_vs_brute(seed):
    t = gen_random_tree(GenSpec(n=14, important_count=7, seed=100 + seed))
    for k in (1, 2, 3):
        greedy = gts(t, k).score
        best = brute_force(t, k).score
        assert greedy >= ONE_MINUS_1_OVER_E * best - 1e-9
        assert greedy <= best + 1e-9


@settings(max_examples=60, deadline=None)
@given(random_trees(max_n=9), st.data())
def test_approximation_vs_brute_force_property(t, data):
    k = data.draw(st.integers(1, t.n))
    greedy = gts(t, k).score
    best = brute_force(t, k).score
    assert greedy >= ONE_MINUS_1_OVER_E * best - 1e-9
    assert greedy <= best + 1e-9


# -- lazy evaluation against the rescanning loop -------------------------------


@pytest.mark.parametrize("weights", [TIE_WEIGHTS, ORDER_WEIGHTS], ids=["ties", "order"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_gts_matches_scan(weights, data):
    t = data.draw(shuffled_trees(max_n=40, weights=weights))
    for k in sorted({1, data.draw(st.integers(1, t.n)), t.n}):
        _assert_matches_scan(t, k)


@pytest.mark.parametrize("weights", [TIE_WEIGHTS, ORDER_WEIGHTS], ids=["ties", "order"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_first_round_matches_subtree_walks(weights, data):
    t = data.draw(shuffled_trees(max_n=40, weights=weights))
    parent, children, lv, feq = _lists(t)
    gains = [_walk_gain(set(), x, parent, children, lv, feq) for x in range(t.n)]
    assert _first_round(parent, lv, feq, t.post_order.tolist()) == gains


def test_gts_matches_scan_on_reduced_tree():
    reduced = vtree(gen_random_tree(GenSpec(n=10**4, important_count=10**3, seed=70_707))).tree
    parent, children, lv, feq = _lists(reduced)
    gains = [_walk_gain(set(), x, parent, children, lv, feq) for x in range(reduced.n)]
    assert _first_round(parent, lv, feq, reduced.post_order.tolist()) == gains
    _assert_matches_scan(reduced, 100)


@pytest.mark.parametrize("weights", [TIE_WEIGHTS, ORDER_WEIGHTS], ids=["ties", "order"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_gts_is_prefix_nested(weights, data):
    # the picks of a larger budget, cut to k, are the picks of budget k
    t = data.draw(shuffled_trees(max_n=40, weights=weights))
    big = data.draw(st.integers(1, t.n))
    full = gts(t, big)
    for k in sorted({1, data.draw(st.integers(1, big)), big}):
        res = gts(t, k)
        assert res.selected == full.selected[:k]
        assert res.trace == full.trace[:k]


@settings(max_examples=60, deadline=None)
@given(shuffled_trees(max_n=40, weights=ORDER_WEIGHTS), st.data())
def test_gts_stats_count_the_work(t, data):
    calls = []

    def counted(*args):
        calls.append(args)
        return _cover_gain(*args)

    k = data.draw(st.integers(1, t.n))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(greedy, "_cover_gain", counted)
        res = gts(t, k)
    # the first round adds one term per (weighted node, node on its root path)
    terms = 0
    for y in range(t.n):
        v = y
        while v >= 0 and t.feq[y]:
            terms += 1
            v = t.parent[v]
    assert res.stats == {"gain_evals": len(calls), "first_round_terms": terms}
    assert all(type(v) is int for v in res.stats.values())
