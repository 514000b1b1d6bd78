"""End-to-end acceptance suite.

One test per shipped guarantee; every test prints a single PASS line after
its assertions so a verbose run doubles as an acceptance report.  Numeric
tolerances are pinned here and nowhere else: exact-vs-exhaustive score ties
at 1e-9, gain golden values at 1e-6.
"""
import itertools
import os
import time
from math import e as EULER_E

import pytest

from treesum import (
    GenSpec,
    Splitmix64,
    avg_level_difference,
    brute_force,
    closeness_distance,
    EulerLcaIndex,
    g_score,
    gen_random_tree,
    gts,
    lift_result,
    marginal_gain_fast,
    marginal_gain_naive,
    ots,
    parse_tree_tsv,
    vtree,
    weighted_coverage,
)
from treesum.optimal import DpKey, OtsSolver

GUARANTEE = 1 - 1 / EULER_E


def _best_ms(fn, repeats=30):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def test_criterion_1_golden_running_example(ontology):
    t = ontology
    greedy = gts(t, 5)
    exact = ots(t, 5)

    assert set(greedy.selected_ids(t)) == {"r", "A", "a1", "b1", "c0"}
    assert abs(greedy.score - 160.0) <= 1e-9
    assert abs(exact.score - 160.0) <= 1e-9

    # the five reference gains hold as marginal gains along the insertion
    # order (A, r, a1, b1, c0)
    reference_path = ["A", "r", "a1", "b1", "c0"]
    reference_gains = [70.0, 100 / 3, 20.0, 20.0, 50 / 3]
    acc = set()
    for node_id, expected in zip(reference_path, reference_gains):
        v = t.index(node_id)
        assert marginal_gain_fast(t, acc, v) == pytest.approx(expected, abs=1e-6)
        acc.add(v)

    # documented exception: the root's opening gain recomputes to 75 (not
    # 65), which strictly dominates 70, so the honest greedy opens at the
    # root; its trace is pinned here
    assert marginal_gain_fast(t, set(), t.root) == pytest.approx(75.0, abs=1e-9)
    assert greedy.selected_ids(t) == ["r", "A", "a1", "b1", "c0"]
    assert [g for _, g in greedy.trace] == pytest.approx(
        [75.0, 85 / 3, 20.0, 20.0, 50 / 3], abs=1e-6
    )

    gts_ms = _best_ms(lambda: gts(t, 5))
    ots_ms = _best_ms(lambda: ots(t, 5))
    assert gts_ms < 1.0
    assert ots_ms < 1.0
    print(
        f"\nacceptance 1 (golden running example): PASS — scores 160/160, "
        f"opening gain 75, gts {gts_ms:.3f} ms, ots {ots_ms:.3f} ms"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable opening order: the greedy argmax cannot start at the "
        "gain-70 node while the root offers gain 75 on the same weights; "
        "kept so any change that makes this pass is flagged"
    ),
)
def test_criterion_1_superseded_opening_order(ontology):
    t = ontology
    greedy = gts(t, 5)
    assert greedy.selected_ids(t) == ["A", "r", "a1", "b1", "c0"]
    assert [g for _, g in greedy.trace] == pytest.approx(
        [70.0, 100 / 3, 20.0, 20.0, 50 / 3], abs=1e-6
    )


def test_criterion_2_golden_greedy_gap(gap_tree):
    t = gap_tree
    greedy = gts(t, 2)
    assert sorted(greedy.selected_ids(t)) == ["v2", "v4"]
    assert greedy.score == 64.0

    exact = ots(t, 2)
    blunt = brute_force(t, 2)
    assert exact.selected_ids(t) == ["v3", "v4"]
    assert blunt.selected_ids(t) == ["v3", "v4"]
    assert exact.score == 81.0 == blunt.score

    s = OtsSolver(t, 2)
    v3 = t.index("v3")
    assert s.dp_eval(DpKey(t.index("v5"), 0, v3)).value == 9.0
    assert s.dp_eval(DpKey(t.index("v6"), 0, v3)).value == 3.0
    assert s.dp_eval(DpKey(t.index("v7"), 0, v3)).value == 3.0
    assert s.yes_case(DpKey(t.index("v4"), 1, None)) == 42.0
    assert s.yes_case(DpKey(t.index("v3"), 1, None)) == 39.0
    assert s.dp_eval(DpKey(t.index("v2"), 2, None)).value == 81.0
    assert s.dp_eval(DpKey(t.index("v1"), 2, None)).value == 81.0
    print("\nacceptance 2 (golden greedy-gap tree): PASS — 64 vs 81, memo rows exact")


def test_criterion_3_exact_matches_enumeration_on_200_trees():
    start = time.perf_counter()
    ratios = []
    for seed in range(200):
        t = gen_random_tree(GenSpec(n=20, important_count=10, seed=10_000 + seed))
        for k in (2, 3, 4, 5):
            exact = ots(t, k).score
            blunt = brute_force(t, k).score
            assert abs(exact - blunt) <= 1e-9
            greedy = gts(t, k).score
            assert greedy >= GUARANTEE * exact - 1e-9
            ratios.append(greedy / exact)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    mean_ratio = sum(ratios) / len(ratios)
    assert mean_ratio >= GUARANTEE
    print(
        f"\nacceptance 3 (200-tree exact-vs-enumeration sweep): PASS — "
        f"mean greedy/optimal ratio {mean_ratio:.4f}, {elapsed:.1f}s"
    )


def test_criterion_4_reduction_preserves_optima():
    start = time.perf_counter()
    for i in range(100):
        n = 50 + (i * 450) // 99
        zero_fraction = 0.3 + 0.4 * (i % 10) / 9.0
        important = max(5, round(n * (1.0 - zero_fraction)))
        t = gen_random_tree(GenSpec(n=n, important_count=important, seed=20_000 + i))
        rt = vtree(t)
        assert rt.tree.n <= 2 * len(t.important) + 1
        for k in (1, 3, 5):
            direct = ots(t, k).score
            lifted = lift_result(rt, ots(rt.tree, k)).score
            assert abs(direct - lifted) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nacceptance 4 (reduction preserves optima, 100 trees): PASS — {elapsed:.1f}s")


def test_criterion_5_marginal_gain_oracle(ontology):
    t = ontology
    nodes = range(t.n)
    checked = 0
    for size in (0, 1, 2, 3):
        for s in itertools.combinations(nodes, size):
            sel = set(s)
            for x in nodes:
                if x in sel:
                    continue
                fast = marginal_gain_fast(t, sel, x)
                slow = marginal_gain_naive(t, sel, x)
                assert abs(fast - slow) <= 1e-9
                checked += 1

    rng = Splitmix64(424242)
    randomized = 0
    for seed in range(5):
        big = gen_random_tree(GenSpec(n=200, important_count=80, seed=30_000 + seed))
        for _ in range(200):
            sel = {rng.randrange(big.n) for _ in range(rng.randrange(11))}
            x = rng.randrange(big.n)
            while x in sel:
                x = rng.randrange(big.n)
            fast = marginal_gain_fast(big, sel, x)
            slow = marginal_gain_naive(big, sel, x)
            assert abs(fast - slow) <= 1e-9
            randomized += 1
    assert randomized == 1000
    print(
        f"\nacceptance 5 (marginal-gain oracle): PASS — "
        f"{checked} exhaustive + {randomized} randomized cases"
    )


def test_criterion_6_monotone_and_submodular():
    rng = Splitmix64(515151)
    for seed in range(5):
        t = gen_random_tree(GenSpec(n=40, important_count=16, seed=40_000 + seed))
        for _ in range(1000):
            small = {rng.randrange(t.n) for _ in range(rng.randrange(8))}
            big = small | {rng.randrange(t.n) for _ in range(1 + rng.randrange(8))}
            x = rng.randrange(t.n)
            if x in big:
                continue
            g_small = g_score(t, small)
            g_big = g_score(t, big)
            assert g_small <= g_big + 1e-9
            gain_small = g_score(t, small | {x}) - g_small
            gain_big = g_score(t, big | {x}) - g_big
            assert gain_small >= gain_big - 1e-9
    print("\nacceptance 6 (monotonicity/submodularity, 5000 triples): PASS")


def test_criterion_7_desk_scale():
    tree = gen_random_tree(GenSpec(n=10**6, important_count=10**4, seed=70_707))
    start = time.perf_counter()
    rt = vtree(tree)
    reduced_at = time.perf_counter()
    exact = lift_result(rt, ots(rt.tree, 10))
    exact_done = time.perf_counter()
    greedy = lift_result(rt, gts(rt.tree, 10))
    greedy_done = time.perf_counter()

    assert rt.tree.n <= 2 * 10**4 + 1
    total = exact_done - start
    assert total < 300.0
    ots_time = exact_done - reduced_at
    gts_time = greedy_done - exact_done
    assert gts_time < ots_time
    assert greedy.score <= exact.score + 1e-9
    assert greedy.score >= GUARANTEE * exact.score - 1e-9
    # the work counters, carried through lift_result
    assert greedy.stats == {"gain_evals": 168, "first_round_terms": 123_816}
    assert exact.stats["dp_cells"] > 0
    print(
        f"\nacceptance 7 (desk-scale run, n=1e6): PASS — reduce {reduced_at-start:.1f}s, "
        f"ots {ots_time:.1f}s, gts {gts_time:.1f}s, |V*|={rt.tree.n}"
    )


def test_criterion_8_metric_monotonicity(ontology):
    s = ontology.indices(["r", "A", "a1", "b1", "c0"])
    assert closeness_distance(ontology, s) == 80.0
    assert avg_level_difference(ontology, s) == pytest.approx(0.4, abs=1e-12)
    assert weighted_coverage(ontology, s) == 200.0

    rng = Splitmix64(616161)
    pairs = 0
    for seed in range(50):
        t = gen_random_tree(GenSpec(n=60, important_count=24, seed=50_000 + seed))
        index = EulerLcaIndex(t)
        for _ in range(100):
            small = {rng.randrange(t.n) for _ in range(1 + rng.randrange(6))}
            big = small | {rng.randrange(t.n) for _ in range(1 + rng.randrange(6))}
            assert closeness_distance(t, big, index) <= closeness_distance(t, small, index) + 1e-9
            assert avg_level_difference(t, big) <= avg_level_difference(t, small) + 1e-9
            assert weighted_coverage(t, big) >= weighted_coverage(t, small) - 1e-9
            pairs += 1
    print(f"\nacceptance 8 (metric monotonicity, {pairs} nested pairs): PASS")


REFERENCE_DATASETS = {
    # file stem -> (n, |important|, reduced size, exact score, greedy score) at k=25
    "latt": (4226, 960, 1233, 4111, 4071),
    "lnur": (4226, 771, 994, 5048, 5048),
    "anim": (15135, 4350, 4373, 18786, 18628),
    "image": (73298, 5000, 6402, 546368, 542872),
    "yago": (493839, 10000, 14131, 1495580, 1492101),
}


@pytest.mark.skipif(
    "TREESUM_DATASETS" not in os.environ,
    reason="optional: set TREESUM_DATASETS to a directory of converted tree files",
)
@pytest.mark.parametrize("stem", sorted(REFERENCE_DATASETS))
def test_criterion_9_reference_datasets(stem):
    directory = os.environ["TREESUM_DATASETS"]
    path = os.path.join(directory, f"{stem}.tsv")
    if not os.path.exists(path):
        pytest.skip(f"{path} not present")
    n, important, reduced_size, exact_ref, greedy_ref = REFERENCE_DATASETS[stem]
    t = parse_tree_tsv(path)
    assert t.n == n
    assert len(t.important) == important
    rt = vtree(t)
    assert rt.tree.n == reduced_size
    exact = lift_result(rt, ots(rt.tree, 25)).score
    greedy = lift_result(rt, gts(rt.tree, 25)).score
    assert round(exact) == exact_ref
    assert round(greedy) == greedy_ref
    print(f"\nacceptance 9 ({stem}): PASS")
