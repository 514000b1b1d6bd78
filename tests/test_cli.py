import csv
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesum import cli, summary_dot
from treesum.cli import main
from treesum.errors import InconsistentMemo, ScoreMismatch
from treesum.viz import VIRTUAL_ROOT, _quote

from test_tree import shuffled_trees

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
ONTOLOGY = str(FIXTURES / "disease_ontology.tsv")
GAP = str(FIXTURES / "greedy_gap.tsv")
SPARSE = str(FIXTURES / "sparse_weights.tsv")


def test_summarize_exact(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["summarize", ONTOLOGY, "--algo", "ots", "--k", "5", "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "score: 160"
    report = json.loads(out.read_text())
    assert report["score"] == 160.0
    assert report["k"] == 5
    assert report["reduced"] is True
    assert report["algorithm"] == "ots"
    assert len(report["selected"]) == 5
    assert report["time_ms"] >= 0


def test_run_report_score_recomputes(tmp_path, capsys, ontology):
    from treesum import g_score

    out = tmp_path / "r.json"
    for algo in ("gts", "ots", "feq", "agg", "cagg"):
        main(["summarize", ONTOLOGY, "--algo", algo, "--k", "4", "--out", str(out)])
        capsys.readouterr()
        report = json.loads(out.read_text())
        recomputed = g_score(ontology, ontology.indices(report["selected"]))
        assert report["score"] == pytest.approx(recomputed, abs=1e-12)


def test_summarize_greedy_gap(capsys):
    code = main(["summarize", GAP, "--algo", "gts", "--k", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "score: 64" in out
    assert "v2" in out and "v4" in out


def test_summarize_no_reduce_same_score(capsys):
    main(["summarize", GAP, "--algo", "gts", "--k", "2", "--no-reduce"])
    assert "score: 64" in capsys.readouterr().out


def test_summarize_with_metrics(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "summarize", ONTOLOGY, "--algo", "brute", "--k", "5",
            "--with-metrics", "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report["metrics"]) == {"cd", "ald", "wc"}


def test_summarize_invalid_k_exit_code(capsys):
    assert main(["summarize", ONTOLOGY, "--algo", "gts", "--k", "0"]) == 2
    assert "error" in capsys.readouterr().err


def test_summarize_reduce_on_baseline_is_usage_error():
    assert main(["summarize", ONTOLOGY, "--algo", "feq", "--k", "3", "--reduce"]) == 2


def test_summarize_missing_file():
    assert main(["summarize", "/nonexistent.tsv", "--algo", "gts", "--k", "1"]) == 3


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_summarize_non_finite_weight_exit_code(tmp_path, capsys, weight):
    p = tmp_path / "nonfinite.tsv"
    p.write_text(f"r\t-\t1\na\tr\t{weight}\nb\tr\t2\n")
    assert main(["summarize", str(p), "--algo", "gts", "--k", "1"]) == 3
    captured = capsys.readouterr()
    assert "score" not in captured.out
    assert "node 'a'" in captured.err


def test_total_weight_overflow_exit_code(tmp_path, capsys):
    p = tmp_path / "huge.tsv"
    p.write_text("r\t-\t1e308\na\tr\t1e308\nb\tr\t1e308\n")
    out = tmp_path / "r.json"
    assert main(["summarize", str(p), "--algo", "ots", "--k", "2", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "total weight" in captured.err
    assert not out.exists()
    assert main(["metrics", str(p), "--summary", "r"]) == 3
    assert "total weight" in capsys.readouterr().err


# numpy warns as the closeness distance overflows; the CLI must then fail cleanly
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_metric_exit_code(tmp_path, capsys):
    # the total weight is finite, but c lies 3 hops from the summary {a}
    p = tmp_path / "far.tsv"
    p.write_text("r\t-\t0\na\tr\t8e307\nb\tr\t0\nc\tb\t8e307\n")
    report = tmp_path / "r.json"
    scores = tmp_path / "m.json"
    argv = ["summarize", str(p), "--algo", "gts", "--k", "1", "--with-metrics"]
    assert main([*argv, "--out", str(report)]) == 3
    assert main(["metrics", str(p), "--summary", "a", "--out", str(scores)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: a result is not finite") == 2
    assert list(tmp_path.iterdir()) == [p]


def test_brute_enumeration_cap_exit_code(tmp_path, capsys):
    main(["gen", "--n", "60", "--important", "20", "--seed", "4",
          "--out", str(tmp_path / "t.tsv")])
    capsys.readouterr()
    assert main(["summarize", str(tmp_path / "t.tsv"), "--algo", "brute", "--k", "20"]) == 4


def test_metrics_command(capsys):
    code = main(["metrics", ONTOLOGY, "--summary", "r,A,a1,b1,c0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"cd": 80.0, "ald": 0.4, "wc": 200.0, "k": 5}


def test_metrics_all_nodes_zero_cd(capsys, ontology):
    code = main(["metrics", ONTOLOGY, "--summary", ",".join(ontology.ids)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["cd"] == 0.0


def test_metrics_empty_summary(capsys):
    code = main(["metrics", ONTOLOGY, "--summary", ""])
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["cd"] is None
    assert payload["wc"] == 0.0
    assert payload["ald"] == pytest.approx(sum([30, 80, 40, 40, 60, 0, 20, 120]) / 200)


def test_metrics_from_run_report(tmp_path, capsys):
    report = tmp_path / "run.json"
    main(["summarize", ONTOLOGY, "--algo", "ots", "--k", "5", "--out", str(report)])
    capsys.readouterr()
    assert main(["metrics", ONTOLOGY, "--summary", str(report)]) == 0
    assert json.loads(capsys.readouterr().out)["k"] == 5


@pytest.mark.parametrize("command", ["metrics", "viz"])
@pytest.mark.parametrize("payload", [{"foo": 1}, {"selected": "A"}, [1, 2], "A"])
def test_summary_json_of_wrong_shape(tmp_path, capsys, command, payload):
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(payload))
    assert main([command, ONTOLOGY, "--summary", str(summary)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["metrics", "viz"])
def test_summary_json_shapes(tmp_path, capsys, command):
    expected = None
    for payload in (["r", "A", "a1"], {"selected": ["r", "A", "a1"], "k": 3}):
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps(payload))
        assert main([command, ONTOLOGY, "--summary", str(summary)]) == 0
        out = capsys.readouterr().out
        assert out == (expected or out)
        expected = out


def _strict_json(text):
    """Parse ``text`` as strict JSON: NaN, Infinity and -Infinity raise."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("algo", ["ots", "gts", "feq"])
def test_reports_are_strict_json(tmp_path, capsys, algo):
    report = tmp_path / "run.json"
    scores = tmp_path / "metrics.json"
    code = main(["summarize", ONTOLOGY, "--algo", algo, "--k", "5", "--with-metrics",
                 "--out", str(report)])
    assert code == 0
    run = _strict_json(report.read_text())
    assert run["time_ms"] >= 0
    expected = {
        "ots": {"dp_cells", "merges", "evaluate_ms", "reconstruct_ms", "rescore_ms"},
        "gts": {"gain_evals", "first_round_terms"},
        "feq": set(),
    }[algo]
    assert set(run["stats"]) == expected
    capsys.readouterr()
    assert main(["metrics", ONTOLOGY, "--summary", str(report), "--out", str(scores)]) == 0
    printed = _strict_json(capsys.readouterr().out)
    assert printed == _strict_json(scores.read_text()) == {**run["metrics"], "k": 5}


def test_metrics_unknown_node():
    assert main(["metrics", ONTOLOGY, "--summary", "r,zzz"]) == 3


def test_viz_golden(ontology):
    dot = summary_dot(ontology, ontology.indices(["r", "A", "a1", "b1", "c0"]))
    assert dot == (
        "digraph summary {\n"
        '  "r" [label="r (10)"];\n'
        '  "A" [label="A (30)"];\n'
        '  "a1" [label="a1 (40)"];\n'
        '  "b1" [label="b1 (30)"];\n'
        '  "c0" [label="c0 (10)"];\n'
        '  "r" -> "A";\n'
        '  "A" -> "a1";\n'
        '  "r" -> "b1";\n'
        '  "r" -> "c0";\n'
        "}\n"
    )


def test_viz_siblings_need_virtual_root(ontology):
    dot = summary_dot(ontology, ontology.indices(["A", "B"]))
    assert '"__virtual_root__" -> "A";' in dot
    assert '"__virtual_root__" -> "B";' in dot


def test_viz_singleton_member(ontology):
    dot = summary_dot(ontology, [ontology.index("A")])
    assert dot.count("->") == 1
    assert '"__virtual_root__" -> "A";' in dot


def test_viz_singleton_root_member(ontology):
    dot = summary_dot(ontology, [ontology.root])
    assert "__virtual_root__" not in dot
    assert "->" not in dot


def _walk_summary_dot(tree, members):
    """The summary_dot that walked up from each member's parent, as an oracle."""
    selected = set(members)
    ordered = sorted(selected, key=tree.pre_rank.__getitem__)
    edges = []
    needs_virtual = False
    for v in ordered:
        p = tree.parent[v]
        while p >= 0 and p not in selected:
            p = tree.parent[p]
        if p >= 0:
            edges.append((tree.ids[p], tree.ids[v]))
        elif v != tree.root:
            needs_virtual = True
            edges.append((None, tree.ids[v]))
    lines = ["digraph summary {"]
    for v in ordered:
        label = f"{tree.ids[v]} ({tree.feq[v]:g})"
        lines.append(f"  {_quote(tree.ids[v])} [label={_quote(label)}];")
    if needs_virtual:
        lines.append(f"  {_quote(VIRTUAL_ROOT)} [label=\"\", shape=point];")
    for src, dst in edges:
        lines.append(f"  {_quote(src if src is not None else VIRTUAL_ROOT)} -> {_quote(dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(shuffled_trees(), st.data())
def test_viz_matches_walk(t, data):
    drawn = data.draw(st.sets(st.integers(0, t.n - 1)))
    for selected in (set(), {t.root}, set(range(t.n)), drawn):
        assert summary_dot(t, selected) == _walk_summary_dot(t, selected)


def test_viz_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.dot"
    out2 = tmp_path / "b.dot"
    for out in (out1, out2):
        assert main(["viz", ONTOLOGY, "--summary", "c0,A,r,b1,a1", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_reduce_command(tmp_path, capsys):
    out = tmp_path / "reduced.tsv"
    code = main(["reduce", SPARSE, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "original=9 important=3 reduced=5"
    sidecar = tmp_path / "reduced.tsv.levels"
    levels = dict(
        line.split("\t") for line in sidecar.read_text().splitlines()
    )
    assert levels["v7"] == "3"
    from treesum import parse_tree_tsv

    again = parse_tree_tsv(out)
    assert again.n == 5


def test_gen_command(tmp_path, capsys):
    out = tmp_path / "g1.tsv"
    code = main(["gen", "--n", "20", "--important", "10", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert "n=20 important=10" in capsys.readouterr().out
    assert len([l for l in out.read_text().splitlines() if l]) == 20

    twin = tmp_path / "g2.tsv"
    main(["gen", "--n", "20", "--important", "10", "--seed", "1", "--out", str(twin)])
    assert out.read_bytes() == twin.read_bytes()

    others = set()
    for seed in (2, 3, 4):
        p = tmp_path / f"s{seed}.tsv"
        main(["gen", "--n", "20", "--important", "10", "--seed", str(seed), "--out", str(p)])
        others.add(p.read_bytes())
    assert len(others) == 3


def test_bench_command(tmp_path, capsys):
    data = tmp_path / "bench_in.tsv"
    main(["gen", "--n", "25", "--important", "10", "--seed", "8", "--out", str(data)])
    out = tmp_path / "bench.csv"
    code = main(
        [
            "bench", "--inputs", str(tmp_path / "bench_in*.tsv"),
            "--algos", "gts,ots,brute", "--ks", "2,3", "--repeat", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 2 * 3
    by_key = {}
    for row in rows:
        assert row["time_ms"] == "inf" or float(row["time_ms"]) >= 0
        by_key.setdefault((row["algo"], row["k"]), set()).add(row["score"])
    for k in ("2", "3"):
        assert len(by_key[("ots", k)]) == 1
        assert by_key[("ots", k)] == by_key[("brute", k)]


def test_bench_empty_glob(tmp_path):
    assert main(
        ["bench", "--inputs", str(tmp_path / "none*.tsv"), "--algos", "gts",
         "--ks", "1", "--out", str(tmp_path / "o.csv")]
    ) == 3


@pytest.mark.parametrize(
    "flags",
    [
        ["--algos", "foo", "--ks", "2"],
        ["--algos", "gts,", "--ks", "abc"],
        ["--algos", "gts", "--ks", "2,0"],
        ["--algos", "gts", "--ks", "2", "--repeat", "0"],
    ],
)
def test_bench_rejects_bad_arguments_before_writing(tmp_path, capsys, flags):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--inputs", GAP, *flags, "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_bench_bad_k_leaves_no_file(tmp_path, capsys):
    # k=9 passes the flag check but exceeds the 7-node tree after the feq,2 row
    out = tmp_path / "bench.csv"
    argv = ["bench", "--inputs", GAP, "--algos", "feq,gts", "--ks", "2,9", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and GAP in err and "k=9 outside 1..7" in err
    assert list(tmp_path.iterdir()) == []
    # an earlier --out survives a failed sweep
    out.write_text("earlier\n")
    assert main(argv) == 2
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text() == "earlier\n"


def test_bench_names_an_input_that_fails_to_parse(tmp_path, capsys):
    good = tmp_path / "a.tsv"
    good.write_text(pathlib.Path(GAP).read_text())
    bad = tmp_path / "b.tsv"
    bad.write_text("r\t-\t1\ny\tx\n")
    out = tmp_path / "o.csv"
    argv = ["bench", "--inputs", str(tmp_path / "*.tsv"), "--algos", "feq", "--ks", "1"]
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {bad}: line 2: expected 3 or 4 columns, got 2\n"
    assert sorted(tmp_path.iterdir()) == [good, bad]


@pytest.mark.parametrize("error", [ScoreMismatch, InconsistentMemo])
def test_bench_names_the_input_of_a_failed_summarizer(tmp_path, capsys, monkeypatch, error):
    def fail(tree, k, theta):
        raise error("went wrong")

    monkeypatch.setitem(cli._SUMMARIZERS, "feq", fail)
    out = tmp_path / "o.csv"
    argv = ["bench", "--inputs", GAP, "--algos", "gts,feq", "--ks", "1", "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {GAP}: went wrong\n"
    assert list(tmp_path.iterdir()) == []


def test_bench_timeout_marks_inf(tmp_path):
    data = tmp_path / "t.tsv"
    main(["gen", "--n", "30", "--important", "12", "--seed", "3", "--out", str(data)])
    out = tmp_path / "bench.csv"
    main(
        ["bench", "--inputs", str(data), "--algos", "ots", "--ks", "3",
         "--timeout", "0.0", "--out", str(out)]
    )
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["time_ms"] == "inf"
