import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesum import (
    GenSpec,
    Splitmix64,
    WeightedTree,
    build_tree,
    g_score,
    gen_random_tree,
    parse_tree_tsv,
    write_tree_tsv,
)
from treesum.errors import (
    DuplicateId,
    InvalidSpec,
    MalformedLine,
    MultipleRoots,
    NegativeWeight,
    NonFiniteWeight,
    OrphanParentReference,
    TreesumError,
    UnknownNode,
)

from test_tree import shuffled_trees


def test_splitmix_reference_sequence():
    # published test vector for this generator, seed 0
    rng = Splitmix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_parse_running_example(ontology):
    s = ontology.indices(["r", "A", "a1", "b1", "c0"])
    assert g_score(ontology, s) == 160.0


def test_parse_rejects_two_roots(tmp_path):
    p = tmp_path / "two_roots.tsv"
    p.write_text("a\t-\t1\nb\t-\t2\n")
    with pytest.raises(MultipleRoots):
        parse_tree_tsv(p)


def test_parse_rejects_negative_weight(tmp_path):
    p = tmp_path / "neg.tsv"
    p.write_text("a\t-\t-3\n")
    with pytest.raises(NegativeWeight):
        parse_tree_tsv(p)


def test_parse_malformed_line(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("# header\na\t-\t1\nb a 2\n")
    with pytest.raises(MalformedLine) as err:
        parse_tree_tsv(p)
    assert err.value.line_no == 3

    p.write_text("a\t-\tnotanumber\n")
    with pytest.raises(MalformedLine):
        parse_tree_tsv(p)


@pytest.mark.parametrize(
    "ids, labels, line_no",
    [
        (["a", "b\tc"], None, 2),
        (["a", "b\nc"], None, 2),
        (["a", "b\rc"], None, 2),
        (["a", "-"], None, 2),
        (["a", ""], None, 2),
        (["a", "#b"], None, 2),
        (["a", "b", "c"], ["a", "b", "two\nlines"], 3),
        (["a", "b"], ["a\tb", "b"], 1),
        (["a", "b"], ["a", "b\r"], 2),
    ],
)
def test_write_rejects_unparseable_fields(tmp_path, ids, labels, line_no):
    t = WeightedTree(ids, [-1] + [0] * (len(ids) - 1), [1.0] * len(ids), labels)
    with pytest.raises(MalformedLine) as err:
        write_tree_tsv(t, tmp_path / "out.tsv")
    assert err.value.line_no == line_no
    assert list(tmp_path.iterdir()) == []


def test_write_keeps_unusual_but_parseable_fields(tmp_path):
    ids = ["a b", "x#y", "-z", "é"]
    t = WeightedTree(ids, [-1, 0, 0, 1], [1.0, 2.0, 0.0, 3.0], ["", "#", "-", "label é"])
    out = tmp_path / "odd.tsv"
    write_tree_tsv(t, out)
    again = parse_tree_tsv(out)
    assert (again.ids, again.parent.tolist(), again.feq.tolist()) == (
        t.ids, t.parent.tolist(), t.feq.tolist()
    )
    assert again.labels == ["a b", "#", "-", "label é"]


def test_labels_round_trip(tmp_path):
    p = tmp_path / "labels.tsv"
    p.write_text("a\t-\t1\troot label\nb\ta\t2.5\tchild label\n")
    t = parse_tree_tsv(p)
    assert t.labels[t.index("b")] == "child label"
    out = tmp_path / "labels_out.tsv"
    write_tree_tsv(t, out)
    again = parse_tree_tsv(out)
    assert again.labels == t.labels
    assert again.feq.tolist() == t.feq.tolist()


def test_round_trip_identity(ontology, tmp_path):
    out = tmp_path / "rt.tsv"
    write_tree_tsv(ontology, out)
    again = parse_tree_tsv(out)
    assert again.n == ontology.n
    assert [again.ids[v] for v in again.pre_order] == [
        ontology.ids[v] for v in ontology.pre_order
    ]
    assert again.feq.tolist() == ontology.feq.tolist()
    s = ["r", "A", "a1", "b1", "c0"]
    assert g_score(again, again.indices(s)) == g_score(ontology, ontology.indices(s))


# ids may hold anything the writer accepts: no tab or line break, not empty,
# not "-", no leading "#"
_writable_ids = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"), min_size=1
).filter(lambda s: s != "-" and s[0] != "#")


@settings(max_examples=100, deadline=None)
@given(shuffled_trees(max_n=30), st.data())
def test_write_parse_round_trip_property(tmp_path_factory, shape, data):
    n = shape.n
    ids = data.draw(st.lists(_writable_ids, min_size=n, max_size=n, unique=True))
    # any finite weights whose total is finite too: a larger total is rejected
    top = sys.float_info.max / (2 * n)
    weights = data.draw(
        st.lists(st.floats(min_value=0.0, max_value=top), min_size=n, max_size=n)
    )
    t = WeightedTree(ids, shape.parent, weights)
    out = tmp_path_factory.mktemp("rt") / "t.tsv"
    write_tree_tsv(t, out)
    again = parse_tree_tsv(out)
    assert (again.ids, again.parent.tolist(), again.feq.tolist()) == (
        t.ids, t.parent.tolist(), t.feq.tolist()
    )


def test_write_singleton_tree(tmp_path):
    from treesum import build_tree

    t = build_tree([{"id": "only", "parent": None, "weight": 2}])
    out = tmp_path / "one.tsv"
    write_tree_tsv(t, out)
    assert out.read_text() == "only\t-\t2\n"


def test_round_trip_fixed_seed_bytes(tmp_path):
    spec = GenSpec(n=200, important_count=60, seed=99)
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    write_tree_tsv(gen_random_tree(spec), a)
    write_tree_tsv(gen_random_tree(spec), b)
    assert a.read_bytes() == b.read_bytes()


def test_generator_contract():
    spec = GenSpec(n=20, important_count=10, seed=1)
    t1 = gen_random_tree(spec)
    t2 = gen_random_tree(spec)
    assert t1.n == 20
    assert len(t1.important) == 10
    assert t1.parent.tolist() == t2.parent.tolist()
    assert t1.feq.tolist() == t2.feq.tolist()
    other = gen_random_tree(GenSpec(n=20, important_count=10, seed=2))
    assert other.parent.tolist() != t1.parent.tolist() or other.feq.tolist() != t1.feq.tolist()


def test_generator_respects_max_children():
    t = gen_random_tree(GenSpec(n=300, important_count=50, seed=5, max_children=3))
    assert max(len(c) for c in t.children) <= 3


def test_generator_height_bias_deepens():
    shallow = gen_random_tree(GenSpec(n=400, important_count=10, seed=7, height_bias=0.02))
    deep = gen_random_tree(GenSpec(n=400, important_count=10, seed=7, height_bias=0.9))
    assert deep.height > shallow.height


def test_invalid_specs():
    bad = [
        GenSpec(n=0, important_count=0, seed=1),
        GenSpec(n=5, important_count=9, seed=1),
        GenSpec(n=5, important_count=2, seed=1, max_children=0),
        GenSpec(n=5, important_count=2, seed=1, height_bias=0.0),
        GenSpec(n=5, important_count=2, seed=1, weight_low=0),
        GenSpec(n=5, important_count=2, seed=1, weight_low=9, weight_high=3),
    ]
    for spec in bad:
        with pytest.raises(InvalidSpec):
            gen_random_tree(spec)


@pytest.mark.slow
def test_large_round_trip(tmp_path):
    spec = GenSpec(n=100_000, important_count=5_000, seed=12)
    t = gen_random_tree(spec)
    out = tmp_path / "big.tsv"
    write_tree_tsv(t, out)
    again = parse_tree_tsv(out)
    assert again.n == t.n
    assert again.total_weight() == t.total_weight()


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "infinity"])
def test_parse_rejects_non_finite_weight(tmp_path, text):
    p = tmp_path / "nonfinite.tsv"
    p.write_text(f"a\t-\t1\nb\ta\t{text}\n")
    with pytest.raises(NonFiniteWeight, match="node 'b'"):
        parse_tree_tsv(p)


def _reference_build(records):
    """The record builder that resolved parent ids before
    ``WeightedTree.from_parent_ids`` did."""
    records = list(records)
    ids = []
    weights = []
    labels = []
    parent_ids = []
    seen = set()
    for rec in records:
        node_id = rec["id"]
        if node_id in seen:
            raise DuplicateId(f"duplicate node id {node_id!r}")
        seen.add(node_id)
        ids.append(node_id)
        parent_ids.append(rec.get("parent"))
        weights.append(float(rec["weight"]))
        labels.append(rec.get("label") or node_id)

    id_to_index = {node_id: i for i, node_id in enumerate(ids)}
    parent = []
    for node_id, parent_id in zip(ids, parent_ids):
        if parent_id is None:
            parent.append(-1)
        else:
            if parent_id not in id_to_index:
                raise OrphanParentReference(
                    f"node {node_id!r} references unknown parent {parent_id!r}"
                )
            parent.append(id_to_index[parent_id])
    return WeightedTree(ids, parent, weights, labels)


def _reference_parse(path):
    """The per-line record parser that the bulk parser replaced, with the
    rule that reserves the id "-" added."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) not in (3, 4):
                raise MalformedLine(line_no, f"expected 3 or 4 columns, got {len(parts)}")
            node_id, parent_id, weight_text = parts[0], parts[1], parts[2]
            if not node_id:
                raise MalformedLine(line_no, "empty node id")
            if node_id == "-":
                raise MalformedLine(line_no, "node id '-' is reserved for the root's parent")
            try:
                weight = float(weight_text)
            except ValueError:
                raise MalformedLine(line_no, f"bad weight {weight_text!r}") from None
            records.append(
                {
                    "id": node_id,
                    "parent": None if parent_id == "-" else parent_id,
                    "weight": weight,
                    "label": parts[3] if len(parts) == 4 else None,
                }
            )
    return _reference_build(records)


def _outcome(parse, path):
    try:
        t = parse(path)
    except TreesumError as err:
        return type(err), str(err), getattr(err, "line_no", None)
    return t.ids, t.parent.tolist(), t.feq.tolist(), t.labels, t.pre_order.tolist()


PARSE_CASES = [
    "a\t-\t1\nb\ta\t2\n",
    "# header\n\na\t-\t1\n\n# note\nb\ta\t0\nc\ta\t3.5\n",
    "a\t-\t1\troot\nb\ta\t2\nc\tb\t0\t\nd\tb\t4\tleaf d\n",
    "b\ta\t2\tx\nc\ta\t3\ty\na\t-\t0\tz\n",
    "a\t-\t1\r\nb\ta\t2\r\n",
    "a\t-\t1\nb\ta\t2",
    "-\t-\t1\nb\t-\t2\n",
    "",
    "# only a comment\n\n",
    "a\t-\t1\nb\ta\t2\nb\ta\t3\nc\tzzz\t1\n",
    "a\t-\t1\nb\tzzz\t2\nc\tyyy\t1\n",
    "a\t-\t1\nb\ta\t2\nc a 1\nd\ta\tbad\n",
    "a\t-\t1\nb\ta\tbad\nc a 1\n",
    "a\t-\t1\n\ta\t2\n",
    "a\t-\t1\nb\ta\t2\t3\t4\n",
    "a\t-\t1\nb\ta\n",
    " \n",
    "a\t-\t1\nb\t-\t2\n",
    "a\tb\t1\nb\ta\t1\n",
    "a\t-\t1\nb\ta\t-2\n",
    "a\t-\t1\nb\ta\t1_000\n",
    # CRLF line ends: text mode turns them into \n, so no label keeps a \r
    "# note\r\na\t-\t1\troot\r\nb\ta\t2.5\r\nc\ta\t0\tleaf c\r\n",
    # the id "-" names the root's parent: rejected on its line, not as an extra root
    "a\t-\t1\n-\ta\t2\nc\t-\t3\n",
    "a\t-\t1\nb\ta\t2\n-\tb\tbad\nb\ta\t1\n",
]


@pytest.mark.parametrize("case", range(len(PARSE_CASES)))
def test_parse_matches_reference(tmp_path, case):
    p = tmp_path / "case.tsv"
    p.write_bytes(PARSE_CASES[case].encode("utf-8"))
    assert _outcome(parse_tree_tsv, p) == _outcome(_reference_parse, p)


def test_parse_generated_tree_matches_reference(tmp_path):
    t = gen_random_tree(GenSpec(n=3000, important_count=300, seed=21))
    p = tmp_path / "gen.tsv"
    write_tree_tsv(t, p)
    assert _outcome(parse_tree_tsv, p) == _outcome(_reference_parse, p)


def _records(rows):
    return [dict(zip(("id", "parent", "weight", "label"), row)) for row in rows]


BUILD_CASES = [
    [("a", None, 1), ("b", "a", 2), ("c", "a", 0)],
    # duplicates: the first repeat is named, before a later orphan
    [("a", None, 1), ("b", "a", 2), ("b", "a", 3), ("c", "zzz", 1)],
    [("a", None, 1), ("a", None, 1)],
    # orphans: the first in record order is named
    [("a", None, 1), ("b", "zzz", 2), ("c", "yyy", 1)],
    [("a", None, 1), ("b", "c", 2), ("c", "q", 1)],
    # a cycle, two roots, no root, an empty list
    [("a", None, 1), ("b", "c", 1), ("c", "b", 1)],
    [("a", None, 1), ("b", None, 2)],
    [("a", "b", 1), ("b", "a", 1)],
    [],
    # labels, empty labels, children listed before their parent
    [("b", "a", 2, "x"), ("c", "a", 3, ""), ("a", None, 0, "root"), ("d", "b", 1, None)],
    # weights: negative, non-finite, given as text
    [("a", None, 1), ("b", "a", -2)],
    [("a", None, 1), ("b", "a", float("nan"))],
    [("a", None, "1"), ("b", "a", "2.5")],
]


@pytest.mark.parametrize("case", range(len(BUILD_CASES)))
def test_build_matches_reference(case):
    records = _records(BUILD_CASES[case])
    assert _outcome(build_tree, records) == _outcome(_reference_build, records)


def test_build_generated_tree_matches_reference():
    t = gen_random_tree(GenSpec(n=3000, important_count=300, seed=21))
    records = [
        {"id": node_id, "parent": None if p < 0 else t.ids[p], "weight": w}
        for node_id, p, w in zip(t.ids, t.parent.tolist(), t.feq.tolist())
    ]
    # record order is not preorder, so child order comes from record order
    records.reverse()
    got = _outcome(build_tree, records)
    assert got == _outcome(_reference_build, records)
    assert len(got[0]) == 3000


def test_root_marker_is_not_an_id(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("a\t-\t1\nb\ta\t2\n")
    built = build_tree(_records([("a", None, 1), ("b", "a", 2)]))
    for tree, marker in ((parse_tree_tsv(p), "-"), (built, None)):
        with pytest.raises(UnknownNode):
            tree.index(marker)
        assert len(tree._id_to_index) == tree.n == 2
    with pytest.raises(ValueError, match="root's parent marker"):
        build_tree(_records([("a", None, 1), (None, "a", 2)]))


def test_one_id_index_per_tree(tmp_path, monkeypatch):
    import treesum.tree

    built = []

    def counting(ids):
        built.append(index_ids(ids))
        return built[-1]

    index_ids = treesum.tree._index_ids
    monkeypatch.setattr(treesum.tree, "_index_ids", counting)
    p = tmp_path / "t.tsv"
    p.write_text("a\t-\t1\nb\ta\t2\tlabel b\nc\tb\t3\n")
    records = _records([("a", None, 1), ("b", "a", 2), ("c", "b", 3)])
    for build in (lambda: parse_tree_tsv(p), lambda: build_tree(records)):
        tree = build()
        assert len(built) == 1
        assert tree._id_to_index is built.pop()
        assert tree._id_to_index == {"a": 0, "b": 1, "c": 2}
