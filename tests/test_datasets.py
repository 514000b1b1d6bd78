import copy
import os
import pickle
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesum import (
    EulerLcaIndex,
    GenSpec,
    Splitmix64,
    WeightedTree,
    build_tree,
    g_score,
    gen_random_tree,
    parse_tree_tsv,
    vtree,
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
    "data, line_no, message",
    [
        (b"\xff\xfer\t-\t1\n", 1, "byte 0xff at column 1"),
        # lines count as the text read counts them: \r\n and a lone \r end one
        (b"r\t-\t1\r\na\tr\t2\rb\tr\t3 \xe9\n", 3, "byte 0xe9 at column 7"),
        (b"r\t-\t1\n# caf\xc3\xa9\na\tr\t\xc3\n", 3, "byte 0xc3 at column 5"),
    ],
)
def test_parse_names_a_file_that_is_not_utf8(tmp_path, data, line_no, message):
    p = tmp_path / "bad.tsv"
    p.write_bytes(data)
    with pytest.raises(MalformedLine) as err:
        parse_tree_tsv(p)
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message} is not UTF-8 text in {p}"


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
        # lone surrogates do not encode as UTF-8, alone or among other text
        (["r", "\ud800"], None, 2),
        (["é", "b", "c"], ["é", "b", "c\udc80"], 3),
    ],
)
def test_write_rejects_unparseable_fields(tmp_path, ids, labels, line_no):
    t = WeightedTree(ids, [-1] + [0] * (len(ids) - 1), [1.0] * len(ids), labels)
    with pytest.raises(MalformedLine) as err:
        write_tree_tsv(t, tmp_path / "out.tsv")
    assert err.value.line_no == line_no
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    import treesum.datasets

    t = WeightedTree(["r", "a", "b"], [-1, 0, 0], [1.0, 2.0, 3.0])
    out = tmp_path / "out.tsv"
    out.write_text("earlier\n")
    written = []

    def fail_on_the_second(w):
        written.append(w)
        if len(written) == 2:
            raise OSError("disk full")
        return str(w)

    monkeypatch.setattr(treesum.datasets, "_format_weight", fail_on_the_second)
    with pytest.raises(OSError, match="disk full"):
        write_tree_tsv(t, out)
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text() == "earlier\n"


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
    # weights bit for bit, so that -0.0 and 0.0 differ
    weights = [w.hex() for w in t.feq.tolist()]
    return t.ids, t.parent.tolist(), weights, t.labels, t.pre_order.tolist()


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
    # a lone \r ends a line too, in text mode
    "a\t-\t1\rb\ta\t2\r",
    "a\t-\t1\r\r\nb\ta\t2",
    "a\t-\t1\rb\ta\t2\r\r# note\rc\ta\tbad\rd\ta\t1 1\r",
    # the id "-" names the root's parent: rejected on its line, not as an extra root
    "a\t-\t1\n-\ta\t2\nc\t-\t3\n",
    "a\t-\t1\nb\ta\t2\n-\tb\tbad\nb\ta\t1\n",
    # ids past 8 bytes: keyed by a mix of their words, every match checked
    "aaaaaaaaa\t-\t1\nbbbbbbbbbb\taaaaaaaaa\t2\nc\tbbbbbbbbbb\t0\n",
    "abcdefgh\t-\t1\tr\nabcdefghi\tabcdefgh\t2\t\nabcdefghij\tabcdefghi\t3\tleaf\n",
    "abcdefghijklmnop\t-\t1\nabcdefghijklmnopq\tabcdefghijklmnop\t2\nq\tabcdefghijklmnopq\t3",
    "ééééé\t-\t1\n中文中文\tééééé\t2\n😀😀😀\t中文中文\t3\n",
    "aaaaaaaaa\t-\t1\nbbbbbbbbb\taaaaaaaaa\t2\naaaaaaaaa\tbbbbbbbbb\t3\n",
    "aaaaaaaaa\t-\t1\nbbbbbbbbb\taaaaaaaab\t2\n",
    "aaaaaaaaa\t-\t1\nbbbbbbbbb\taaaaaaaa\t2\n",
    "aaaaaaaaa\t-\t1\nbbbbbbbbb\taaaaaaaaa\t2\ncccccccccc\tbbbbbbbbb\tbad\n",
    "aaaaaaaaa\t-\t1\nbbbbbbbbb\tcccccccccc\t2\ncccccccccc\tbbbbbbbbb\t3\n",
    "aaaaaaaaa\t-\t1\nbbbbbbbbb\taaaaaaaaa\t2\nccccccccc\t-\t3\n",
    "aaaaaaaaa\t-\t1\n-\taaaaaaaaa\t2\n",
    "aaaaaaaaa\x00\t-\t1\nb\taaaaaaaaa\x00\t2\n",
    "aaaaaaaaa\t-\t1\nb\t\t2\n",
    # NUL is not padding: "a\0" is not "a"
    "a\x00\t-\t1\nb\ta\t2\n",
    # as many tabs as two 4-column lines, but 4 on one line and 2 on the other
    "a\t-\t1\tx\ty\nb\ta\t2\n",
    # weights of 1 to 8 ASCII digits are read from the file's bytes
    "a\t-\t7\nb\ta\t12345678\nc\ta\t0\n",
    "a\t-\t007\nb\ta\t00000000\nc\tb\t99999999\n",
    "a\t-\t1\nb\ta\t12345678",
    "a\t-\t1\t12345678\nb\ta\t87654321\t\n",
    # 4 columns, digits in every field
    "1\t-\t5\t10\n2\t1\t6\t007\n3\t1\t7\t\n",
    # longer integers and other forms that float accepts take float
    "a\t-\t123456789\nb\ta\t1\n",
    "a\t-\t123456789012345\nb\ta\t1234567890123456\nc\ta\t12345678901234567890\n",
    "a\t-\t+5\nb\ta\t1\n",
    "a\t-\t٣\nb\ta\t1\n",
    "a\t-\t1_0\nb\ta\t2\n",
    "a\t-\t 7 \nb\ta\t2\n",
    "a\t-\t1e3\nb\ta\t2\n",
    "a\t-\t5.\nb\ta\t2\n",
    "a\t-\t-0\nb\ta\t0\n",
    # the bytes around the digits: "/" and ":" are no digits
    "a\t-\t1/\nb\ta\t2\n",
    "a\t-\t1\nb\ta\t:2\n",
    "a\t-\t1\nb\ta\t123456789x\n",
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
    # 9-byte ids and labels: four columns on the hashed keys
    long_ids = [f"w{i:08d}" for i in range(t.n)]
    write_tree_tsv(WeightedTree(long_ids, t.parent, t.feq, t.ids), p)
    assert _outcome(parse_tree_tsv, p) == _outcome(_reference_parse, p)


# ids of 1 to 20 UTF-8 bytes, "-" and "#" among their characters
_ID_CHARS = st.sampled_from("abyz09-#. é中😀")


@st.composite
def _tree_files(draw):
    """A tree file's text: a random tree over random ids, in random line
    order, with up to three faults that the parse must name, as the
    reference parser does."""
    max_bytes = draw(st.sampled_from([2, 8, 9, 20]))
    # an id that starts with "#" makes a comment line, as the inserted ones do
    id_text = st.text(_ID_CHARS, min_size=1, max_size=max_bytes).filter(
        lambda s: len(s.encode()) <= max_bytes and s[0] != "#"
    )
    ids = draw(st.lists(id_text, min_size=1, max_size=12, unique=True))
    n = len(ids)
    # integers of 1 to 8 digits only, or any form that float accepts
    digits = ["0", "1", "7", "007", "00000000", "12345678", "99999999"]
    other = [
        "2.5", "1e3", " 7 ", "1_0", "+5", "٣", "5.",
        "123456789", "123456789012345", "1234567890123456", "12345678901234567890",
    ]
    weights = st.sampled_from(digits if draw(st.booleans()) else digits + other)
    rows = [
        [node_id, "-" if i == 0 else ids[draw(st.integers(0, i - 1))], draw(weights)]
        for i, node_id in enumerate(ids)
    ]
    labels = draw(st.sampled_from(["none", "none", "all", "some"]))
    for row in rows:
        if labels == "all" or (labels == "some" and draw(st.booleans())):
            row.append(draw(st.sampled_from(["", "lbl", "é x", "#", "12", "007"])))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        row = rows[draw(st.integers(0, n - 1))]
        fault = draw(
            st.sampled_from(
                ["repeat", "orphan", "near", "dash", "weight", "nul", "root", "cycle", "width"]
            )
        )
        if fault == "repeat":
            row[0] = draw(st.sampled_from(ids))
        elif fault == "orphan":
            row[1] = draw(id_text)
        elif fault == "near":
            # an id with one character more or less
            near = draw(st.sampled_from(ids))
            row[1] = near[:-1] if draw(st.booleans()) else near + draw(_ID_CHARS)
        elif fault == "dash":
            row[0] = "-"
        elif fault == "weight":
            row[2:3] = [draw(st.sampled_from(["bad", "", "-1", "nan", "inf"]))]
        elif fault == "nul":
            at = draw(st.sampled_from([0, 1, len(row) - 1]))
            row[at] += "\x00"
        elif fault == "root":
            row[1] = "-"
        elif fault == "cycle":
            row[1] = draw(st.sampled_from(ids))
        elif draw(st.booleans()):
            del row[2:]
        else:
            row.append("x\ty")
    lines = ["\t".join(row) for row in draw(st.permutations(rows))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        extra = draw(st.sampled_from(["", "# note", "#\t-\t1"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


@settings(max_examples=400, deadline=None)
@given(_tree_files())
def test_parse_matches_reference_property(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("gen") / "t.tsv"
    p.write_bytes(text.encode("utf-8"))
    assert _outcome(parse_tree_tsv, p) == _outcome(_reference_parse, p)


def test_parse_when_every_long_key_collides(tmp_path, monkeypatch):
    import numpy as np

    import treesum.datasets

    # a constant mix gives every field past 8 bytes one key
    monkeypatch.setattr(treesum.datasets, "_mix", lambda h: np.full_like(h, 7))
    p = tmp_path / "case.tsv"
    for text in PARSE_CASES:
        p.write_bytes(text.encode("utf-8"))
        assert _outcome(parse_tree_tsv, p) == _outcome(_reference_parse, p)
    t = gen_random_tree(GenSpec(n=300, important_count=30, seed=21))
    write_tree_tsv(WeightedTree([f"w{i:08d}" for i in range(t.n)], t.parent, t.feq), p)
    assert _outcome(parse_tree_tsv, p) == _outcome(_reference_parse, p)


def test_parse_checks_the_bytes_of_a_matched_key(tmp_path, monkeypatch):
    import treesum.datasets

    # with no mix a key is the xor of the length and the words, so swapped
    # words collide: each parent below has the key of an id that differs,
    # the last two by one trailing byte
    monkeypatch.setattr(treesum.datasets, "_mix", lambda h: h)
    p = tmp_path / "case.tsv"
    for text in (
        "r\t-\t1\naaaaaaaabbbbbbbb\tr\t2\nx\tbbbbbbbbaaaaaaaa\t3\n",
        "aaaaaaaabbbbbbbbc\t-\t1\nx\tbbbbbbbbaaaaaaaac\t3\n",
        "aaaaaaaaaaaaaaaa\t-\t1\nx\taaaaaaaaaaaaaaaa\x01\t3\n",
        "aaaaaaaaaaaaaaaa\x01\t-\t1\nx\taaaaaaaaaaaaaaaa\t3\n",
    ):
        p.write_bytes(text.encode("utf-8"))
        got = _outcome(parse_tree_tsv, p)
        assert got == _outcome(_reference_parse, p)
        assert got[0] is OrphanParentReference


def test_index_type_switches_at_2_gib():
    from treesum.datasets import _index_type

    # an offset into a file reaches its size, one past the last byte, so a
    # file of 2**31 - 1 bytes is the largest whose offsets fit in int32
    assert _index_type(2**31 - 1) is np.int32
    assert _index_type(2**31) is np.int64


@st.composite
def _id_rows(draw):
    """Rows for ``_resolve_ids``: each row's id, its parent field and
    whether that field is linked (not the root's "-").  Ids of up to 8
    bytes or past 8, NUL bytes among them, sometimes a repeated id; parent
    fields that name the first id, the last, any id, no id or none."""
    field = st.binary(min_size=1, max_size=draw(st.sampled_from([8, 20])))
    ids = draw(st.lists(field, min_size=1, max_size=12, unique=True))
    n = len(ids)
    if n > 1 and draw(st.booleans()):
        ids[draw(st.integers(1, n - 1))] = ids[draw(st.integers(0, n - 2))]
    refs, linked = [], []
    for _ in range(n):
        kind = draw(st.sampled_from(["first", "last", "any", "any", "unknown", "empty", "root"]))
        if kind == "first":
            refs.append(ids[0])
        elif kind == "last":
            refs.append(ids[-1])
        elif kind == "any":
            refs.append(draw(st.sampled_from(ids)))
        elif kind == "unknown":
            refs.append(draw(field))
        else:
            refs.append(b"-" if kind == "root" else b"")
        linked.append(kind != "root")
    return ids, refs, linked


def _dict_resolve(ids, refs, linked):
    """The parent index of each row from a dict of the ids, or None for a
    repeated id or a linked field that names no id: the oracle."""
    index = {node_id: i for i, node_id in enumerate(ids)}
    if len(index) < len(ids) or any(on and ref not in index for ref, on in zip(refs, linked)):
        return None
    return [index[ref] if on else -1 for ref, on in zip(refs, linked)]


@settings(max_examples=500, deadline=None)
@given(_id_rows())
def test_resolve_ids_matches_a_dict(rows):
    from treesum.datasets import _PAD, _resolve_ids

    ids, refs, linked = rows
    fields = ids + refs
    text = b"\t".join(fields)
    data = bytearray(text + bytes(_PAD))
    words = np.ndarray((len(text) + 1,), dtype="<u8", buffer=data, strides=(1,))
    length = np.array([len(f) for f in fields], dtype=np.int32)
    start = (np.cumsum(length + 1) - length - 1).astype(np.int32)
    n = len(ids)
    got = _resolve_ids(
        words, start[:n], length[:n], start[n:], length[n:], np.array(linked), b"\0" in text
    )
    expected = _dict_resolve(ids, refs, linked)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.dtype == np.int64 and got.tolist() == expected


def test_parse_peak_stays_bounded(tmp_path, monkeypatch):
    # tracemalloc's peak over the parse of a 50,000-row file, in bytes per
    # row, for the whole parse and for the part before the tree's build.
    # The build peaks at 111 B/row and the part before it at 93; the
    # resolve that sorted both key sets at once and scattered 2n entries
    # peaked at 191.  One more 2n-entry array of 8 bytes (16 B/row) before
    # the build would break the second bound.
    p = tmp_path / "t.tsv"
    write_tree_tsv(gen_random_tree(GenSpec(n=50_000, important_count=500, seed=35)), p)
    before_build = []
    from_distinct_ids = WeightedTree._from_distinct_ids.__func__

    def recording(cls, *args):
        before_build.append(tracemalloc.get_traced_memory()[1])
        return from_distinct_ids(cls, *args)

    monkeypatch.setattr(WeightedTree, "_from_distinct_ids", classmethod(recording))
    # a first parse, untraced, so that numpy's own first-call allocations
    # are not counted
    parse_tree_tsv(p)
    tracemalloc.start()
    try:
        t = parse_tree_tsv(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.n == 50_000
    assert peak / t.n <= 130
    assert before_build[-1] / t.n <= 104


@pytest.mark.parametrize(
    "text, route",
    [
        ("a\t-\t1\nb\ta\t2\nc\tb\t0", "bulk"),
        ("aaaaaaaaa\t-\t1\tx\nbbbbbbbbb\taaaaaaaaa\t2\t\n", "bulk"),
        ("# note\na\t-\t1\nb\ta\t2\n", "bulk"),
        ("a\t-\t1\n#\t-\t2\nb\ta\t2\n", "bulk"),
        ("a\t-\t1\nb\ta\t2\n\n", "bulk"),
        ("a\t-\t1\r\nb\ta\t2\r\n", "bulk"),
        ("a\t-\t1\rb\ta\t2\r", "bulk"),
        ("a\t-\t1\tx\nb\ta\t2\n", "bulk"),
        ("a\t-\t1\nb\x00\ta\t2\n", "bulk"),
        ("# long ids\r\nroot-of-it\t-\t1\r\nchild-of-it\troot-of-it\t2\tc\r\n", "bulk"),
        # a repeated id, an orphan, and distinct ids whose hashed keys
        # collide (forced here)
        ("a\t-\t1\nb\ta\t2\nb\ta\t3\n", "from_parent_ids"),
        ("# note\r\na\t-\t1\r\nb\tzzz\t2\r\n", "from_parent_ids"),
        ("aaaaaaaaa\t-\t1\nbbbbbbbbb\taaaaaaaaa\t2\tx\nc\tbbbbbbbbb\t3\n", "collision"),
    ],
)
def test_parse_route(tmp_path, monkeypatch, text, route):
    # every well-formed file is read from its bytes, with no id dict built
    # and its id column not decoded; a file whose keys resolve no parents
    # takes one call of from_parent_ids, which names the first repeat or
    # orphan, or builds the tree when the keys only collided
    import treesum.datasets
    import treesum.tree

    p = tmp_path / "t.tsv"
    p.write_bytes(text.encode("utf-8"))
    expected = _outcome(_reference_parse, p)
    if route == "collision":
        monkeypatch.setattr(treesum.datasets, "_mix", lambda h: np.full_like(h, 7))
    calls = []
    index_ids = treesum.tree._index_ids
    from_parent_ids = WeightedTree.from_parent_ids.__func__

    def counting_index(ids):
        calls.append("_index_ids")
        return index_ids(ids)

    def counting_from_parent_ids(cls, *args, **kwargs):
        calls.append("from_parent_ids")
        return from_parent_ids(cls, *args, **kwargs)

    monkeypatch.setattr(treesum.tree, "_index_ids", counting_index)
    monkeypatch.setattr(WeightedTree, "from_parent_ids", classmethod(counting_from_parent_ids))
    if route == "bulk":
        tree = parse_tree_tsv(p)
        assert calls == []
        assert not isinstance(tree._ids, list)
        assert _outcome(lambda _: tree, p) == expected
    else:
        assert _outcome(parse_tree_tsv, p) == expected
        assert calls == ["from_parent_ids", "_index_ids"]
        assert (expected[0] in (DuplicateId, OrphanParentReference)) is (route != "collision")


def test_parse_reads_digit_weights_from_bytes(tmp_path, monkeypatch):
    import treesum.datasets

    read = []
    digit_weights = treesum.datasets._digit_weights

    def recording(*args):
        read.append(digit_weights(*args))
        return read[-1]

    monkeypatch.setattr(treesum.datasets, "_digit_weights", recording)
    p = tmp_path / "t.tsv"
    t = gen_random_tree(GenSpec(n=500, important_count=100, seed=8))
    write_tree_tsv(t, p)
    assert _outcome(parse_tree_tsv, p) == _outcome(_reference_parse, p)
    # every weight is a digit string: the bulk route reads them from the bytes
    assert len(read) == 1 and read[0] is not None
    write_tree_tsv(WeightedTree(t.ids, t.parent, [2.5] + t.feq.tolist()[1:]), p)
    assert _outcome(parse_tree_tsv, p) == _outcome(_reference_parse, p)
    # one "2.5": the whole column takes float, still on the bulk route,
    # which builds no id index
    assert len(read) == 2 and read[1] is None
    assert parse_tree_tsv(p)._id_to_index is None


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


def test_root_marker_is_not_an_id(tmp_path, monkeypatch):
    import treesum.datasets

    p = tmp_path / "t.tsv"
    q = tmp_path / "t_comment.tsv"
    p.write_text("a\t-\t1\nb\ta\t2\n")
    q.write_text("# a comment\na\t-\t1\nb\ta\t2\n")
    parsed = [parse_tree_tsv(p), parse_tree_tsv(q)]
    # hashed keys that collide send the file to from_parent_ids
    p.write_text("aaaaaaaaa\t-\t1\nbbbbbbbbb\taaaaaaaaa\t2\n")
    monkeypatch.setattr(treesum.datasets, "_mix", lambda h: np.full_like(h, 7))
    parsed.append(parse_tree_tsv(p))
    assert parsed[-1]._id_to_index is not None
    built = build_tree(_records([("a", None, 1), ("b", "a", 2)]))
    for tree, marker in [(tree, "-") for tree in parsed] + [(built, None)]:
        with pytest.raises(UnknownNode):
            tree.index(marker)
        assert len(tree._id_to_index) == tree.n == 2
        assert marker not in tree._id_to_index
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
    bulk = tmp_path / "bulk.tsv"
    bulk.write_text("a\t-\t1\nb\ta\t2\nc\tb\t3\n")
    mixed = tmp_path / "mixed.tsv"
    mixed.write_text("a\t-\t1\nb\ta\t2\tlabel b\nc\tb\t3\n")
    records = _records([("a", None, 1), ("b", "a", 2), ("c", "b", 3)])
    # (build, dicts built with the tree): build_tree keeps the dict it
    # resolves parent ids with; the parse, which resolves them from the
    # file's bytes, and the constructor build it on the first lookup
    for build, at_build in (
        (lambda: parse_tree_tsv(bulk), 0),
        (lambda: WeightedTree(["a", "b", "c"], [-1, 0, 1], [1, 2, 3]), 0),
        (lambda: parse_tree_tsv(mixed), 0),
        (lambda: build_tree(records), 1),
    ):
        tree = build()
        assert len(built) == at_build
        assert tree._id_to_index is (built[0] if at_build else None)
        assert tree.index("b") == 1
        assert tree.indices(["c", "a"]) == [2, 0]
        assert len(built) == 1
        assert tree._id_to_index is built.pop()
        assert tree._id_to_index == {"a": 0, "b": 1, "c": 2}


def test_bulk_parse_hands_its_arrays_to_the_tree(tmp_path, monkeypatch):
    # the parse's parent and weight arrays and its undecoded label column
    # become the tree's own, with no copy
    import treesum.tree

    handed = {}
    build = WeightedTree._build

    def recording(self, ids, par, weights, labels, score_levels):
        handed.update(par=par, weights=weights, labels=labels)
        build(self, ids, par, weights, labels, score_levels)

    monkeypatch.setattr(treesum.tree.WeightedTree, "_build", recording)
    p = tmp_path / "t.tsv"
    p.write_bytes(b"r\t-\t1\troot\na\tr\t2\tA\nb\ta\t0.5\t\n")
    t = parse_tree_tsv(p)
    assert np.shares_memory(t.parent, handed["par"])
    assert np.shares_memory(t.feq, handed["weights"])
    assert t._labels is handed["labels"]
    assert t.labels == ["root", "A", "b"]


@pytest.mark.parametrize("drift", [-9, -3, 0, 4])
def test_read_padded_holds_every_byte_read(tmp_path, monkeypatch, drift):
    # a size that no longer matches the file, as when it changes while it is
    # read, still gives every byte and then the NUL padding
    import treesum.datasets

    text = b"r\t-\t1\na\tr\t22\nbb\ta\t333"
    p = tmp_path / "t.tsv"
    p.write_bytes(text)
    fstat = os.fstat

    class Stat:
        def __init__(self, fd):
            self.st_size = fstat(fd).st_size + drift

    monkeypatch.setattr(treesum.datasets.os, "fstat", Stat)
    assert bytes(treesum.datasets._read_padded(p)) == text + bytes(8)
    t = parse_tree_tsv(p)
    assert t.ids == ["r", "a", "bb"] and t.feq.tolist() == [1.0, 22.0, 333.0]


# -- ids and labels decoded on first read --------------------------------------


def _eager_columns(path):
    """The ids and labels of a tree file, read line by line: the oracle."""
    lines = [line for line in path.read_text(encoding="utf-8").split("\n") if line and line[0] != "#"]
    fields = [line.split("\t") for line in lines]
    ids = [f[0] for f in fields]
    labels = [(f[3] if len(f) == 4 else "") or f[0] for f in fields]
    return ids, labels


def _lazy_tree_files(tmp_path):
    """One file per case, by name."""
    t = gen_random_tree(GenSpec(n=300, important_count=40, seed=5))
    ids = t.ids
    cases = {
        "3-column": (ids, None),
        "4-column, some labels empty": (ids, [f"L{i}" if i % 3 else "" for i in range(t.n)]),
        "4-column, every label empty": (ids, [""] * t.n),
        "multi-byte UTF-8": ([f"é{i}漢😀" for i in range(t.n)], [f"ü{i}" if i % 2 else "" for i in range(t.n)]),
        "ids over 8 bytes": ([f"node-with-a-long-id-{i}" for i in range(t.n)], None),
    }
    files = {}
    for name, (case_ids, labels) in cases.items():
        p = tmp_path / f"{len(files)}.tsv"
        rows = []
        for i, (node_id, p_index, w) in enumerate(zip(case_ids, t.parent.tolist(), t.feq.tolist())):
            cols = [node_id, "-" if p_index < 0 else case_ids[p_index], str(int(w))]
            if labels is not None:
                cols.append(labels[i])
            rows.append("\t".join(cols) + "\n")
        p.write_text("".join(rows), encoding="utf-8")
        files[name] = p
        if name.startswith("4-column"):
            # the same rows after a header line, with CRLF line ends
            q = p.with_suffix(".crlf.tsv")
            q.write_bytes(("# header\n" + "".join(rows)).replace("\n", "\r\n").encode("utf-8"))
            files[f"{name}, header and CRLF"] = q
    return files


@pytest.mark.parametrize("first", ["ids", "labels", "index", "rows"])
def test_ids_and_labels_match_an_eager_read(tmp_path, first):
    for name, path in _lazy_tree_files(tmp_path).items():
        ids, labels = _eager_columns(path)
        t = parse_tree_tsv(path)
        assert not isinstance(t._ids, list), name
        # rows in a scrambled order, before any full read
        rows = np.random.default_rng(0).permutation(t.n)[: t.n // 2].tolist()
        assert t._ids_at(rows) == [ids[v] for v in rows], name
        own = t._labels_at(rows)
        assert (own or [ids[v] for v in rows]) == [labels[v] for v in rows], name
        assert t._ids_at([]) == [] and repr(t).endswith(f"root={ids[t.root]!r})"), name
        if first == "ids":
            assert t.ids == ids, name
        elif first == "labels":
            assert t.labels == labels, name
        elif first == "index":
            assert t.index(ids[-1]) == t.n - 1, name
        # after the first full read, every way in reads the same strings
        for _ in range(2):
            assert t.ids == ids and t.labels == labels, name
            assert [t.index(node_id) for node_id in ids] == list(range(t.n)), name
            assert t._ids_at(rows) == [ids[v] for v in rows], name
        assert (t.labels is t.ids) == (t._labels is None), name
        # the reduced tree of an undecoded tree, then of a decoded one
        for reduced in (vtree(parse_tree_tsv(path)), vtree(t)):
            kept = reduced.orig_index
            assert reduced.tree.ids == [ids[v] for v in kept], name
            assert reduced.tree.labels == [labels[v] for v in kept], name


def _retained(path) -> int:
    """The bytes that a tree parsed from ``path`` keeps once its ids and
    labels are read (tracemalloc)."""
    tracemalloc.start()
    try:
        t = parse_tree_tsv(path)
        t.ids, t.labels
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_three_column_labels_are_the_ids(tmp_path):
    # so are the labels of a file whose labels are all empty, with or
    # without a header and CRLF line ends, and such a tree keeps no more
    # than the 3-column one
    files = _lazy_tree_files(tmp_path)
    empty = "4-column, every label empty"
    for name in ("3-column", empty, f"{empty}, header and CRLF"):
        path = files[name]
        t = parse_tree_tsv(path)
        assert t.labels is t.ids, name
        rt = vtree(parse_tree_tsv(path)).tree
        assert rt.labels is rt.ids, name
    # numpy's cache of small blocks moves tracemalloc's count by tens of
    # bytes; a list of labels of their own would add some 18 KB here
    assert _retained(files[empty]) <= _retained(files["3-column"]) + 1024


@pytest.mark.parametrize(
    "round_trip",
    [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
@pytest.mark.parametrize("decoded", [False, True])
def test_round_trips_keep_ids_and_labels(tmp_path, round_trip, decoded):
    for name, path in _lazy_tree_files(tmp_path).items():
        ids, labels = _eager_columns(path)
        t = parse_tree_tsv(path)
        if decoded:
            t.ids, t.labels
        u = round_trip(t)
        assert isinstance(u._ids, list) == isinstance(t._ids, list), name
        assert u._ids_at([t.n - 1, 0]) == [ids[-1], ids[0]], name
        assert u.ids == ids and u.labels == labels, name
        assert (u.labels is u.ids) == (t.labels is t.ids), name
        assert u.index(ids[-1]) == t.n - 1, name
        assert repr(u) == repr(t), name


def _counting_columns(monkeypatch):
    """Record the number of rows of every ``_column`` call."""
    import treesum.datasets

    rows = []
    column = treesum.datasets._column

    def counting(raw, start, stop):
        rows.append(len(start))
        return column(raw, start, stop)

    monkeypatch.setattr(treesum.datasets, "_column", counting)
    return rows


@pytest.mark.parametrize(
    "labelled, header_crlf",
    [(False, False), (True, False), (True, True)],
    ids=["False", "True", "True-header-CRLF"],
)
def test_setup_decodes_only_the_kept_rows(tmp_path, monkeypatch, labelled, header_crlf):
    t = gen_random_tree(GenSpec(n=3000, important_count=60, seed=9))
    labels = [f"label {i}" for i in range(t.n)] if labelled else None
    p = tmp_path / "t.tsv"
    write_tree_tsv(WeightedTree(t.ids, t.parent, t.feq, labels), p)
    if header_crlf:
        p.write_bytes((b"# header\n" + p.read_bytes()).replace(b"\n", b"\r\n"))
    rows = _counting_columns(monkeypatch)
    tree = parse_tree_tsv(p)
    assert rows == []
    rt = vtree(tree, EulerLcaIndex(tree)).tree
    assert 0 < rt.n < tree.n // 10
    assert rows == [rt.n] * (1 + labelled)
    assert rt.ids == [t.ids[v] for v in vtree(t).orig_index]


def test_summarize_decodes_only_what_it_prints(tmp_path, monkeypatch, capsys):
    from treesum.cli import main

    p = tmp_path / "t.tsv"
    write_tree_tsv(gen_random_tree(GenSpec(n=3000, important_count=60, seed=9)), p)
    rows = _counting_columns(monkeypatch)
    for algo in ("gts", "feq"):
        assert main(["summarize", str(p), "--algo", algo, "--k", "5"]) == 0
    assert rows and max(rows) <= 2 * 60 + 1
    assert capsys.readouterr().out.count("selected: ") == 2


@pytest.mark.parametrize("labelled", [False, True])
def test_tree_drops_the_file_once_every_column_is_decoded(tmp_path, labelled):
    p = tmp_path / "t.tsv"
    p.write_text("r\t-\t1\tR\na\tr\t2\t\n" if labelled else "r\t-\t1\na\tr\t2\n", encoding="utf-8")
    t = parse_tree_tsv(p)
    raw = weakref.ref(t._ids.raw)
    t._ids_at([1]), t._labels_at([1])
    assert raw() is not None
    t.ids
    assert (raw() is None) is not labelled
    t.labels
    assert raw() is None
    assert isinstance(t._ids, list) and (t._labels is None) is not labelled
