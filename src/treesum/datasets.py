"""Tree files and synthetic trees.

File format: tab-separated ``id  parentId  weight  [label]``, one node per
line, ``-`` as the parent of the root, ``#`` starting a comment line.
Weights are non-negative decimals; integer weights round-trip losslessly.

The generator is driven by an explicit splitmix64 stream (see Splitmix64)
rather than the stdlib PRNG so that a (spec, seed) pair produces the same
tree on any platform or language.  Nodes are attached one at a time: with
probability ``height_bias`` the new node extends the most recently added
node (deepening the tree), otherwise it attaches to a uniformly random node
that still has room under ``max_children``.  With a small bias this yields
random-recursive-tree shapes whose height grows like log n, matching the
profile of real taxonomy datasets.
"""
from __future__ import annotations

import os
import re
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, MalformedLine, NoRoot
from .tree import WeightedTree

_MASK64 = (1 << 64) - 1
_NO_PARENT = "-"  # the parent column of the root
_TAB, _NEWLINE, _CR, _COMMENT, _DASH = b"\t\n\r#-"
_PAD = 8  # NUL bytes read after a file, one 8-byte word's worth
# _LOW_BYTES[j] keeps the low j bytes of a uint64, for j = 0..8
_LOW_BYTES = np.array([(1 << 8 * j) - 1 for j in range(9)], dtype=np.uint64)
# _ASCII_ZEROS[j] holds j ASCII "0" bytes in the low bytes of a uint64
_ASCII_ZEROS = np.array([int.from_bytes(b"0" * j, "little") for j in range(9)], dtype=np.uint64)
# (mask, multiplier, shift) of each step of the 8-digit SWAR parse
_SWAR_STEPS = tuple(
    tuple(map(np.uint64, step))
    for step in (
        (0x0F0F0F0F0F0F0F0F, 10 << 8 | 1, 8),
        (0x00FF00FF00FF00FF, 100 << 16 | 1, 16),
        (0x0000FFFF0000FFFF, 10000 << 32 | 1, 32),
    )
)


class Splitmix64:
    """Deterministic 64-bit PRNG (splitmix64).

    State update: state += 0x9E3779B97F4A7C15 (mod 2**64); output mixing:
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31.  ``randrange(n)`` reduces the
    64-bit output modulo n.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        return self.next_u64() % n

    def random(self) -> float:
        return self.next_u64() / 2.0**64


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one synthetic tree."""

    n: int
    important_count: int
    seed: int
    max_children: int = 8
    height_bias: float = 0.05
    weight_low: int = 1
    weight_high: int = 100

    def validate(self):
        if self.n < 1:
            raise InvalidSpec(f"n={self.n} must be >= 1")
        if not 0 <= self.important_count <= self.n:
            raise InvalidSpec(f"important_count={self.important_count} outside 0..{self.n}")
        if self.max_children < 1:
            raise InvalidSpec(f"max_children={self.max_children} must be >= 1")
        if not 0.0 < self.height_bias <= 1.0:
            raise InvalidSpec(f"height_bias={self.height_bias} outside (0, 1]")
        if self.weight_low < 1 or self.weight_high < self.weight_low:
            raise InvalidSpec(
                f"weight bounds [{self.weight_low}, {self.weight_high}] invalid"
            )


def gen_random_tree(spec: GenSpec) -> WeightedTree:
    """Deterministic random tree for a (spec, seed) pair."""
    spec.validate()
    n = spec.n
    rng = Splitmix64(spec.seed)

    parent = [-1] * n
    child_count = [0] * n
    eligible = [0]  # nodes still below max_children
    slot = [0] * n  # position of each node inside `eligible`
    last = 0
    for i in range(1, n):
        if rng.random() < spec.height_bias and child_count[last] < spec.max_children:
            p = last
        else:
            p = eligible[rng.randrange(len(eligible))]
        parent[i] = p
        child_count[p] += 1
        if child_count[p] == spec.max_children:
            moved = eligible[-1]
            eligible[slot[p]] = moved
            slot[moved] = slot[p]
            eligible.pop()
        slot[i] = len(eligible)
        eligible.append(i)
        last = i

    weights = [0.0] * n
    pool = list(range(n))
    for j in range(spec.important_count):
        r = j + rng.randrange(n - j)
        pool[j], pool[r] = pool[r], pool[j]
        weights[pool[j]] = float(
            spec.weight_low + rng.randrange(spec.weight_high - spec.weight_low + 1)
        )

    ids = [f"n{i}" for i in range(n)]
    return WeightedTree(ids, parent, weights)


def parse_tree_tsv(path) -> WeightedTree:
    """Read a tree file.

    Every file takes one route, ``_parse_uniform``, over its bytes.  Its
    lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``; blank lines and lines
    that start with ``#`` are dropped; each other line holds 2 or 3 tabs,
    and one with no label, or an empty one, takes its id as its label.  The
    tab and line-end bytes give every field's extent.  The tree takes the
    id and label columns undecoded, the file's bytes and each row's extent,
    and decodes a column the first time it is read; its parent ids resolve
    through integer keys of their bytes (``_resolve_ids``), and no id dict
    is built.  Only a file whose keys resolve no parents (a repeated id, a
    parent that names no id, or distinct ids whose hashed keys collide) has
    its columns decoded and handed to ``WeightedTree.from_parent_ids``.

    Raises MalformedLine for the first line that breaks the schema,
    counting every line, blank and comment lines too; else DuplicateId or
    OrphanParentReference from ``from_parent_ids``; else any error of the
    tree's build.
    """
    data = _read_padded(path)
    if not data.isascii():
        # a file must be UTF-8 before it is read; ASCII is, and so is the
        # padding
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
    return _parse_uniform(data)


def _read_padded(path) -> bytearray:
    """The bytes of the file at ``path`` followed by ``_PAD`` NUL bytes, read
    into one buffer, so that an 8-byte word can be read at every offset of
    the file without copying it."""
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size + _PAD)
        size = fh.readinto(memoryview(data)[:-_PAD])
        # the rest of a file that grew after its size was read
        rest = fh.read()
    if rest or size < len(data) - _PAD:
        # a file whose size changed: its bytes, then the padding
        data[size:] = rest + bytes(_PAD)
    return data


def _parse_uniform(data: bytearray) -> WeightedTree:
    """The tree of a tree file.  ``data`` holds the file's UTF-8 bytes
    followed by ``_PAD`` NUL bytes.

    Lines end as in a file read as text: every ``\\r`` and ``\\n`` ends
    one, so ``\\r\\n`` ends a line and then an empty one.  A row mask
    drops the empty lines and those that start with ``#``; every other line
    is a row, which must hold 2 or 3 tabs.  The separators' offsets are
    held in ``_index_type`` (int32 below 2 GiB) from the start, so every
    extent is too.  When every line is a row of one width, the fields'
    extents are strided views of those offsets; otherwise ``_row_extents``
    gathers them.  A field that breaks the schema raises MalformedLine
    through ``_raise_malformed``.

    No field becomes a string here.  The tree takes the id column, and a
    label column, as ``_FileColumn``s: ``raw`` and each row's extent, as
    compact arrays, so that no view keeps the separators alive.  A row with
    no label, or an empty one, takes its id's extent, as ``label or
    node_id`` would; when no row has a label the tree gets no label column,
    so its labels are its ids.  The tree decodes a column with ``_column``
    when it is first read, and only some rows of it when asked for those.
    Parent fields are resolved from their bytes (``_resolve_ids``); while
    that runs, the file, the separators and four n-entry extents (a byte
    mask besides) are live.  A weight column whose every field is 1 to 8
    ASCII digits is read from one 8-byte word per field
    (``_digit_weights``); any other weight column is gathered by
    ``_column`` and read by ``float``.

    When the bytes resolve no parents (a repeated id, a parent that names
    no id, or hashed keys that collide), the decoded columns go to
    ``WeightedTree.from_parent_ids``, which names the first repeat or
    orphan, or builds the tree.  The weights are read first, so a bad
    weight anywhere is named before those errors.
    """
    size = len(data) - _PAD
    raw = np.frombuffer(data, dtype=np.uint8, count=size)
    # every tab and line end, in order: one compare finds them with the few
    # other bytes up to "\r", which are dropped
    seps = np.flatnonzero(raw <= _CR)
    kind = raw[seps]
    is_sep = (kind == _TAB) | (kind == _NEWLINE) | (kind == _CR)
    if not is_sep.all():
        seps, kind = seps[is_sep], kind[is_sep]
    if not data.endswith((b"\n", b"\r"), 0, size):
        seps = np.append(seps, size)
        kind = np.append(kind, _NEWLINE)
    seps = seps.astype(_index_type(size))
    is_end = kind != _TAB
    del kind, is_sep
    lines = np.count_nonzero(is_end)
    cols = seps.size // lines
    uniform = cols in (3, 4) and seps.size == cols * lines and is_end[cols - 1 :: cols].all()
    if uniform:
        # every line holds cols - 1 tabs, so it is a row unless it is a
        # comment, and the rows' j-th separators are seps[j::cols]
        id_stop, par_stop, weight_stop, stop = (seps[j::cols] for j in (0, 1, 2, cols - 1))
        start = np.empty(lines, dtype=seps.dtype)
        start[0] = 0
        np.add(stop[:-1], 1, out=start[1:])
        uniform = not (raw[start] == _COMMENT).any()
    if not uniform:
        start, id_stop, par_stop, weight_stop, stop = _row_extents(data, seps, is_end)
    del seps, is_end
    n = start.size
    id_len = id_stop - start
    if not id_len.all() or ((id_len == 1) & (raw[start] == _DASH)).any():
        _raise_malformed(data)
    # one 8-byte word at every byte offset, read past the end into the padding
    words = np.ndarray((size + 1,), dtype="<u8", buffer=data, strides=(1,))
    par_start = id_stop + 1
    par_len = par_stop - par_start
    linked = (par_len != 1) | (raw[par_start] != _DASH)
    # a NUL byte would make a NUL-padded key inexact
    has_nul = data.find(b"\0", 0, size) >= 0
    parent = _resolve_ids(words, start, id_len, par_start, par_len, linked, has_nul)
    # freed before the weights are read, and the rest before the build:
    # held, they would raise the parse's memory peak
    del id_len, par_start, par_len, linked
    weight_start = par_stop + 1
    weights = _digit_weights(words, weight_start, weight_stop - weight_start)
    if weights is None:
        try:
            weights = np.fromiter(map(float, _column(raw, weight_start, weight_stop)), np.float64, n)
        except ValueError:
            _raise_malformed(data)
    del weight_start
    # a strided view would keep every separator alive with the tree
    ids = _FileColumn(raw, start, np.ascontiguousarray(id_stop))
    labels = None
    if (weight_stop < stop).any():
        # some row has a label field; a row with none, or an empty one,
        # ends at most one byte past its weight
        empty = weight_stop >= stop - 1
        if not empty.all():
            # an empty label reads as the id: ``label or node_id``
            label_start = np.where(empty, start, weight_stop + 1)
            label_stop = np.where(empty, id_stop, stop)
            labels = _FileColumn(raw, label_start, label_stop)
    if parent is None:
        # the bytes resolved no parents: the decoded columns name the first
        # repeated id or orphan, or build the tree when only keys collided
        parent_ids = _column(raw, id_stop + 1, par_stop)
        labels = None if labels is None else labels.decode()
        return WeightedTree.from_parent_ids(
            ids.decode(), parent_ids, weights, labels, root_parent=_NO_PARENT
        )
    del start, id_stop, par_stop, weight_stop, stop
    return WeightedTree._from_distinct_ids(ids, parent, weights, labels)


def _index_type(size: int):
    """The integer type of the offsets into ``size`` bytes: int32 below
    2**31 bytes, else int64."""
    return np.int32 if size < 2**31 else np.int64


def _row_extents(data, seps, is_end):
    """The extents of the rows of a file whose lines are not all rows of
    one width: for each row, the offsets where it starts, where its id,
    parent and weight fields stop and where it ends.

    ``seps`` holds the offsets of the file's tabs and line ends, in order,
    the last one a line end, and ``is_end`` marks its line ends.  A line
    that is empty or starts with ``#`` is no row; every row must hold 2 or
    3 tabs, or the file is malformed.  A row of 2 tabs ends its weight field
    where it ends.  Raises NoRoot for a file with no row.
    """
    ends = np.flatnonzero(is_end)
    stop = seps[ends]
    start = np.empty_like(stop)
    start[0] = 0
    np.add(stop[:-1], 1, out=start[1:])
    # the first bytes are read with the padding, where an empty file's one
    # line starts
    first = np.frombuffer(data, dtype=np.uint8)[start]
    # indices, not a mask: a mask that alternates, as CRLF line ends make
    # it, is slow to apply
    row = np.flatnonzero((stop > start) & (first != _COMMENT))
    if row.size == 0:
        raise NoRoot("empty node list")
    start, stop = start[row], stop[row]
    # each row's first tab, as an index into seps: one past the line end
    # before it, or the first separator in the first line
    tab = ends[row - 1] + 1
    if row[0] == 0:
        tab[0] = 0
    tabs = ends[row] - tab
    del ends, row
    if ((tabs != 2) & (tabs != 3)).any():
        _raise_malformed(data)
    id_stop, par_stop, weight_stop = (seps[tab + j] for j in range(3))
    return start, id_stop, par_stop, weight_stop, stop


class _FileColumn:
    """A column of a tree file, not yet decoded: its i-th field is
    ``raw[start[i]:stop[i]]``.  A tree holds one in place of its id or label
    list until that list is first read (``WeightedTree.ids``)."""

    __slots__ = ("raw", "start", "stop")

    def __init__(self, raw, start, stop):
        self.raw = raw
        self.start = start
        self.stop = stop

    def __len__(self):
        return self.start.size

    def decode(self) -> list:
        """Every field, as a list of str."""
        return _column(self.raw, self.start, self.stop)

    def at(self, rows) -> list:
        """The fields of ``rows``, in their order, as a list of str."""
        rows = np.asarray(rows, dtype=np.int64)
        return _column(self.raw, self.start[rows], self.stop[rows]) if rows.size else []


def _column(raw, start, stop) -> list:
    """The fields ``raw[start[i]:stop[i]]``, in order, as a list of str.

    Their bytes, and a tab after each field but the last, are gathered into
    one buffer through an int32 index (int64 from 2 GiB), which is decoded
    and split once.  No field holds a tab or a line break, so each one
    decodes as it does within the file.
    """
    length = stop - start + 1  # the field and the byte after it
    length[-1] -= 1
    head = np.cumsum(length) - length  # where each field starts in the buffer
    index_type = _index_type(raw.size)
    index = np.repeat((start - head).astype(index_type), length)
    index += np.arange(index.size, dtype=index_type)
    # indexing casts an int32 index in buffered chunks; take would copy it
    # to int64 whole
    buf = raw[index]
    del index
    buf[head[1:] - 1] = _TAB
    # the slice drops the spare room of the split's list
    return str(buf, "utf-8").split("\t")[:]


def _digit_weights(words, start, length):
    """The fields as float64 when each one is 1 to 8 ASCII digits, else None.

    Each field's word is shifted so that its digits fill the word's high
    bytes, after ASCII zeros, and then read as 8 digits with three
    multiplies (the SWAR parse of simdjson, Langdale & Lemire 2019).  Every
    value is below 10**8, so it is exactly the float that ``float`` gives
    for the field's text.
    """
    if length.min() < 1 or length.max() > 8:
        return None
    pad = 8 - length
    word = (words[start] << (pad * 8).astype(np.uint64)) | _ASCII_ZEROS[pad]
    # every byte is 0x30..0x39: its high nibble is 3, and adding 6 keeps it 3
    high, threes = np.uint64(0xF0F0F0F0F0F0F0F0), np.uint64(0x3030303030303030)
    digits = ((word & high) == threes) & (((word + np.uint64(0x0606060606060606)) & high) == threes)
    if not digits.all():
        return None
    # pairs of digits, then groups of 4, then all 8
    for mask, scale, shift in _SWAR_STEPS:
        word = ((word & mask) * scale) >> shift
    return word.astype(np.float64)


def _resolve_ids(words, id_start, id_len, ref_start, ref_len, linked, has_nul):
    """Each row's parent as an index into the rows, -1 where ``linked`` is
    false, from the fields' extents: row i's id starts at ``id_start[i]``
    and holds ``id_len[i]`` bytes, its parent field starts at
    ``ref_start[i]`` and holds ``ref_len[i]`` bytes, and ``words[j]`` is the
    8-byte word at offset j of the file.  None when two ids share a key or
    the parent field of a linked row names no id.

    A field's key is its bytes, NUL-padded, as one little-endian uint64 when
    every field fits in 8 bytes and the file holds no NUL byte (``has_nul``
    false), so that key is exact.  Otherwise it is ``_mix`` folded over the
    field's length and its NUL-padded 8-byte words, and every match is then
    checked byte for byte.  The ids' keys are sorted, with their order, and
    must be distinct.  The parent fields' keys are sorted too, so one
    ``searchsorted`` of them among the ids' sorted keys finds each one's
    id, each search starting where the one before it ended.  At its peak
    this holds six n-entry arrays of 8 bytes: both sorted key sets, both
    orders, the found positions and the keys found there; no array spans
    both key sets.
    """
    n = id_len.size
    exact = not has_nul and max(id_len.max(), ref_len.max()) <= 8
    key = _exact_keys if exact else _mixed_keys
    id_key = key(words, id_start, id_len)
    order = np.argsort(id_key)
    id_key = id_key[order]
    if (id_key[1:] == id_key[:-1]).any():
        return None
    ref_key = key(words, ref_start, ref_len)
    ref_order = np.argsort(ref_key)
    ref_key = ref_key[ref_order]
    at = np.searchsorted(id_key, ref_key)
    np.minimum(at, n - 1, out=at)
    named = id_key[at] == ref_key
    del id_key, ref_key
    # the parent field of a row that is not linked, the root's "-", names
    # no id
    if not (named | ~linked[ref_order]).all():
        return None
    parent = np.empty(n, dtype=np.int64)
    parent[ref_order] = order[at]
    del order, ref_order, at
    parent[~linked] = -1
    if not exact:
        # a match must hold the same bytes: the same length and words
        rows = np.flatnonzero(linked)
        found, ref_start, ref_len = parent[rows], ref_start[rows], ref_len[rows]
        if (id_len[found] != ref_len).any():
            return None
        id_words = _field_words(words, id_start[found], ref_len)
        ref_words = _field_words(words, ref_start, ref_len)
        if any((a != b).any() for (_, a), (_, b) in zip(id_words, ref_words)):
            return None
    return parent


def _exact_keys(words, start, length):
    return words[start] & _LOW_BYTES[length]


def _mixed_keys(words, start, length):
    key = _mix(length.astype(np.uint64))
    for live, word in _field_words(words, start, length):
        key[live] = _mix(key[live] ^ word)
    return key


def _field_words(words, start, length):
    """For each 8-byte step into the fields: the positions of the fields
    that reach it and their NUL-padded words there."""
    live = np.arange(length.size)
    offset = 0
    while live.size:
        tail = np.minimum(length[live] - offset, 8)
        yield live, words[start[live] + offset] & _LOW_BYTES[tail]
        offset += 8
        live = live[length[live] > offset]


def _mix(h):
    """A bijective 64-bit mix of a uint64 array (the murmur3 finalizer)."""
    h ^= h >> 33
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> 33
    h *= np.uint64(0xC4CEB9FE1A85EC53)
    h ^= h >> 33
    return h


def _not_utf8(path, exc: UnicodeDecodeError) -> MalformedLine:
    """MalformedLine, naming ``path``, for the line of the file's first byte
    that is not UTF-8.  A whole-file read decodes the file's bytes in one
    call, so ``exc.object`` is the file; lines are counted as the text read
    counts them, with universal newlines."""
    head = _universal_newlines(exc.object[: exc.start].decode("utf-8", "replace"))
    column = len(head) - head.rfind("\n")
    byte = exc.object[exc.start]
    return MalformedLine(
        head.count("\n") + 1, f"byte 0x{byte:02x} at column {column} is not UTF-8 text in {path}"
    )


def _universal_newlines(text: str) -> str:
    """``text`` with every line end made ``\\n``, as a file read as text has
    them."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _raise_malformed(data: bytearray):
    """Raise MalformedLine for the first line that breaks the schema in the
    file whose bytes ``data`` holds before ``_PAD`` NUL bytes, counting
    lines as a file read as text counts them."""
    text = _universal_newlines(data[:-_PAD].decode("utf-8"))
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            raise MalformedLine(line_no, f"expected 3 or 4 columns, got {len(parts)}")
        node_id, weight_text = parts[0], parts[2]
        if not node_id:
            raise MalformedLine(line_no, "empty node id")
        if node_id == _NO_PARENT:
            raise MalformedLine(line_no, f"node id {_NO_PARENT!r} is reserved for the root's parent")
        try:
            float(weight_text)
        except ValueError:
            raise MalformedLine(line_no, f"bad weight {weight_text!r}") from None
    raise AssertionError("no malformed line found")


def _format_weight(w: float) -> str:
    return str(int(w)) if w == int(w) else repr(w)


# the only code points that UTF-8 cannot encode
_SURROGATE = re.compile("[\ud800-\udfff]")


def _check_writable(tree: WeightedTree):
    """Raise MalformedLine for the first node whose line would not parse back
    or not encode as UTF-8."""
    ids, labels = tree.ids, tree.labels
    # scans of joined text clear a good tree without a per-node loop; while
    # no id holds a line break, each id is one line of ``lines``
    text = "".join(ids) + "".join(labels)
    lines = "\n" + "\n".join(ids) + "\n"
    if not (
        (not text.isascii() and _SURROGATE.search(text))
        or "\n\n" in lines
        or f"\n{_NO_PARENT}\n" in lines
        or "\n#" in lines
        or "\t" in text
        or "\n" in text
        or "\r" in text
    ):
        return
    for line_no, (node_id, label) in enumerate(zip(ids, labels), start=1):
        if node_id in ("", _NO_PARENT) or node_id[0] == "#":
            raise MalformedLine(line_no, f"node id {node_id!r} cannot be written")
        for name, value in (("id", node_id), ("label", label)):
            if "\t" in value or "\n" in value or "\r" in value:
                raise MalformedLine(line_no, f"node {name} {value!r} holds a tab or line break")
            if _SURROGATE.search(value):
                raise MalformedLine(line_no, f"node {name} {value!r} does not encode as UTF-8")


def write_tree_tsv(tree: WeightedTree, path) -> None:
    """Write a tree file that parses back to an isomorphic tree.

    Raises MalformedLine, naming the line it would have written, before
    creating any file if an id is empty, ``-`` or starts with ``#``, or an
    id or label holds a tab or line break or does not encode as UTF-8.  A
    failed write leaves neither ``path`` nor a temporary file.
    """
    _check_writable(tree)
    ids, labels = tree.ids, tree.labels
    with_labels = labels != ids
    with replacing_file(path) as fh:
        for i, (p, w) in enumerate(zip(tree.parent.tolist(), tree.feq.tolist())):
            cols = [ids[i], _NO_PARENT if p < 0 else ids[p], _format_weight(w)]
            if with_labels:
                cols.append(labels[i])
            fh.write("\t".join(cols) + "\n")


@contextmanager
def replacing_file(path, newline=None):
    """A UTF-8 text file open for writing that replaces ``path`` when the
    block ends.  It is written under a temporary name beside ``path`` and
    renamed over it with ``os.replace``, so a block that fails or is
    interrupted leaves ``path`` as it was and removes the temporary file."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
