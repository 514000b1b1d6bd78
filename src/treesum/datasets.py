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
from itertools import repeat

import numpy as np

from .errors import InvalidSpec, MalformedLine, NoRoot
from .tree import WeightedTree

_MASK64 = (1 << 64) - 1
_NO_PARENT = "-"  # the parent column of the root
_TAB, _NEWLINE, _COMMENT, _DASH = b"\t\n#-"
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
    """Read a tree file.  Files take one of two routes, to the same tree:

    * the bulk route: a file with no comment line, no blank line, no NUL
      byte and no carriage return, whose lines all hold the same number of
      tabs, 2 or 3.  Its tab and newline bytes give every field's extent.
      The tree takes the id and label columns undecoded, the file's bytes
      and each row's extent, and decodes a column the first time it is
      read; its parent ids resolve through integer keys of their bytes
      (``_resolve_ids``), and no id dict is built.  Weights that are all
      1 to 8 ASCII digits are read from the bytes, any others by
      ``float`` (``_parse_uniform``).
    * the line route: every other file, and every file in which the bulk
      route finds a bad field, a repeated id or a parent it cannot match.
      Its fields go to ``WeightedTree.from_parent_ids``; a file that breaks
      the schema is scanned line by line to name its first bad line.

    So every MalformedLine, DuplicateId and OrphanParentReference comes from
    the line route.  Raises MalformedLine, or any error of
    ``from_parent_ids``.
    """
    data = _read_padded(path)
    if not data.isascii():
        # a file must be UTF-8 before either route reads it; ASCII is, and
        # so is the padding
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
    tree = _parse_uniform(data)
    if tree is None:
        text = data[:-_PAD].decode("utf-8")
        if "\r" in text:
            # the universal newlines of a file opened as text
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        tree = _parse_lines(text)
    return tree


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


def _parse_uniform(data: bytearray):
    """The tree of a file that takes the bulk route, or None to hand it to
    the line route.  ``data`` holds the file's bytes followed by ``_PAD``
    NUL bytes.  Raises only the errors of the tree's build, which the line
    route would raise too.

    No field becomes a string here.  The tree takes the id column, and the
    label column of a 4-column file, as ``_FileColumn``s: ``raw`` and each
    row's extent, in int32 below 2 GiB.  A row whose label is empty takes
    its id's extent, as ``label or node_id`` would; when every label is
    empty the tree gets no label column, so its labels are its ids, as on
    the line route.  The tree decodes a column with ``_column`` when it is
    first read, and only some rows of it when asked for those.  Parent fields are resolved from their bytes
    (``_resolve_ids``).  A weight column whose every field is 1 to 8 ASCII
    digits is read from one 8-byte word per field (``_digit_weights``); any
    other weight column is gathered by ``_column`` and read by ``float``.
    """
    size = len(data) - _PAD
    if b"\r" in data or data.find(b"\0", 0, size) >= 0:
        return None
    raw = np.frombuffer(data, dtype=np.uint8, count=size)
    # every tab and line end, in order
    seps = np.flatnonzero((raw == _TAB) | (raw == _NEWLINE))
    kind = raw[seps]
    if not data.endswith(b"\n", 0, size):
        seps = np.append(seps, raw.size)
        kind = np.append(kind, _NEWLINE)
    n = np.count_nonzero(kind == _NEWLINE)
    cols = seps.size // n
    if cols not in (3, 4) or seps.size != cols * n:
        return None
    # one row per line: it holds cols - 1 tabs exactly when each of the n
    # line ends closes a row
    seps = seps.reshape(n, cols)
    if (kind.reshape(n, cols)[:, -1] != _NEWLINE).any():
        return None
    ends = seps[:, -1]
    starts = np.empty(n, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    first = raw[starts]
    id_len = seps[:, 0] - starts
    if (first == _COMMENT).any() or not id_len.all() or ((id_len == 1) & (first == _DASH)).any():
        return None
    # one 8-byte word at every byte offset, read past the end into the padding
    words = np.ndarray((size + 1,), dtype="<u8", buffer=data, strides=(1,))
    par_start = seps[:, 0] + 1
    par_len = seps[:, 1] - par_start
    linked = np.flatnonzero((par_len != 1) | (raw[par_start] != _DASH))
    found = _resolve_ids(words, starts, id_len, par_start[linked], par_len[linked])
    if found is None:
        return None
    parent = np.full(n, -1, dtype=np.int64)
    parent[linked] = found
    weight_start = seps[:, 1] + 1
    weights = _digit_weights(words, weight_start, seps[:, 2] - weight_start)
    # the arrays that found the parents and the digit weights are freed
    # before any other weight column is read, and the rest before the
    # build: held, they would raise the parse's memory peak
    del words, kind, id_len, par_start, par_len, linked, found
    if weights is None:
        try:
            weights = np.fromiter(map(float, _column(raw, weight_start, seps[:, 2])), np.float64, n)
        except ValueError:
            return None
    del weight_start
    # compact copies of the extents, so that no view keeps ``seps`` alive
    index_type = np.int32 if raw.size < 2**31 else np.int64
    id_stop = seps[:, 0]
    ids = _FileColumn(raw, starts.astype(index_type), id_stop.astype(index_type))
    labels = None
    if cols == 4:
        label_start = seps[:, 2] + 1
        empty = label_start == ends
        if not empty.all():
            # an empty label reads as the id: ``label or node_id``
            label_start[empty] = starts[empty]
            label_stop = np.where(empty, id_stop, ends)
            labels = _FileColumn(raw, label_start.astype(index_type), label_stop.astype(index_type))
    del seps, ends, starts, id_stop
    return WeightedTree._from_distinct_ids(ids, parent, weights, labels)


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
    index_type = np.int32 if raw.size < 2**31 else np.int64
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


def _resolve_ids(words, id_start, id_len, ref_start, ref_len):
    """The id that each reference names, as an index into the ids, from the
    fields' extents; ``words[i]`` is the 8-byte word at offset i of the
    file.  None when two ids share a key or a reference names no id.

    A field's key is its bytes, NUL-padded, as one little-endian uint64 when
    every field fits in 8 bytes; the file holds no NUL, so that key is
    exact.  Otherwise it is ``_mix`` folded over the field's length and its
    NUL-padded 8-byte words, and every match is then checked byte for byte.
    One unstable sort of all the keys puts equal keys in runs: every run
    must hold exactly one id, which every reference in the run names.
    """
    n = id_len.size
    exact = max(id_len.max(), ref_len.max(initial=0)) <= 8
    key = _exact_keys if exact else _mixed_keys
    keys = np.concatenate([key(words, id_start, id_len), key(words, ref_start, ref_len)])
    order = np.argsort(keys)
    keys = keys[order]
    run_start = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    if run_start.size != n - 1:
        return None
    # n runs and n ids: one id in each run exactly when the g-th id's
    # sorted position lies in the g-th run
    id_at = np.flatnonzero(order < n)
    if (run_start > id_at[1:]).any() or (run_start <= id_at[:-1]).any():
        return None
    run_len = np.diff(run_start, prepend=0, append=keys.size)
    named = np.empty(keys.size, dtype=np.int64)
    named[order] = np.repeat(order[id_at], run_len)
    found = named[n:]
    if not exact:
        # a match must hold the same bytes: the same length and words
        if (id_len[found] != ref_len).any():
            return None
        id_words = _field_words(words, id_start[found], ref_len)
        ref_words = _field_words(words, ref_start, ref_len)
        if any((a != b).any() for (_, a), (_, b) in zip(id_words, ref_words)):
            return None
    return found


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


def _parse_lines(text: str) -> WeightedTree:
    """The line route of ``parse_tree_tsv`` over a file's text, with its
    line ends already made ``\\n``."""
    lines = [line for line in text.split("\n") if line and line[0] != "#"]
    if not lines:
        raise NoRoot("empty node list")
    tabs = list(map(str.count, lines, repeat("\t")))
    widths = set(tabs)
    if not widths <= {2, 3}:
        _raise_malformed(text)
    width = 4 if 3 in widths else 3
    if len(widths) > 1:
        # pad 3-column lines with an empty label, which means "use the id"
        lines = [line if t == 3 else line + "\t" for line, t in zip(lines, tabs)]
    fields = "\t".join(lines).split("\t")
    ids = fields[0::width]
    if not all(ids) or _NO_PARENT in ids:
        _raise_malformed(text)
    try:
        weights = list(map(float, fields[2::width]))
    except ValueError:
        _raise_malformed(text)
    labels = None
    if width == 4 and any(fields[3::4]):
        labels = [label or node_id for label, node_id in zip(fields[3::4], ids)]
    return WeightedTree.from_parent_ids(
        ids, fields[1::width], weights, labels, root_parent=_NO_PARENT
    )


def _not_utf8(path, exc: UnicodeDecodeError) -> MalformedLine:
    """MalformedLine, naming ``path``, for the line of the file's first byte
    that is not UTF-8.  A whole-file read decodes the file's bytes in one
    call, so ``exc.object`` is the file; lines are counted as the text read
    counts them, with universal newlines."""
    head = exc.object[: exc.start].decode("utf-8", "replace")
    head = head.replace("\r\n", "\n").replace("\r", "\n")
    column = len(head) - head.rfind("\n")
    byte = exc.object[exc.start]
    return MalformedLine(
        head.count("\n") + 1, f"byte 0x{byte:02x} at column {column} is not UTF-8 text in {path}"
    )


def _raise_malformed(text: str):
    """Raise MalformedLine for the first line that breaks the schema."""
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
