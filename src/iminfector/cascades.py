"""Parsing, validation, temporal splitting and statistics for cascade logs.

A cascade log is UTF-8 text, one cascade per line:

    <initiator>:<start_time> TAB <node>:<time> <node>:<time> ...

Ids match ``[^\\s:]+`` and times are integers in [0, 2**63). Lines starting
with ``#`` are comments. An edge list file is one ``src TAB dst`` per line,
read into an EdgeList.

A corpus is held as arrays (CSR layout), not as one object per event: the
events of cascade i are positions ``offsets[i]:offsets[i+1]`` of
``node_idx`` and ``times``.
"""

import re
from array import array
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exceptions import (
    DegenerateSplit,
    EmptyCascade,
    MalformedLine,
    TimeOrderViolation,
)
from . import _native
from ._util import (
    ID_RE, atomic_write, first_occurrences, slack_ceil, sorted_distinct, text_lines,
)

_TIME_RE = re.compile(r"[0-9]+\Z")
# A whole well-formed line. Event tokens are separated by any whitespace
# but a tab, since a second tab would make a third field.
_LINE_RE = re.compile(
    r"([^\s:]+):([0-9]+)\t([^\S\t]*[^\s:]+:[0-9]+(?:[^\S\t]+[^\s:]+:[0-9]+)*[^\S\t]*)"
)
TIME_LIMIT = 2**63  # times are stored as int64


class Cascade(NamedTuple):
    """One cascade as plain values, as ``corpus.cascades`` lists them."""

    initiator: str
    start_time: int
    events: list  # (node id, absolute time) pairs, sorted by time, initiator excluded


class CascadeCorpus:
    """Cascades as arrays over a sorted id table.

    - ``ids``: every id seen (initiator or event), sorted; a node's dense
      index is its position here, so indices are stable for a given id set
      regardless of line order.
    - ``initiator`` (int32) and ``start_time`` (int64): one per cascade.
    - ``offsets`` (int64, one more than the cascades): cascade i's events
      are ``node_idx[offsets[i]:offsets[i+1]]`` (int32 node indices) and
      the same slice of ``times`` (int64).

    Within a cascade, events are sorted by time, no node repeats and the
    initiator does not appear. build_corpus establishes these invariants;
    the constructor takes arrays that already hold them. Influencer
    indices are dense over the sorted initiator ids.

    ``reader`` says what read a corpus that load_cascades returns: ``"c"``
    for the native scanner, ``"python"`` for parse_cascades. It is None for
    any other corpus.
    """

    reader = None

    def __init__(self, ids, initiator, start_time, offsets, node_idx, times):
        self.ids = ids
        self.initiator = initiator
        self.start_time = start_time
        self.offsets = offsets
        self.node_idx = node_idx
        self.times = times

    @property
    def n_cascades(self):
        return len(self.start_time)

    @property
    def n_nodes(self):
        return len(self.ids)

    @property
    def n_influencers(self):
        return len(self.influencers)

    @property
    def cascades(self):
        """Every cascade as a Cascade, built from the arrays in one pass."""
        ids, offsets = self.ids, self.offsets.tolist()
        events = list(zip([ids[v] for v in self.node_idx.tolist()], self.times.tolist()))
        spans = zip(self.initiator.tolist(), self.start_time.tolist(), offsets, offsets[1:])
        return [Cascade(ids[u], start, events[a:b]) for u, start, a, b in spans]

    @cached_property
    def influencers(self):
        """Node index of each influencer, in influencer-index order."""
        return sorted_distinct(self.initiator)

    def cascade_influencers(self):
        """Influencer index of each cascade's initiator."""
        return np.searchsorted(self.influencers, self.initiator)

    def sizes(self):
        return np.diff(self.offsets)

    def node_ids(self):
        return list(self.ids)

    def influencer_ids(self):
        return [self.ids[v] for v in self.influencers.tolist()]

    @cached_property
    def node_index(self):
        return {nid: i for i, nid in enumerate(self.ids)}

    def take(self, selection):
        """Corpus of the cascades at positions ``selection``, in that order.

        The id table shrinks to the ids those cascades use.
        """
        sizes = self.sizes()[selection]
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        events = np.repeat(self.offsets[:-1][selection] - offsets[:-1], sizes)
        events += np.arange(offsets[-1])
        return _reindexed(
            self.ids,
            self.initiator[selection],
            self.start_time[selection],
            offsets,
            self.node_idx[events],
            self.times[events],
        )


def _reindexed(ids, initiator, start_time, offsets, node_idx, times):
    """Corpus whose id table keeps only the ids in use: _over the positions
    that the initiators and events index."""
    used = np.zeros(len(ids), dtype=bool)
    used[initiator] = True
    used[node_idx] = True
    return _over(ids, np.flatnonzero(used).tolist(), initiator, start_time, offsets, node_idx,
                 times)


def _over(ids, used, initiator, start_time, offsets, node_idx, times):
    """Corpus over the id table ``[ids[v] for v in used]`` sorted, where
    ``used`` lists every position of ``ids`` in use. take's used ids are
    already in order, so its sort is one linear pass."""
    kept = sorted(used, key=ids.__getitem__)
    remap = np.empty(len(ids), dtype=np.int32)
    remap[kept] = np.arange(len(kept), dtype=np.int32)
    return CascadeCorpus(
        [ids[v] for v in kept],
        remap[initiator],
        start_time,
        offsets,
        remap[node_idx],
        times,
    )


def build_corpus(ids, initiator, start_time, offsets, node_idx, times):
    """Corpus from raw cascades over an id table in any order.

    ``ids`` holds distinct strings; ``initiator`` and ``node_idx`` index
    into it, and the other arrays are laid out as in CascadeCorpus. Events
    are sorted by time (stable), a repeated participant keeps only its
    earliest occurrence, and the initiator is dropped from its own events
    (it is already infected at the start). The caller has checked that no
    event precedes its cascade's start and that every cascade has some
    participant other than its initiator.

    _canonical_events does this. Then the ids are sorted and the indices
    remapped.
    """
    initiator = np.asarray(initiator, dtype=np.int32)
    offsets = np.asarray(offsets, dtype=np.int64)
    node_idx = np.asarray(node_idx, dtype=np.int32)
    times = np.asarray(times, dtype=np.int64)
    events = _canonical_events(len(ids), initiator, offsets, node_idx, times)
    return _reindexed(ids, initiator, np.asarray(start_time, dtype=np.int64), *events)


def _canonical_events(n_ids, initiator, offsets, node_idx, times):
    """(offsets, node_idx, times) of the raw cascades' canonical events over
    ``n_ids`` ids: per cascade, its events sorted by time (stable), each
    node's first event only, and none of its initiator.

    The native library's ``canonical_events`` finds them in one pass that
    sorts only the cascades whose times descend somewhere; where there is
    no library, or it refuses the arrays, _numpy_events gives the same
    arrays.
    """
    lib = _native.load()
    if lib is not None:
        out = np.empty_like(offsets), np.empty_like(node_idx), np.empty_like(times)
        kept = lib.canonical_events(initiator, offsets, node_idx, times, *out)
        if kept >= 0:
            return out[0], out[1][:kept], out[2][:kept]
    return _numpy_events(n_ids, initiator, offsets, node_idx, times)


def _numpy_events(n_ids, initiator, offsets, node_idx, times):
    """_canonical_events in numpy: a stable sort of the events by cascade and
    time, then a mask of each node's first event in its cascade."""
    sizes = np.diff(offsets)
    owner = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    # A stable sort of keys already in order is the identity, so the sort
    # runs only when some cascade's times descend somewhere.
    if np.any((times[1:] < times[:-1]) & (owner[1:] == owner[:-1])):
        order = np.lexsort((times, owner))  # stable: equal times keep input order
        owner, node_idx, times = owner[order], node_idx[order], times[order]
    keep = np.zeros(len(owner), dtype=bool)
    keep[first_occurrences(owner * n_ids + node_idx)] = True
    keep &= node_idx != initiator[owner]
    new_offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[keep], minlength=len(sizes)), out=new_offsets[1:])
    return new_offsets, node_idx[keep], times[keep]


def _parse_token(token, line_number, what):
    parts = token.split(":")
    if len(parts) != 2:
        raise MalformedLine(f"bad {what} token {token!r}", line_number)
    node, time = parts
    if not ID_RE.match(node):
        raise MalformedLine(f"bad node id {node!r}", line_number)
    if not _TIME_RE.match(time):
        raise MalformedLine(f"bad time {time!r} in {token!r}", line_number)
    return node


def _parse_line_slowly(line, line_number):
    """Raise the error of the first bad field or token, read token by
    token, of a line that _LINE_RE rejected. The token reading accepts
    exactly the lines the pattern accepts, so the last raise is a guard.
    """
    fields = line.split("\t")
    if len(fields) != 2:
        raise MalformedLine(
            f"expected '<initiator> TAB <events>', got {len(fields)} field(s)",
            line_number,
        )
    initiator = _parse_token(fields[0], line_number, "initiator")
    tokens = fields[1].split()
    if not tokens:
        raise EmptyCascade(f"cascade started by {initiator} has no events", line_number)
    for token in tokens:
        _parse_token(token, line_number, "event")
    raise MalformedLine("not a cascade line", line_number)


def _content_lines(lines):
    """(1-based line number, line less its line break) of each of ``lines``
    that is neither blank nor a comment (first non-blank character ``#``)."""
    for line_number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        head = line.lstrip()
        if head and not head.startswith("#"):
            yield line_number, line


def _time(digits, line_number):
    """The value of a time's digits past their leading zeros, as the scanner reads it."""
    value = digits.lstrip("0")
    if len(value) > 19:
        raise MalformedLine(f"time {value[:19]}... does not fit in 64 bits", line_number)
    return int(value or "0")


class _Interner(dict):
    """Id -> position in first-seen order; a lookup of a new id adds it."""

    def __missing__(self, key):
        self[key] = position = len(self)
        return position


def parse_cascades(lines):
    """Parse a cascade log into a corpus.

    ``lines`` is any iterable of strings (an open file works). Raises
    MalformedLine / TimeOrderViolation / EmptyCascade with the 1-based line
    number of the first offending line.
    """
    index = _Interner()
    initiators = array("i")
    starts = array("q")
    offsets = array("q", [0])
    nodes = array("i")
    times = array("q")
    for line_number, line in _content_lines(lines):
        match = _LINE_RE.fullmatch(line)
        if match is None:
            _parse_line_slowly(line, line_number)  # raises the line's first error
        initiator, start, body = match.groups()
        tokens = body.replace(":", " ").split()
        names = tokens[0::2]
        try:
            start, stamps = int(start), list(map(int, tokens[1::2]))
        except ValueError:  # past int()'s digit limit, which counts leading zeros
            start, *stamps = (_time(t, line_number) for t in [start, *tokens[1::2]])
        latest = max(stamps)
        if start >= TIME_LIMIT or latest >= TIME_LIMIT:
            raise MalformedLine(
                f"time {max(start, latest)} does not fit in 64 bits", line_number
            )
        if min(stamps) < start:
            k = next(k for k, t in enumerate(stamps) if t < start)
            raise TimeOrderViolation(
                f"event {names[k]}:{stamps[k]} precedes start time {start}",
                line_number,
            )
        if names.count(initiator) == len(names):
            raise EmptyCascade(
                f"cascade started by {initiator} has no events after validation",
                line_number,
            )
        initiators.append(index[initiator])
        starts.append(start)
        nodes.extend(map(index.__getitem__, names))
        times.extend(stamps)
        offsets.append(len(nodes))
    return build_corpus(
        list(index),
        np.frombuffer(initiators, dtype=np.int32),
        np.frombuffer(starts, dtype=np.int64),
        np.frombuffer(offsets, dtype=np.int64),
        np.frombuffer(nodes, dtype=np.int32),
        np.frombuffer(times, dtype=np.int64),
    )


def serialize_cascades(corpus):
    """Render a corpus back to the one-cascade-per-line text format."""
    ids = corpus.ids
    tokens = [f"{ids[v]}:{t}" for v, t in zip(corpus.node_idx.tolist(), corpus.times.tolist())]
    offsets = corpus.offsets.tolist()
    out = [
        f"{ids[u]}:{start}\t" + " ".join(tokens[a:b])
        for u, start, a, b in zip(
            corpus.initiator.tolist(), corpus.start_time.tolist(), offsets, offsets[1:]
        )
    ]
    return "\n".join(out) + "\n" if out else ""


def _room(data):
    """A bound on the lines, ids and events of a text file ``data`` in a
    scanner's strict form: every cascade initiator, event and edge line
    takes at least 4 bytes, "u:0" or "u" and "v" with the byte after it,
    but for the file's last, which may end without a line break. Pages of
    the room that the scanner never writes are never resident."""
    return len(data) // 4 + 1


def _decoded_ids(data, id_offset, id_length, count):
    """The first ``count`` ids a scanner found in ``data``, as str."""
    spans = zip(id_offset[:count].tolist(), id_length[:count].tolist())
    return [data[at : at + length].decode("ascii") for at, length in spans]


def _scan(lib, data):
    """The arguments of build_corpus for the log ``data`` (bytes), read by
    the native scanner, and whether the log is canonical (see _native.c),
    so that build_corpus would keep every event in place; None if the log
    is not in the scanner's strict form, which parse_cascades reads the
    same way."""
    # events and ids each fit in the room, and every cascade has two of them
    max_events = _room(data)
    max_cascades = max_events // 2
    initiator = np.empty(max_cascades, dtype=np.int32)
    start = np.empty(max_cascades, dtype=np.int64)
    offsets = np.empty(max_cascades + 1, dtype=np.int64)
    node_idx = np.empty(max_events, dtype=np.int32)
    times = np.empty(max_events, dtype=np.int64)
    id_offset = np.empty(max_events, dtype=np.int64)
    id_length = np.empty(max_events, dtype=np.int32)
    n, n_ids, canonical = lib.scan_cascades(data, initiator, start, offsets, node_idx, times,
                                            id_offset, id_length)
    if n < 0:
        return None
    ids = _decoded_ids(data, id_offset, id_length, n_ids)
    events = int(offsets[n])
    # the per-cascade arrays are copied, so that the room left over is freed
    starts, offsets = start[:n].copy(), offsets[: n + 1].copy()
    return (ids, initiator[:n], starts, offsets, node_idx[:events], times[:events]), canonical


def load_cascades(path):
    """Read a cascade log into a corpus, as parse_cascades reads its lines.

    The native scanner reads a log in its strict ASCII form; any other log,
    and every log when the library is missing, goes through
    parse_cascades, which raises every format error. ``corpus.reader``
    says which one read it. A canonical log, such as every log the package
    writes, uses every id it holds, so it skips build_corpus and _over
    sorts all its ids, without _reindexed's mask of the ids in use.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    lib = _native.load()
    scanned = None if lib is None else _scan(lib, data)
    if scanned is None:
        corpus = parse_cascades(text_lines(data))
        corpus.reader = "python"
        return corpus
    del data  # build_corpus needs the memory more
    (ids, *arrays), canonical = scanned
    corpus = _over(ids, range(len(ids)), *arrays) if canonical else build_corpus(ids, *arrays)
    corpus.reader = "c"
    return corpus


def _render(lib, corpus):
    """serialize_cascades(corpus) as UTF-8 bytes, from the native writer;
    None if the corpus's arrays are not of the kinds and layout the writer
    reads (see _native.c) or not those of a valid corpus."""
    encoded = [nid.encode() for nid in corpus.ids]
    bounds = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded)), out=bounds[1:])
    return lib.write_cascades(
        b"".join(encoded), corpus.initiator, corpus.start_time, corpus.offsets, corpus.node_idx,
        corpus.times, bounds,
    )


def save_cascades(corpus, path):
    """Write ``corpus`` in the text format, the bytes of serialize_cascades."""
    lib = _native.load()
    data = None if lib is None else _render(lib, corpus)
    if data is None:
        data = serialize_cascades(corpus).encode()
    with atomic_write(path, "wb") as fh:
        fh.write(data)


def temporal_split(corpus, train_fraction):
    """Split a corpus into (train, test) by cascade start time.

    The earliest ceil(train_fraction * count) cascades form the train side;
    ties on start_time keep input order. Each side rebuilds its own indices.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0,1), got {train_fraction}")
    count = corpus.n_cascades
    if not count:
        raise DegenerateSplit("empty corpus")
    order = np.argsort(corpus.start_time, kind="stable")
    n_train = max(1, slack_ceil(train_fraction * count))
    if n_train == count:
        raise DegenerateSplit(
            f"{count} cascades at fraction {train_fraction} would leave "
            "an empty train or test side"
        )
    return corpus.take(order[:n_train]), corpus.take(order[n_train:])


def reach_pairs(corpus):
    """Sorted distinct (initiator, participant) pairs of a corpus.

    Returns two int64 arrays of node indices, ordered by initiator, then
    by participant: each participant of the cascades a node started,
    once per initiator.
    """
    owner = np.repeat(corpus.initiator.astype(np.int64), corpus.sizes())
    pairs = sorted_distinct(owner * corpus.n_nodes + corpus.node_idx)
    return np.divmod(pairs, corpus.n_nodes)


def initiator_stats(train, test):
    """Per-node activity/success table over a train/test corpus pair.

    Returns the sorted ids seen in either corpus and a dict of int64
    columns aligned with them, keyed by their ``stats`` TSV field names in
    TSV order. Initiation and participation are counted disjointly; the
    test measures are the number of test cascades started, their
    cumulative size, and the distinct nodes appearing in them.
    """
    ids = sorted(set(train.ids).union(test.ids))
    row = {nid: i for i, nid in enumerate(ids)}
    sides = (
        (train, {
            "train_started": np.bincount(train.initiator, minlength=train.n_nodes),
            "train_participated": np.bincount(train.node_idx, minlength=train.n_nodes),
        }),
        (test, {
            "test_started": np.bincount(test.initiator, minlength=test.n_nodes),
            "test_total_size": np.bincount(
                test.initiator, weights=test.sizes(), minlength=test.n_nodes
            ),
            "test_dni": np.bincount(reach_pairs(test)[0], minlength=test.n_nodes),
        }),
    )
    columns = {}
    for corpus, per_node in sides:
        rows = [row[nid] for nid in corpus.ids]
        for name, counts in per_node.items():
            columns[name] = np.zeros(len(ids), dtype=np.int64)
            columns[name][rows] = counts
    return ids, columns


class EdgeList(NamedTuple):
    """Directed edges over an id table: edge k runs from ``ids[src[k]]`` to
    ``ids[dst[k]]`` (int32 indices), in the order they first appear. No
    edge is a self-loop and no pair repeats; the table may also hold ids
    of no edge."""

    ids: list
    src: np.ndarray
    dst: np.ndarray


def _distinct_edges(ids, src, dst):
    """EdgeList of the edges ``src[k] -> dst[k]`` (int32 index arrays) over
    ``ids``, less self-loops and all but the first of each repeated pair.

    Source v's edges, in order, form cascade v, whose initiator is v and
    whose times are the edges' positions, and _canonical_events keeps each
    target's first event. So it drops a self-loop as the initiator's own
    event and a repeated pair as a later event of its target, and sorts
    nothing, since the times ascend within each cascade.
    """
    n = len(ids)
    order = np.argsort(src, kind="stable").astype(np.int64, copy=False)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    _, _, times = _canonical_events(n, np.arange(n, dtype=np.int32), offsets, dst[order], order)
    kept = np.sort(times)
    return EdgeList(ids, src[kept], dst[kept])


def edge_list(pairs):
    """EdgeList of (src id, dst id) pairs, less self-loops and repeats."""
    index = _Interner()
    ends = np.array([index[node] for pair in pairs for node in pair], dtype=np.int32)
    return _distinct_edges(list(index), *ends.reshape(-1, 2).T)


def parse_edges(lines):
    """Parse an edge list into every (src id, dst id) pair it reads, in line
    order, as the native scanner reads them; edge_list drops self-loops and
    repeats."""
    edges = []
    for line_number, line in _content_lines(lines):
        fields = line.split("\t")
        if len(fields) != 2:
            raise MalformedLine("expected '<src> TAB <dst>'", line_number)
        src, dst = fields
        if not ID_RE.match(src) or not ID_RE.match(dst):
            raise MalformedLine(f"bad node id in {line!r}", line_number)
        edges.append((src, dst))
    return edges


def load_edges(path):
    """Read an edge list into an EdgeList, edge_list(parse_edges(lines)).

    The native scanner reads a file in its strict ASCII form; any other
    file, and every file when the library is missing, goes through
    parse_edges, which raises every format error. Both read the same pairs
    and ids in the same order, and _distinct_edges keeps them distinct, so
    the EdgeList does not depend on which one read the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    lib = _native.load()
    if lib is not None:
        max_edges = _room(data)  # and two ids per edge
        src, dst = np.empty(max_edges, dtype=np.int32), np.empty(max_edges, dtype=np.int32)
        id_offset = np.empty(2 * max_edges, dtype=np.int64)
        id_length = np.empty(2 * max_edges, dtype=np.int32)
        n, n_ids = lib.scan_edges(data, src, dst, id_offset, id_length)
        if n >= 0:
            ids = _decoded_ids(data, id_offset, id_length, n_ids)
            return _distinct_edges(ids, src[:n], dst[:n])
    return edge_list(parse_edges(text_lines(data)))


def save_edges(edges, path):
    """Write an EdgeList as one ``src TAB dst`` line per edge, in its order."""
    ids = edges.ids
    with atomic_write(path) as fh:
        for u, v in zip(edges.src.tolist(), edges.dst.tolist()):
            fh.write(f"{ids[u]}\t{ids[v]}\n")


def derive_edges(corpus):
    """EdgeList of the initiator-to-participant edges of a corpus, over
    its id table, each pair once, in order of first appearance.

    A corpus holds no self-loop, since no cascade lists its initiator.
    Gives cascade-only datasets something to feed graph baselines.
    """
    return _distinct_edges(corpus.ids, np.repeat(corpus.initiator, corpus.sizes()),
                           corpus.node_idx)
