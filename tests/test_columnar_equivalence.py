"""The array corpus and stream against the object-per-event code they replaced,
and the native cascade scanner against the Python parser.

reference_parse and reference_build_training_stream are the earlier
implementations, kept here as oracles: they build one frozen object per
event and one object per training pair. On any input, the array code must
give the same ids, cascades and pairs, or raise the same exception class
with the same message. reference_build_corpus is build_corpus before it
skipped the sort of events already in time order and found each event's
first occurrence with first_occurrences instead of np.unique; build_corpus
must match it both through the native library's canonical_events and
through its numpy path.

load_cascades reads a log with the native scanner when it is in the
scanner's strict form, and with parse_cascades otherwise. On any file it
must give the id table and the five arrays that parse_cascades gives, or
raise the same exception class with the same message and line number.
"""

import itertools
import os
import re
import tempfile
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iminfector import _native, cascades, context
from iminfector._util import first_occurrences, read_lines, slack_ceil
from iminfector.cascades import (
    _reindexed,
    _scan,
    _with_sorted_ids,
    build_corpus,
    load_cascades,
    parse_cascades,
    serialize_cascades,
)
from iminfector.context import build_training_stream
from iminfector.exceptions import (
    CascadeFormatError,
    EmptyCascade,
    MalformedLine,
    TimeOrderViolation,
)
from iminfector.synth import generate_corpus

# ---- the previous implementation, verbatim apart from names ----

_ID_RE = re.compile(r"[^\s:]+\Z")
_TIME_RE = re.compile(r"[0-9]+\Z")


@dataclass(frozen=True)
class RefEvent:
    node: str
    time: int


@dataclass(frozen=True)
class RefCascade:
    initiator: str
    start_time: int
    events: tuple

    @property
    def size(self):
        return len(self.events)


class RefCorpus:
    def __init__(self, cascades):
        self.cascades = cascades
        nodes = set()
        initiators = set()
        for c in cascades:
            nodes.add(c.initiator)
            initiators.add(c.initiator)
            nodes.update(e.node for e in c.events)
        self.node_index = {nid: i for i, nid in enumerate(sorted(nodes))}
        self.influencer_index = {nid: i for i, nid in enumerate(sorted(initiators))}


def reference_make_cascade(initiator, start_time, events, line_number=None):
    for node, time in events:
        if time < start_time:
            raise TimeOrderViolation(
                f"event {node}:{time} precedes start time {start_time}",
                line_number,
            )
    ordered = sorted(events, key=lambda nt: nt[1])
    seen = {initiator}
    cleaned = []
    for node, time in ordered:
        if node in seen:
            continue
        seen.add(node)
        cleaned.append(RefEvent(node, time))
    if not cleaned:
        raise EmptyCascade(
            f"cascade started by {initiator} has no events after validation",
            line_number,
        )
    return RefCascade(initiator, start_time, tuple(cleaned))


def _reference_token(token, line_number, what):
    parts = token.split(":")
    if len(parts) != 2:
        raise MalformedLine(f"bad {what} token {token!r}", line_number)
    node, time = parts
    if not _ID_RE.match(node):
        raise MalformedLine(f"bad node id {node!r}", line_number)
    if not _TIME_RE.match(time):
        raise MalformedLine(f"bad time {time!r} in {token!r}", line_number)
    return node, int(time)


def reference_parse(lines):
    cascades = []
    for line_number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise MalformedLine(
                f"expected '<initiator> TAB <events>', got {len(fields)} field(s)",
                line_number,
            )
        initiator, start_time = _reference_token(fields[0], line_number, "initiator")
        tokens = fields[1].split()
        if not tokens:
            raise EmptyCascade(f"cascade started by {initiator} has no events", line_number)
        events = [_reference_token(t, line_number, "event") for t in tokens]
        cascades.append(reference_make_cascade(initiator, start_time, events, line_number))
    return RefCorpus(cascades)


def reference_build_corpus(ids, initiator, start_time, offsets, node_idx, times):
    initiator = np.asarray(initiator, dtype=np.int32)
    node_idx = np.asarray(node_idx, dtype=np.int32)
    times = np.asarray(times, dtype=np.int64)
    sizes = np.diff(offsets)
    owner = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    order = np.lexsort((times, owner))  # stable: equal times keep input order
    owner, node_idx, times = owner[order], node_idx[order], times[order]
    _, first = np.unique(owner * len(ids) + node_idx, return_index=True)
    keep = np.zeros(len(owner), dtype=bool)
    keep[first] = True
    keep &= node_idx != initiator[owner]
    new_offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[keep], minlength=len(sizes)), out=new_offsets[1:])
    return _reindexed(
        ids,
        initiator,
        np.asarray(start_time, dtype=np.int64),
        new_offsets,
        node_idx[keep],
        times[keep],
        sort_ids=True,
    )


def reference_build_training_stream(train, oversample, rng_seed):
    """Pairs as ("C", influencer, context) and ("S", influencer, size target)."""
    rng = np.random.default_rng(rng_seed)
    sizes = np.array([c.size for c in train.cascades], dtype=np.float64)
    m_min, m_max = sizes.min(), sizes.max()
    if m_max == m_min:
        targets = np.full(len(sizes), 0.5)
    else:
        targets = (sizes - m_min) / (m_max - m_min)
    stream = []
    for cascade, y_c in zip(train.cascades, targets):
        x = train.influencer_index[cascade.initiator]
        delays = np.array(
            [max(e.time - cascade.start_time, 1) for e in cascade.events], dtype=np.float64
        )
        weights = 1.0 / delays
        probs = weights / weights.sum()
        node_idx = np.array(
            [train.node_index[e.node] for e in cascade.events], dtype=np.int64
        )
        n_draws = max(1, slack_ceil(oversample * cascade.size))
        draws = rng.choice(node_idx, size=n_draws, replace=True, p=probs)
        stream.extend(("C", x, int(ctx)) for ctx in draws)
        stream.append(("S", x, float(y_c)))
    return stream


# ---- comparison ----


def summary(corpus):
    cascades = [(c.initiator, c.start_time, c.events) for c in corpus.cascades]
    return corpus.node_ids(), corpus.influencer_ids(), cascades


def reference_summary(corpus):
    cascades = [
        (c.initiator, c.start_time, [(e.node, e.time) for e in c.events])
        for c in corpus.cascades
    ]
    nodes = sorted(corpus.node_index, key=corpus.node_index.get)
    influencers = sorted(corpus.influencer_index, key=corpus.influencer_index.get)
    return nodes, influencers, cascades


def outcome(parse, summarize, lines):
    try:
        return summarize(parse(lines))
    except CascadeFormatError as exc:
        return type(exc), str(exc)


ARRAYS = ("initiator", "start_time", "offsets", "node_idx", "times")


def corpus_state(corpus):
    """The id table and the five arrays of a corpus, with their dtypes."""
    return corpus.ids, [(str(a.dtype), a.tolist()) for a in map(corpus.__getattribute__, ARRAYS)]


def read_outcome(read, path):
    try:
        return corpus_state(read(path))
    except CascadeFormatError as exc:
        return type(exc), str(exc), exc.line_number


def assert_readers_agree(path):
    """load_cascades reads ``path`` as parse_cascades does alone; returns
    the reader load_cascades took, or None if the file is a format error."""
    want = read_outcome(lambda p: parse_cascades(read_lines(p)), path)
    readers = []
    got = read_outcome(lambda p: readers.append(load_cascades(p)) or readers[0], path)
    assert got == want
    return readers[0].reader if readers else None


def stream_pairs(stream):
    """The pairs of ``stream`` in stream order: ("C", influencer, context)
    for a context pair, ("S", influencer, size target) for a size pair."""
    context, offsets = stream.context.tolist(), stream.offsets.tolist()
    pairs = []
    for u, y, a, b in zip(stream.influencer.tolist(), stream.size_target.tolist(), offsets,
                          offsets[1:]):
        pairs += [("C", u, v) for v in context[a:b]]
        pairs.append(("S", u, y))
    return pairs


# ---- generated logs ----

IDS = ["u", "v", "w", "a1", "x_y", "é", "中文", "s00"]
SEPARATORS = [" ", "  ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u3000"]
NOISE = ["", "   ", "# comment", "  # u:1\tv:2", "\u3000", "#"]
EDIT_CHARS = ["\t", ":", " ", "\r", "\n", "\u2003", "#", "x", "9", "-", "\x00", "é", "\u0663"]


@st.composite
def cascade_line(draw):
    initiator = draw(st.sampled_from(IDS))
    start = draw(st.integers(0, 10**5))
    n = draw(st.integers(1, 6))
    tokens = [
        f"{draw(st.sampled_from(IDS))}:{draw(st.integers(start, start + 20))}"
        for _ in range(n)
    ]
    body = tokens[0]
    for token in tokens[1:]:
        body += draw(st.sampled_from(SEPARATORS)) + token
    lead = draw(st.sampled_from(["", " ", "\xa0"]))
    trail = draw(st.sampled_from(["", " ", "\r", "\u3000"]))
    return f"{initiator}:{start}\t{lead}{body}{trail}"


valid_logs = st.lists(st.one_of(cascade_line(), cascade_line(), st.sampled_from(NOISE)), max_size=8)


@st.composite
def mutated_logs(draw):
    lines = draw(valid_logs)
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        kinds = ["insert", "delete", "replace", "separator", "duplicate", "self", "early"]
        kind = draw(st.sampled_from(kinds))
        pos = draw(st.integers(0, len(line)))
        char = draw(st.sampled_from(EDIT_CHARS))
        spaces = [k for k, ch in enumerate(line) if ch.isspace()]
        head = re.match(r"[^:]*:([0-9]+)", line)
        # around the start time: one tick early is the first bad time
        near_start = max(0, int(head.group(1)) + draw(st.integers(-2, 2))) if head else 0
        if kind == "separator" and spaces:
            pos = draw(st.sampled_from(spaces))
            line = line[:pos] + char + line[pos + 1 :]
        elif kind == "insert":
            line = line[:pos] + char + line[pos:]
        elif kind == "delete":
            line = line[:pos] + line[pos + 1 :]
        elif kind == "replace":
            line = line[:pos] + char + line[pos + 1 :]
        elif kind == "duplicate" and line.split():
            line = line + " " + draw(st.sampled_from(line.split()))
        elif kind == "self":
            line = line + " " + line.split(":")[0] + ":" + str(draw(st.integers(0, 10**5)))
        else:
            line = line + f" {draw(st.sampled_from(IDS))}:{near_start}"
        lines[i] = line
    return lines


@settings(max_examples=400, deadline=None)
@given(mutated_logs())
def test_parse_matches_reference(lines):
    lines = [line + "\n" for line in lines]
    assert outcome(parse_cascades, summary, lines) == outcome(
        reference_parse, reference_summary, lines
    )


@settings(max_examples=150, deadline=None)
@given(mutated_logs(), st.sampled_from(["\n", "\r\n", "\r"]))
def test_load_matches_reference_text_mode(lines, newline):
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(newline.join(lines).encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            want = outcome(reference_parse, reference_summary, fh)
        assert outcome(load_cascades, summary, path) == want
        assert_readers_agree(path)
    finally:
        os.unlink(path)


# ---- logs in the native scanner's strict form, with its refusals ----

# '#' may appear in an id, but a line whose first byte is '#' is a comment
STRICT_IDS = ["u", "v", "w", "a1", "x_y", "s00", "q#", "~!", "0", "#h"]
LIMIT = 2**63


@st.composite
def strict_line(draw):
    initiator = draw(st.sampled_from(STRICT_IDS))
    start = draw(st.sampled_from([1, 2, 7, 30, 0, LIMIT - 3, LIMIT]))
    n = draw(st.integers(1, 5))
    # mostly at or after the start; one tick before it, or 2**63, refuses
    times = [start + draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, -1])) for _ in range(n)]
    # the initiator alone refuses too
    ids = [draw(st.sampled_from(STRICT_IDS + [initiator])) for _ in range(n)]

    def stamp(t):
        return "0" * draw(st.integers(0, 2)) + str(max(t, 0))

    events = " ".join(f"{v}:{stamp(t)}" for v, t in zip(ids, times))
    return f"{initiator}:{stamp(start)}\t{events}"


strict_logs = st.tuples(
    st.lists(st.one_of(strict_line(), strict_line(), st.sampled_from(["", "#", "# u:1\tv:2 !~"])),
             max_size=5),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
)


def assert_strict_log_read_alike(native_library, log):
    lines, newline, final_newline = log
    text = newline.join(lines) + (newline if final_newline else "")
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("ascii"))
        reader = assert_readers_agree(path)
    finally:
        os.unlink(path)
    # every strict log the parser takes, the scanner takes too
    if native_library is not None:
        assert reader in ("c", None)


@settings(max_examples=300, deadline=None)
@given(strict_logs)
def test_scanner_reads_strict_logs_as_the_parser(native_library, log):
    assert_strict_log_read_alike(native_library, log)


# Ids of 1-40 bytes, many of one length that share their first or their
# last 8 bytes and differ in one byte, and times of 17-20 digits, leading
# zeros included, around 2**63 - 1. The scanner's hash slots compare an
# id's last 8 bytes and its length before its other bytes, which matters
# when the probes of two such ids meet, so a log holds a few of them or up
# to 300; and it checks a time for overflow only after 18 digits.
ID_BYTES = "ab#~9_"


@st.composite
def long_ids(draw):
    core = draw(st.text(st.sampled_from(ID_BYTES), min_size=1, max_size=32))
    flips = [core[:k] + b + core[k + 1 :] for k, c in enumerate(core) for b in ID_BYTES if b != c]
    pool = [core[:1], core, *(f"prefix08{c}" for c in [core, *flips]),
            *(f"{c}suffix08" for c in [core, *flips])]
    few = st.lists(st.sampled_from(pool), min_size=2, max_size=6, unique=True)
    return draw(st.one_of(few, st.permutations(pool)))


LONG_TIMES = [0, 7, 10**16, 10**17 - 1, 10**18 - 1, 10**18, LIMIT - 2, LIMIT - 1, LIMIT,
              LIMIT + 1, 10**19, 2**64 + 5, 10**20 - 1]


@st.composite
def long_id_line(draw, ids):
    def stamp(value):
        return str(value).zfill(draw(st.integers(17, 20)))

    # half the lines hold only times the parser takes, so long lines parse too
    valid = draw(st.booleans())
    start = 0 if valid else draw(st.sampled_from([7, 10**16, LIMIT - 2]))
    times = [t for t in LONG_TIMES if t < LIMIT] if valid else LONG_TIMES
    events = draw(st.permutations(ids))[: draw(st.sampled_from([1, 2, 4, len(ids)]))]
    tokens = " ".join(f"{v}:{stamp(draw(st.sampled_from(times)))}" for v in events)
    return f"{draw(st.sampled_from(ids))}:{stamp(start)}\t{tokens}"


long_id_logs = long_ids().flatmap(
    lambda ids: st.tuples(st.lists(st.one_of(long_id_line(ids), st.just("#")), max_size=5),
                          st.sampled_from(["\n", "\r\n"]), st.booleans())
)


@settings(max_examples=300, deadline=None)
@given(long_id_logs)
def test_scanner_reads_long_ids_and_long_times_as_the_parser(native_library, log):
    assert_strict_log_read_alike(native_library, log)


@st.composite
def canonical_line(draw):
    """A strict line in canonical form: distinct participants other than
    the initiator, at times that do not descend."""
    ids = draw(st.permutations(STRICT_IDS))
    n = draw(st.integers(1, len(ids) - 1))
    start = draw(st.sampled_from([0, 1, 7, LIMIT - 20]))
    steps = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    times = itertools.accumulate(steps, initial=start)
    next(times)
    events = " ".join(f"{v}:{t}" for v, t in zip(ids[1:], times))
    return f"{ids[0]}:{start}\t{events}"


canonical_strict_logs = st.tuples(
    st.lists(st.one_of(canonical_line(), canonical_line(), canonical_line(), strict_line(),
                       st.sampled_from(["", "#"])), max_size=5),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
)


def is_canonical(text):
    """Whether every cascade line of a strict log is in canonical form."""
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, body = line.split("\t")
        initiator, start = head.split(":")
        seen, last = {initiator}, int(start)
        for token in body.split(" "):
            node, time = token.split(":")
            if node in seen or int(time) < last:
                return False
            seen.add(node)
            last = int(time)
    return True


@settings(max_examples=300, deadline=None)
@given(canonical_strict_logs)
def test_canonical_flag_is_exact_and_its_corpus_is_build_corpus(native_library, log):
    if native_library is None:
        return
    lines, newline, final_newline = log
    text = newline.join(lines) + (newline if final_newline else "")
    scanned = _scan(native_library, text.encode("ascii"))
    assume(scanned is not None)
    raw, canonical = scanned
    assert canonical == is_canonical(text)
    if canonical:
        assert corpus_state(_with_sorted_ids(*raw)) == corpus_state(build_corpus(*raw))


# times on byte boundaries, up to the largest a log holds: the library's
# radix sort takes one pass per byte of a cascade's range of times
BYTE_TIMES = [0, 1, 255, 256, 65_535, 65_536, 2**40, 2**63 - 2, 2**63 - 1]


@st.composite
def raw_cascades(draw):
    """build_corpus arguments: ids, and cascades of 0 to 300 events, past
    the library's insertion-sort cutoff, with times in any order or in time
    order within each cascade. Times come from three values (heavy ties),
    from BYTE_TIMES or from the whole range [0, 2**63). An initiator is
    now and then among its own events, and one id, or a cascade of its
    initiator only, leaves cascades that deduplication empties."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_ids = draw(st.sampled_from([1, 2, 3, 8, 400]))
    ids = [f"n{k}" for k in rng.permutation(n_ids).tolist()]
    sizes = draw(st.lists(st.one_of(st.integers(0, 6), st.sampled_from([15, 16, 17, 40]),
                                    st.integers(0, 300)), max_size=6))
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    node_idx = rng.integers(0, n_ids, offsets[-1])
    times = draw(st.sampled_from([
        lambda n: rng.choice([3, 4, 5], n),
        lambda n: rng.choice(BYTE_TIMES, n),
        lambda n: rng.integers(0, 2**63 - 1, n, endpoint=True),
    ]))(offsets[-1])
    if draw(st.booleans()):
        times = np.sort(times)  # then in order within every cascade too
    initiator = rng.integers(0, n_ids, len(sizes))
    for i in np.flatnonzero((np.array(sizes) > 0) & (rng.random(len(sizes)) < 0.3)).tolist():
        initiator[i] = node_idx[offsets[i]]  # among its own events
    starts = [0] * len(sizes)
    return ids, initiator.tolist(), starts, offsets, node_idx.tolist(), times.tolist()


@settings(max_examples=300, deadline=None)
@given(raw=raw_cascades())
def test_build_corpus_matches_plain_sort(native_library, raw):
    want = corpus_state(reference_build_corpus(*raw))
    with pytest.MonkeyPatch.context() as mp:
        # the library's canonical_events, where there is a library
        if native_library is not None:
            mp.setattr(cascades, "_numpy_events", refused)
        assert corpus_state(build_corpus(*raw)) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        assert corpus_state(build_corpus(*raw)) == want


def refused(*args):
    """Stands in for a numpy path that the native library should have spared."""
    raise AssertionError("the library refused arrays it should take")


def test_build_corpus_skips_the_sort_of_events_in_time_order(monkeypatch):
    raw = (["a", "b", "c"], [0, 1], [0, 0], np.array([0, 3, 5]), [1, 2, 1, 0, 2], [1, 1, 2, 0, 7])

    def no_sort(keys):
        raise AssertionError("sorted events were sorted again")

    with monkeypatch.context() as mp:
        # the numpy path: the library's pass never calls np.lexsort
        mp.setattr(_native, "load", lambda: None)
        mp.setattr(np, "lexsort", no_sort)
        got = build_corpus(*raw)
    assert corpus_state(got) == corpus_state(reference_build_corpus(*raw))


def canonical_args(raw):
    """canonical_events's arrays for build_corpus's arguments ``raw``, its
    outputs filled with -7, and its id count."""
    ids, initiator, _, offsets, node_idx, times = raw
    arrays = [np.asarray(initiator, np.int32), np.asarray(offsets, np.int64),
              np.asarray(node_idx, np.int32), np.asarray(times, np.int64)]
    return [*arrays, *(np.full_like(a, -7) for a in arrays[1:]), len(ids)]


CANONICAL_RAW = (["a", "b", "c", "d"], [0, 1, 3], [0, 0, 0], np.array([0, 4, 4, 22]),
                 [1, 2, 1, 0, 2, 3, *[0, 1, 2, 3] * 4], [9, 2**63 - 1, 0, 4, 7, 7, *range(16, 0, -1)])


def canonical_misfits():
    """canonical_events arguments it refuses, by what is wrong with them."""
    args = canonical_args(CANONICAL_RAW)
    _, offsets, node_idx, times, out_offsets, out_node_idx, out_times, _ = args

    def change(k, value):
        return [*args[:k], value, *args[k + 1 :]]

    read_only = out_times.copy()
    read_only.setflags(write=False)
    return {
        "node index past the ids": change(7, 3),
        "negative node index": change(2, np.where(node_idx == 3, -1, node_idx).astype(np.int32)),
        "negative initiator": change(0, np.array([0, -1, 3], np.int32)),
        "offsets descending": change(1, np.array([0, 4, 3, 22])),
        "offsets not from 0": change(1, np.array([1, 4, 4, 22])),
        "offsets short of the events": change(1, np.array([0, 4, 4, 21])),
        "offsets one short": change(1, offsets[:-1]),
        "int64 node_idx": change(2, node_idx.astype(np.int64)),
        "strided times": change(3, np.repeat(times, 2)[::2]),
        "out_node_idx one short": change(5, out_node_idx[:-1]),
        "out_offsets one long": change(4, np.zeros(5, np.int64)),
        "read-only out_times": change(6, read_only),
        "out_offsets is offsets": change(4, offsets),
        "out_times is times": change(6, times),
        "out_node_idx over out_times": change(5, out_times.view(np.int32)[: len(node_idx)]),
        "2-D out_offsets": change(4, out_offsets.reshape(1, -1)),
        "negative id count": change(7, -1),
        "id count past 64 bits": change(7, 2**70),
    }


def canonical_raws():
    """build_corpus arguments for canonical_events: CANONICAL_RAW, no
    cascades, and 300-event cascades of times that span every byte."""
    rng = np.random.default_rng(3)
    offsets = np.array([0, 300, 301, 600, 616])
    node_idx = rng.integers(0, 50, 616).tolist()
    times = rng.integers(0, 2**63 - 1, 616, endpoint=True).tolist()
    return [CANONICAL_RAW, ([], [], [], np.array([0]), [], []),
            ([f"n{k}" for k in range(50)], [0, 1, 2, 3], [0] * 4, offsets, node_idx, times)]


def assert_canonical_events_checked(lib):
    """canonical_events keeps the canonical events of each raw, as the
    numpy path does, and refuses each misfit with -1, writing nothing."""
    for raw in canonical_raws():
        args = canonical_args(raw)
        kept = lib.canonical_events(*args)
        want = cascades._numpy_events(*[args[7], *args[:4]])
        assert [args[4].tolist(), args[5][:kept].tolist(), args[6][:kept].tolist()] == [
            w.tolist() for w in want]
    args = canonical_args(CANONICAL_RAW)
    for what, misfit in canonical_misfits().items():
        outputs = [a.copy() for a in misfit[4:7]]
        assert lib.canonical_events(*misfit) == -1, what
        for before, after in zip(outputs, misfit[4:7]):
            np.testing.assert_array_equal(before, after, err_msg=what)
    for bad in (args[:-1], [*args[:-1], 4.0]):
        with pytest.raises(TypeError):
            lib.canonical_events(*bad)


def test_canonical_events_refuses_misfits_and_writes_nothing(built_library):
    assert_canonical_events_checked(built_library)


def reference_first_occurrences(keys):
    return np.sort(np.unique(keys, return_index=True)[1])


@st.composite
def int_keys(draw):
    """A 1-D int32 or int64 array: empty, one key, all equal, or up to 400
    keys from a few values (many repeats) or from the dtype's whole range,
    negative keys included. Past 16 keys numpy's default sort is not stable."""
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    info = np.iinfo(dtype)
    values = draw(st.sampled_from([
        st.integers(-3, 3),
        st.integers(-1000, 1000),
        st.integers(int(info.min), int(info.max)),
    ]))
    n = draw(st.sampled_from([0, 1, draw(st.integers(2, 400))]))
    if draw(st.booleans()):
        return np.full(n, draw(values), dtype=dtype)
    return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(int_keys())
def test_first_occurrences_matches_unique(keys):
    got = first_occurrences(keys)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, reference_first_occurrences(keys))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_first_occurrences_matches_unique_on_long_runs(dtype):
    # 50,000 keys in runs of ~500, then of ~1: the sort reorders equal
    # keys, and each run's least position must still win
    rng = np.random.default_rng(5)
    for size, distinct in [(50_000, 50), (50_000, 40_000), (3, 1)]:
        keys = rng.integers(-distinct, distinct, size=size).astype(dtype)
        np.testing.assert_array_equal(first_occurrences(keys), reference_first_occurrences(keys))


@settings(max_examples=150, deadline=None)
@given(valid_logs, st.integers(0, 2**32 - 1), st.sampled_from([0.3, 1.0, 1.2, 2.5]))
def test_stream_matches_reference(lines, seed, oversample):
    try:
        reference = reference_parse(lines)
    except CascadeFormatError:
        assume(False)
    assume(reference.cascades)
    want = reference_build_training_stream(reference, oversample, seed)
    assert stream_pairs(build_training_stream(parse_cascades(lines), oversample, seed)) == want


def test_stream_matches_reference_on_synthetic_corpora():
    rng = np.random.default_rng(31)
    for trial in range(6):
        corpus = generate_corpus(rng, n_nodes=int(rng.integers(60, 400)), n_cascades=int(rng.integers(30, 300)),
                                 n_planted=2, n_lures=2)
        lines = serialize_cascades(corpus).splitlines()
        reference = reference_parse(lines)
        assert summary(corpus) == reference_summary(reference)
        for seed in rng.integers(0, 2**31, size=2).tolist():
            want = reference_build_training_stream(reference, 1.2, seed)
            assert stream_pairs(build_training_stream(corpus, 1.2, seed)) == want, trial


@st.composite
def stream_logs(draw):
    """Valid logs for the stream's draws: single-event cascades, all-equal
    delays (all at the start, or all at one later time), narrow and wide
    delays, events in time order or not, and now and then a cascade of
    10,000 events."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.sampled_from([1, 1, 2, 3, 8, 40, 10_000]), min_size=1, max_size=4))
    lines = []
    for size in sizes:
        pool = rng.choice(max(2 * size, 30), size + 1, replace=False)
        start = int(rng.integers(0, 1000))
        delays = draw(st.sampled_from(["zero", "equal", "narrow", "wide"]))
        if delays == "zero":
            times = np.full(size, start)
        elif delays == "equal":
            times = np.full(size, start + int(rng.integers(1, 50)))
        else:
            times = start + rng.integers(0, 50 if delays == "narrow" else 2**40, size)
        if draw(st.booleans()):
            times.sort()
        events = " ".join(f"n{v}:{t}" for v, t in zip(pool[1:].tolist(), times.tolist()))
        lines.append(f"n{pool[0]}:{start}\t{events}\n")
    return lines


@settings(max_examples=60, deadline=None)
@given(stream_logs(), st.integers(0, 2**32 - 1), st.floats(0.3, 2.5))
def test_native_draws_match_reference(numpy_calls, lines, seed, oversample):
    want = reference_build_training_stream(reference_parse(lines), oversample, seed)
    corpus = parse_cascades(lines)
    with pytest.MonkeyPatch.context() as mp:
        if numpy_calls:
            # the library's draws, never the loop's
            mp.setattr(context, "choice_contexts", None)
        assert stream_pairs(build_training_stream(corpus, oversample, seed)) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 13), min_size=1, max_size=8),
       st.sampled_from([1e-10, 0.05, 0.5, 1.0, 1.2, 1.25]), st.integers(0, 2**32 - 1))
def test_native_draw_counts_1_to_17_match_reference(numpy_calls, sizes, oversample, seed):
    # 1 to 17 draws per cascade, where a product of at most 1e-9 takes the
    # one draw every cascade keeps: the library searches 8 at a time, then
    # one at a time, so every remainder
    lines = [f"u{i}:5\t" + " ".join(f"n{k}:{5 + (3 * k + i) % 11}" for k in range(m)) + "\n"
             for i, m in enumerate(sizes)]
    assert all(0 <= slack_ceil(oversample * m) <= 17 for m in sizes)
    want = reference_build_training_stream(reference_parse(lines), oversample, seed)
    with pytest.MonkeyPatch.context() as mp:
        if numpy_calls:
            mp.setattr(context, "choice_contexts", None)
        assert stream_pairs(build_training_stream(parse_cascades(lines), oversample, seed)) == want
