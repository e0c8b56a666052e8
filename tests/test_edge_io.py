"""Edge lists: the native edge scanner against parse_edges, and the k-core
peel of the arrays it gives against networkx.

load_edges reads a file with the native scanner when it is in the strict
form (ID TAB ID lines, empty lines and '#' comments in column 0, each
ending in "\\n" or "\\r\\n"), and with parse_edges otherwise. The scanner
must read the pairs parse_edges reads, in their order. On any file,
load_edges must give the EdgeList of edge_list(parse_edges(lines)), its id
table, sources and targets, or raise the same exception class with the
same message and line number.
"""

import os
import re
import tempfile

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iminfector import _native, cascades
from iminfector._util import first_occurrences, text_lines
from iminfector.cascades import (
    _decoded_ids,
    _distinct_edges,
    _room,
    derive_edges,
    edge_list,
    load_edges,
    parse_edges,
)
from iminfector.evaluation import kcore_ranking
from iminfector.exceptions import CascadeFormatError
from iminfector.synth import generate_corpus
from test_cascade_io import one_buffer
from test_columnar_equivalence import read_lines, refused

STRICT_EDGES = b"a\tb\r\nb\ta\n# a comment\tx\n\na\ta\na\tb\nc#\t~!\nb\tc"
IDS = ["a", "b", "c#", "~!", "0", "x_y"]
# lines off the strict form: the Python parser reads, skips or refuses each
ODD_LINES = ["   ", "\t", "  # indented", "a", "a\tb\tc", "a\t", "\tb", "a b\tc", "a\tb ",
             " a\tb", "é\tb", "a:1\tb", "a\x00\tb", "a\x0bb\tc", "# café", "#\x7f"]


@st.composite
def edge_files(draw):
    """Edge lists of strict lines (self-loops and repeated pairs among
    them), comments, blank and whitespace-only lines, wrong field counts
    and bytes the strict form refuses, with any line break, now and then
    with a byte that is not UTF-8."""
    pair = st.tuples(st.sampled_from(IDS), st.sampled_from(IDS)).map("\t".join)
    line = st.one_of(pair, st.sampled_from(["", "#", "# u\tv"]), st.sampled_from(ODD_LINES))
    odd = draw(st.booleans())
    lines = draw(st.lists(line if odd else st.one_of(pair, pair, st.sampled_from(["", "#"])),
                          max_size=8))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (newline.join(lines) + (newline if draw(st.booleans()) else "")).encode()
    if data and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


STRICT_LINE = re.compile(rb"(|#[\t\x20-\x7e]*|[\x21-\x39\x3b-\x7e]+\t[\x21-\x39\x3b-\x7e]+)\Z")


def is_strict(data):
    """Whether ``data`` is an edge list in the scanner's strict form."""
    *lines, last = data.split(b"\n")
    lines = [line[:-1] if line.endswith(b"\r") else line for line in lines]
    return all(STRICT_LINE.match(line) for line in [*lines, last])


def edge_pairs(edges):
    """An EdgeList's edges as (src id, dst id) pairs, in its order."""
    return [(edges.ids[u], edges.ids[v]) for u, v in zip(edges.src.tolist(), edges.dst.tolist())]


def edge_table(edges):
    """An EdgeList's id table, sources and targets, as plain lists."""
    assert (edges.src.dtype, edges.dst.dtype) == (np.int32, np.int32)
    return edges.ids, edges.src.tolist(), edges.dst.tolist()


def outcome(read, path):
    try:
        return read(path)
    except CascadeFormatError as exc:
        return type(exc), str(exc), exc.line_number


def counting_parse_edges(monkeypatch):
    """The calls load_edges makes to parse_edges."""
    calls = []

    def parse(lines):
        calls.append(lines)
        return parse_edges(lines)

    monkeypatch.setattr(cascades, "parse_edges", parse)
    return calls


def read_file_of(data, read):
    """What ``read`` makes of a file holding ``data``, or its format error."""
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        return outcome(read, path)
    finally:
        os.unlink(path)


def scanned_pairs(lib, data):
    """The (src id, dst id) pairs the native scanner reads in ``data``, in
    line order; None if it gives up."""
    arrays = scan_edges_room(data)
    n, n_ids = lib.scan_edges(data, *arrays)
    if n < 0:
        return None
    ids = _decoded_ids(data, arrays[2], arrays[3], n_ids)
    return [(ids[u], ids[v]) for u, v in zip(arrays[0][:n].tolist(), arrays[1][:n].tolist())]


def assert_edges_read_alike(data, native_library):
    want = read_file_of(data, lambda path: edge_table(edge_list(parse_edges(read_lines(path)))))
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_parse_edges(mp)
        got = read_file_of(data, lambda path: edge_table(load_edges(path)))
    assert got == want
    # the scanner reads exactly the strict files, and the pairs parse_edges reads
    assert len(calls) == (native_library is None or not is_strict(data))
    if native_library is not None and is_strict(data):
        assert scanned_pairs(native_library, data) == parse_edges(text_lines(data))


def test_strict_edges_read_by_the_scanner(native_library):
    assert is_strict(STRICT_EDGES)
    assert_edges_read_alike(STRICT_EDGES, native_library)
    want = [("a", "b"), ("b", "a"), ("c#", "~!"), ("b", "c")]
    assert read_file_of(STRICT_EDGES, lambda path: edge_pairs(load_edges(path))) == want


@settings(max_examples=400, deadline=None)
@given(edge_files())
def test_load_edges_matches_parse_edges(native_library, data):
    assert_edges_read_alike(data, native_library)


def scan_edges_room(data, edges=None, ids=None):
    """scan_edges's arrays for ``data``: room for ``edges`` and ``ids``, or
    the room load_edges gives."""
    edges = _room(data) if edges is None else edges
    ids = 2 * _room(data) if ids is None else ids
    return [np.zeros(edges, np.int32), np.zeros(edges, np.int32), np.zeros(ids, np.int64),
            np.zeros(ids, np.int32)]


def edge_logs():
    """Edge lists for the scanner, by name: strict ones, one past the
    hash table's first growth, and ones it gives up on."""
    return {
        "strict": STRICT_EDGES,
        "empty": b"",
        "3,000 distinct ids": b"".join(b"u%d\tv%d\n" % (k, k) for k in range(1500)),
        "ids sharing 8 bytes": b"".join(b"%s%d\t%d%s\n" % (b"x" * 9, k, k, b"y" * 9)
                                        for k in range(40)),
        "a lone CR": b"a\tb\rb\tc\n",
        "a space": b"a b\tc\n",
        "three fields": b"a\tb\tc\n",
        "a comment with a non-ASCII byte": b"# \xc3\xa9\na\tb\n",
    }


def short_edge_scans(lib, data):
    """scan_edges arguments for ``data`` one entry short of the edges or
    of the ids it holds; none if the scanner does not read ``data``."""
    n, n_ids = lib.scan_edges(data, *scan_edges_room(data))
    if n < 0:
        return []
    assert lib.scan_edges(data, *scan_edges_room(data, n, n_ids)) == (n, n_ids)
    cases = [scan_edges_room(data, n - 1, n_ids)] if n else []
    return cases + ([scan_edges_room(data, n, n_ids - 1)] if n_ids else [])


def assert_misfit_edge_scans_refused(lib):
    """scan_edges gives up on arrays it does not take, those that share
    memory among them, and writes none of them."""
    arrays = scan_edges_room(STRICT_EDGES)
    misfits = {
        "int64 src": [arrays[0].astype(np.int64), *arrays[1:]],
        "dst one short": [arrays[0], arrays[1][:-1], *arrays[2:]],
        "strided id_offset": [*arrays[:2], np.repeat(arrays[2], 2)[::2], arrays[3]],
        "id_length one short": [*arrays[:3], arrays[3][:-1]],
        "2-D src": [arrays[0].reshape(1, -1), *arrays[1:]],
        "src and dst in one buffer": one_buffer(arrays, 0, 1),
        "id_offset and id_length in one buffer": one_buffer(arrays, 2, 3),
    }
    read_only = np.zeros_like(arrays[1])
    read_only.setflags(write=False)
    misfits["read-only dst"] = [arrays[0], read_only, *arrays[2:]]
    for what, args in misfits.items():
        before = [a.copy() for a in args]
        assert lib.scan_edges(STRICT_EDGES, *args) == (-1, 0), what
        for a, b in zip(args, before):
            np.testing.assert_array_equal(a, b, err_msg=what)


def test_edge_scanner_gives_up_short_of_room_or_on_misfit_arrays(built_library):
    for name, data in edge_logs().items():
        cases = short_edge_scans(built_library, data)
        assert bool(cases) == (is_strict(data) and data != b""), name
        for args in cases:
            assert built_library.scan_edges(data, *args) == (-1, 0), name
    assert_misfit_edge_scans_refused(built_library)


def networkx_ranking(pairs):
    g = nx.Graph()
    g.add_edges_from(pairs)
    return sorted(nx.core_number(g).items(), key=lambda kv: (-kv[1], kv[0]))


def test_kcore_of_loaded_edges_matches_networkx(native_library):
    rng = np.random.default_rng(23)
    for trial in range(12):
        n = int(rng.integers(2, 200))
        ends = rng.integers(0, n, size=(int(rng.integers(1, 4 * n)), 2))
        ends[: n // 10] = ends[: n // 10, :1]  # self-loops, dropped
        lines = [f"n{u}\tn{v}" for u, v in ends.tolist()]
        lines += lines[: len(lines) // 5]  # repeated pairs, dropped
        data = "\n".join(lines).encode()
        assert_edges_read_alike(data, native_library)
        edges = read_file_of(data, load_edges)
        # networkx takes each pair once, but no self-loop
        pairs = [(u, v) for u, v in parse_edges(data.decode().split("\n")) if u != v]
        if not pairs:
            continue
        want = networkx_ranking(pairs)
        assert kcore_ranking(edges) == want, trial
        assert kcore_ranking(edge_list(pairs)) == want


def reference_distinct_edges(ids, src, dst):
    """_distinct_edges's edges as a sort of the pairs' keys finds them: the
    pairs other than self-loops, each at its first position."""
    src, dst = np.asarray(src, np.int32), np.asarray(dst, np.int32)
    kept = np.flatnonzero(src != dst)
    kept = kept[first_occurrences(src[kept].astype(np.int64) * len(ids) + dst[kept])]
    return ids, src[kept].tolist(), dst[kept].tolist()


def edge_cases():
    """(ids, src, dst) of edges to keep distinct, by name."""
    rng = np.random.default_rng(29)
    wide = rng.integers(0, 40, (2, 3000))
    return {
        "no edge": (["a"], [], []),
        "a single edge, src > dst": (["a", "b"], [1], [0]),
        "self-loops": (["a", "b", "c"], [0, 1, 1, 2, 2, 0], [0, 1, 2, 2, 1, 1]),
        "one pair many times": (["a", "b", "c"], [1] * 50 + [0, 1], [2] * 50 + [1, 2]),
        "both directions": (["a", "b", "c"], [2, 1, 2, 0, 1], [1, 2, 1, 2, 2]),
        "ids on no edge": ([f"n{k}" for k in range(10)], [7, 2, 7, 9], [2, 7, 2, 9]),
        "3,000 edges over 40 ids": ([f"n{k}" for k in range(40)], *wide),
        "one source holds every edge": ([f"n{k}" for k in range(40)], np.full(3000, 5),
                                        wide[1]),
        "one id, only self-loops": (["a"], [0, 0, 0], [0, 0, 0]),
    }


def edge_list_file(ids, src, dst):
    """An edge list file's bytes for the edges, one line each, every id in
    the table listed first as a self-loop so that the scanner's table is
    ids."""
    pairs = [(v, v) for v in range(len(ids))] + list(zip(np.asarray(src).tolist(),
                                                         np.asarray(dst).tolist()))
    return "".join(f"{ids[u]}\t{ids[v]}\n" for u, v in pairs).encode()


@pytest.mark.parametrize("library", [True, False], ids=["c", "numpy"])
def test_edge_pass_matches_first_occurrences(native_library, library):
    with pytest.MonkeyPatch.context() as mp:
        if library and native_library is not None:
            mp.setattr(cascades, "first_occurrences", refused)
        elif not library:
            mp.setattr(_native, "load", lambda: None)
        for name, (ids, src, dst) in edge_cases().items():
            want = reference_distinct_edges(ids, src, dst)
            got = _distinct_edges(ids, np.asarray(src, np.int32), np.asarray(dst, np.int32))
            assert (got.src.dtype, got.dst.dtype) == (np.int32, np.int32), name
            assert (got.ids, got.src.tolist(), got.dst.tolist()) == want, name
            pairs = [(ids[u], ids[v]) for u, v in zip(*want[1:])]
            assert edge_pairs(read_file_of(edge_list_file(ids, src, dst), load_edges)) == pairs
            given_pairs = [(ids[u], ids[v]) for u, v in zip(list(src), list(dst))]
            assert edge_pairs(edge_list(given_pairs)) == pairs, name
        rng = np.random.default_rng(37)
        for trial in range(4):
            corpus = generate_corpus(rng, n_nodes=int(rng.integers(60, 300)),
                                     n_cascades=int(rng.integers(30, 300)), n_planted=2,
                                     n_lures=2)
            src = np.repeat(corpus.initiator, corpus.sizes())
            edges = derive_edges(corpus)
            assert (edges.ids, edges.src.tolist(), edges.dst.tolist()) == reference_distinct_edges(
                corpus.ids, src, corpus.node_idx), trial


# the self-loops put ids in the table that no edge uses, and b -> a repeats
SELF_LOOPS_FIRST = b"a\ta\nx\tx\nb\ta\nb\ta\nc\tb\n"


def test_load_edges_alike_with_and_without_library(built_library):
    # the id table too, not only the edges: the ids of a self-loop stay in
    # it, and in the same place, whichever reader read the file
    files = {"self-loops first": SELF_LOOPS_FIRST}
    for name, (ids, src, dst) in edge_cases().items():
        files[name] = edge_list_file(ids, src, dst)
        pairs = zip(np.asarray(src).tolist(), np.asarray(dst).tolist())
        files[name + ", bare"] = "".join(f"{ids[u]}\t{ids[v]}\n" for u, v in pairs).encode()
    for name, data in files.items():
        with pytest.MonkeyPatch.context() as mp:
            calls = counting_parse_edges(mp)
            scanned = read_file_of(data, lambda path: edge_table(load_edges(path)))
            assert not calls, name
            mp.setattr(_native, "load", lambda: None)
            parsed = read_file_of(data, lambda path: edge_table(load_edges(path)))
            assert len(calls) == 1, name
        assert scanned == parsed, name
    assert read_file_of(SELF_LOOPS_FIRST, lambda path: edge_table(load_edges(path))) == (
        ["a", "x", "b", "c"], [2, 3], [0, 2])
