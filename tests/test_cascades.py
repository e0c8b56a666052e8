"""Cascade parsing, splitting, and bookkeeping."""

import numpy as np
import pytest

from iminfector.cascades import (
    Cascade,
    derive_edges,
    edge_list,
    initiator_stats,
    load_cascades,
    parse_cascades,
    parse_edges,
    save_cascades,
    save_edges,
    serialize_cascades,
    temporal_split,
)
from iminfector.exceptions import (
    DegenerateSplit,
    EmptyCascade,
    MalformedLine,
    TimeOrderViolation,
)
from iminfector.synth import generate_corpus

GOOD = "u1:10\tv1:12 v2:11 v3:20\n"

def test_parse_single_line():
    corpus = parse_cascades([GOOD])
    assert len(corpus.cascades) == 1
    c = corpus.cascades[0]
    assert c.initiator == "u1"
    assert c.start_time == 10
    # events sorted by time, not input order
    assert c.events == [("v2", 11), ("v1", 12), ("v3", 20)]
    assert corpus.sizes().tolist() == [3]


def test_comments_and_blank_lines_skipped():
    corpus = parse_cascades(["# header\n", "\n", "   \n", GOOD, "  # trailing comment\n"])
    assert len(corpus.cascades) == 1


def test_malformed_line_reports_line_number():
    with pytest.raises(MalformedLine) as exc:
        parse_cascades([GOOD, "u2:5 v9:6\n"])  # space instead of tab
    assert "line 2:" in str(exc.value)
    assert exc.value.line_number == 2


def test_bad_tokens_rejected():
    for bad in ["u1\tv1:12\n", "u1:x\tv1:12\n", "u1:10\tv1:-3\n", "u1:10\tv:1:2\n", ":5\tv1:6\n"]:
        with pytest.raises(MalformedLine):
            parse_cascades([bad])


def test_event_before_start_rejected():
    with pytest.raises(TimeOrderViolation) as exc:
        parse_cascades(["u1:10\tv1:9\n"])
    assert exc.value.line_number == 1


def test_initiator_only_cascade_rejected():
    # the initiator reposting itself is dropped, leaving nothing
    with pytest.raises(EmptyCascade):
        parse_cascades(["u1:10\tu1:11\n"])
    with pytest.raises(EmptyCascade):
        parse_cascades(["u1:10\t\n"])


def test_duplicate_participant_keeps_earliest():
    corpus = parse_cascades(["u1:0\tv1:5 v1:3 v2:4\n"])
    c = corpus.cascades[0]
    assert c.events == [("v1", 3), ("v2", 4)]


def test_equal_times_allowed_and_stable():
    corpus = parse_cascades(["u1:7\tv1:7 v2:7 v3:7\n"])
    assert [node for node, _ in corpus.cascades[0].events] == ["v1", "v2", "v3"]


def test_serialize_round_trip():
    rng = np.random.default_rng(0)
    lines = []
    for i in range(40):
        start = int(rng.integers(0, 1000))
        n = int(rng.integers(1, 6))
        nodes = rng.choice([f"v{j}" for j in range(30)], size=n, replace=False)
        events = " ".join(f"{v}:{start + int(rng.integers(1, 50))}" for v in nodes)
        lines.append(f"u{i}:{start}\t{events}\n")
    corpus = parse_cascades(lines)
    again = parse_cascades(serialize_cascades(corpus).splitlines(keepends=True))
    assert again.cascades == corpus.cascades


def test_save_load_round_trip(tmp_path):
    corpus = parse_cascades([GOOD, "u2:0\tv9:1\n"])
    path = tmp_path / "c.txt"
    save_cascades(corpus, path)
    assert load_cascades(path).cascades == corpus.cascades


def test_indices_cover_sorted_ids():
    corpus = parse_cascades(["b:0\tz:1 a:2\n", "a:5\tb:6\n"])
    # node universe includes initiators and participants, sorted ids
    assert corpus.node_ids() == ["a", "b", "z"]
    assert corpus.influencer_ids() == ["a", "b"]
    assert corpus.node_index == {"a": 0, "b": 1, "z": 2}


def test_temporal_split_counts():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        corpus = parse_cascades(
            [f"u{i}:{int(rng.integers(0, 1000))}\tv{i}:2000\n" for i in range(n)]
        )
        frac = float(rng.uniform(0.1, 0.9))
        try:
            train, test = temporal_split(corpus, frac)
        except DegenerateSplit:
            continue
        assert len(train.cascades) + len(test.cascades) == n
        assert len(train.cascades) == int(np.ceil(frac * n - 1e-9))
        last_train = max(c.start_time for c in train.cascades)
        first_test = min(c.start_time for c in test.cascades)
        assert last_train <= first_test


def test_temporal_split_degenerate():
    one = parse_cascades(["u:0\tv:1\n"])
    with pytest.raises(DegenerateSplit):
        temporal_split(one, 0.5)
    with pytest.raises(ValueError):
        temporal_split(one, 1.0)
    with pytest.raises(DegenerateSplit):
        temporal_split(parse_cascades([]), 0.5)


STATS_FIELDS = ["train_started", "train_participated", "test_started", "test_total_size", "test_dni"]


def test_initiator_stats():
    train = parse_cascades(["a:0\tb:1 c:2\n", "a:5\tb:6\n", "b:7\tc:8\n"])
    test = parse_cascades(["a:10\tc:11 d:12\n", "a:20\tc:21\n"])
    ids, columns = initiator_stats(train, test)
    assert ids == ["a", "b", "c", "d"]
    assert list(columns) == STATS_FIELDS
    assert all(column.dtype == np.int64 for column in columns.values())
    assert columns["train_started"].tolist() == [2, 1, 0, 0]
    assert columns["train_participated"].tolist() == [0, 2, 2, 0]
    # a starts both test cascades: sizes 2 + 1, union {c, d}
    assert columns["test_started"].tolist() == [2, 0, 0, 0]
    assert columns["test_total_size"].tolist() == [3, 0, 0, 0]
    assert columns["test_dni"].tolist() == [2, 0, 0, 0]


def random_side(rng, names, n_cascades):
    lines = []
    for _ in range(n_cascades):
        initiator = names[int(rng.integers(0, len(names)))]
        start = int(rng.integers(0, 100))
        others = [x for x in names if x != initiator]
        chosen = rng.choice(others, size=int(rng.integers(1, 6)), replace=False)
        events = " ".join(f"{v}:{start + int(rng.integers(0, 9))}" for v in chosen)
        lines.append(f"{initiator}:{start}\t{events}\n")
    return lines


def stats_from_views(train, test):
    """Stats rows counted one Cascade view at a time."""
    rows = {}

    def row(nid):
        return rows.setdefault(nid, dict.fromkeys(STATS_FIELDS, 0))

    for c in train.cascades:
        row(c.initiator)["train_started"] += 1
        for v, _ in c.events:
            row(v)["train_participated"] += 1
    reached = {}
    for c in test.cascades:
        row(c.initiator)["test_started"] += 1
        row(c.initiator)["test_total_size"] += len(c.events)
        reached.setdefault(c.initiator, set()).update(v for v, _ in c.events)
        for v, _ in c.events:
            row(v)
    for nid, nodes in reached.items():
        rows[nid]["test_dni"] = len(nodes)
    return rows


def test_initiator_stats_match_cascade_views():
    rng = np.random.default_rng(23)
    for trial in range(60):
        # overlapping pools; t0 starts only train cascades, t29 only test ones
        train = parse_cascades(
            random_side(rng, [f"t{i}" for i in range(20)], int(rng.integers(1, 15)))
            + ["t0:0\tt1:1\n"]
        )
        test = parse_cascades(
            random_side(rng, [f"t{i}" for i in range(10, 30)], int(rng.integers(1, 15)))
            + ["t29:0\tt28:1 t10:1\n"]
        )
        assert "t0" not in test.ids and "t29" not in train.ids
        want = stats_from_views(train, test)
        ids, columns = initiator_stats(train, test)
        assert ids == sorted(want)
        for name in STATS_FIELDS:
            assert columns[name].tolist() == [want[nid][name] for nid in ids], name


def edge_pairs(edges):
    """An EdgeList's edges as (src id, dst id) pairs, in its order."""
    return [(edges.ids[u], edges.ids[v]) for u, v in zip(edges.src.tolist(), edges.dst.tolist())]


def first_reach_pairs(corpus):
    """Each (initiator id, participant id) pair of a corpus at its first
    appearance, cascades and events in log order."""
    ids, offsets = corpus.ids, corpus.offsets.tolist()
    pairs = (
        (ids[u], ids[v])
        for u, a, b in zip(corpus.initiator.tolist(), offsets, offsets[1:])
        for v in corpus.node_idx[a:b].tolist()
    )
    return list(dict.fromkeys(pairs))


def test_edges_parse_and_derive(tmp_path):
    edges = parse_edges(["a\tb\n", "b\ta\n", "a\ta\n", "# x\n", "a\tc\n", "a\tb\n"])
    # every pair in line order; edge_list drops the self-loop and the repeat
    assert edges == [("a", "b"), ("b", "a"), ("a", "a"), ("a", "c"), ("a", "b")]
    assert edge_pairs(edge_list(edges)) == [("a", "b"), ("b", "a"), ("a", "c")]
    corpus = parse_cascades(["a:0\tb:1 c:2\n", "b:0\tc:1\n"])
    derived = derive_edges(corpus)
    assert set(edge_pairs(derived)) == {("a", "b"), ("a", "c"), ("b", "c")}
    # the order is the bytes of synth --edges-out
    path = tmp_path / "edges.txt"
    for seed in range(10):
        corpus = generate_corpus(np.random.default_rng(seed))
        want = first_reach_pairs(corpus)
        derived = derive_edges(corpus)
        assert edge_pairs(derived) == want, seed
        save_edges(derived, path)
        assert path.read_text() == "".join(f"{u}\t{v}\n" for u, v in want), seed


def test_cascade_is_frozen():
    c = parse_cascades(["u:0\tv:1\n"]).cascades[0]
    assert isinstance(c, Cascade)
    with pytest.raises(AttributeError):
        c.initiator = "w"
