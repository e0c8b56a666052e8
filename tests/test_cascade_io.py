"""The native cascade scanner and writer against the Python parser and formatter.

load_cascades takes the native scanner only for a log in its strict ASCII
form; every other log, and every log when the library is missing, goes
through parse_cascades. save_cascades renders through the native writer,
whose bytes must be those of serialize_cascades. The equivalence of the
two readers on generated and byte-mutated logs is in
test_columnar_equivalence.py and test_text_fuzz.py.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iminfector import _native, cascades
from iminfector.cascades import (
    CascadeCorpus,
    _render,
    _scan,
    build_corpus,
    load_cascades,
    save_cascades,
    serialize_cascades,
)
from iminfector.cli import main
from iminfector.exceptions import EmptyCascade, MalformedLine, TimeOrderViolation
from iminfector.synth import generate_corpus
from test_cli import package_env
from test_columnar_equivalence import assert_readers_agree

STRICT = b"u:1\tv:2 w:3\r\nv:5\tu:6\n# a comment: u:1\tv:2\n\nw:7\tu:9 v:8"
# (file bytes, the reader load_cascades takes, or the error both raise)
CASES = {
    "strict form": (STRICT, "c"),
    "non-ASCII byte in a comment": ("# café\nu:1\tv:2\n".encode(), "python"),
    "UTF-8 BOM": (b"\xef\xbb\xbfu:1\tv:2\n", "python"),
    "lone CR": (b"u:1\tv:2\rw:3\tv:4\n", "python"),
    "tab between events": (b"u:1\tv:2\tw:3\n", MalformedLine),
    "double space between events": (b"u:1\tv:2  w:3\n", "python"),
    "trailing space": (b"u:1\tv:2 \n", "python"),
    "leading whitespace": (b" u:1\tv:2\n", MalformedLine),
    "indented comment": (b"  # u:1\tv:2\nw:1\tv:2\n", "python"),
    "blank line of spaces": (b"u:1\tv:2\n   \n", "python"),
    "time of 2**63": (b"u:1\tv:9223372036854775808\n", MalformedLine),
    "time of 2**63 - 1": (b"u:1\tv:9223372036854775807\n", "c"),
    "time of 2**64 + 5, 5 in 64 bits": (b"u:1\tv:18446744073709551621\n", MalformedLine),
    "20-digit time of 2**63 - 1": (b"u:1\tv:09223372036854775807\n", "c"),
    "leading-zero times": (b"u:007\tv:0010 w:00007\n", "c"),
    # int() converts at most 4,300 digits, leading zeros among them
    "5,000 leading zeros": (b"u:" + b"0" * 5000 + b"1\tv:2\n", "c"),
    "a 5,000-digit time": (b"u:1\tv:1" + b"0" * 4999 + b"\n", MalformedLine),
    "event before its start": (b"u:5\tv:6 w:4\n", TimeOrderViolation),
    "initiator-only cascade": (b"u:1\tv:2\nu:1\tu:2 u:3\n", EmptyCascade),
    "'#' line that would parse as a cascade": (b"#u:1\tv:2\nw:1\tv:2\n", "c"),
    "'#' inside ids": (b"u#:1\t#v:2\n", "c"),
    "empty file": (b"", "c"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_each_fallback_trigger(tmp_path, native_library, case):
    data, want = CASES[case]
    path = tmp_path / "log.txt"
    path.write_bytes(data)
    reader = assert_readers_agree(path)
    if isinstance(want, str):
        assert reader == (want if native_library is not None else "python")
    else:
        assert reader is None
        with pytest.raises(want):
            load_cascades(path)


# Strict logs that grow the scanner's hash table, which starts at 1,024
# slots and doubles past half full, or probe it with many bytes per id.
TABLE_LOGS = {
    "20,000 distinct ids": lambda: "".join(f"u{k}:{k}\tv{k}:{k + 1}\n" for k in range(10_000)),
    "ids that differ only in their last byte": lambda: "".join(
        f"{'x' * 40}{chr(c)}:1\t{'x' * 40}{chr(c + 1)}:2\n" for c in range(0x21, 0x7E)
        if ":" not in (chr(c), chr(c + 1))
    ),
    "a 4 KB id": lambda: f"{'i' * 4096}:1\tv:2\nv:3\t{'i' * 4096}:4 {'i' * 4095}:5\n",
    "one id 100,000 times": lambda: "u:1\t" + " ".join(["v:2"] * 100_000) + "\n",
    # slots compare an id's last 8 bytes and its length before its bytes,
    # and times are checked for overflow only after 18 digits
    "ids sharing their first and last 8 bytes, at 19- and 20-digit times": lambda: "".join(
        f"prefix08{k}suffix08:{2**63 - 2 - k:019d}\tprefix08{k + 1}suffix08:{2**63 - 1:020d}\n"
        for k in range(2_000)
    ),
}


@pytest.mark.parametrize("case", list(TABLE_LOGS))
def test_scanner_hash_table_growth(tmp_path, native_library, case):
    path = tmp_path / "log.txt"
    path.write_text(TABLE_LOGS[case](), encoding="ascii")
    assert assert_readers_agree(path) == ("c" if native_library is not None else "python")


# The scanner's arguments after the log, with the kind of each, and the
# room that each one's length gives: cascades, cascades + 1, events or ids.
SCAN_ARRAYS = {
    "initiator": (np.int32, "cascades"), "start": (np.int64, "cascades"),
    "offsets": (np.int64, "offsets"), "node_idx": (np.int32, "events"),
    "times": (np.int64, "events"), "id_offset": (np.int64, "ids"),
    "id_length": (np.int32, "ids"),
}


def scan_arrays(room):
    """The scanner's arrays, with ``room`` entries of each kind of room."""
    return [np.zeros(room[kind], dtype) for dtype, kind in SCAN_ARRAYS.values()]


def changed(name, change):
    """A change of scan_arrays's array ``name`` by ``change``."""
    k = list(SCAN_ARRAYS).index(name)
    return lambda arrays: [*arrays[:k], change(arrays[k]), *arrays[k + 1 :]]


def one_buffer(arrays, first, second):
    """``arrays`` with arrays ``first`` and ``second`` cut from one buffer,
    each of its own kind and length, the second from the first's last 8
    bytes on: the two share memory."""
    a, b = arrays[first], arrays[second]
    at = (a.nbytes - 1) // 8 * 8
    shared = np.zeros(max(a.nbytes, at + b.nbytes), np.uint8)
    arrays = list(arrays)
    arrays[first] = shared[: a.nbytes].view(a.dtype)
    arrays[second] = shared[at : at + b.nbytes].view(b.dtype)
    return arrays


def sharing(first, second):
    """A change of scan_arrays that cuts its arrays ``first`` and ``second``
    from one buffer."""
    names = list(SCAN_ARRAYS)
    return lambda arrays: one_buffer(arrays, names.index(first), names.index(second))


def exact_room(lib, data):
    """The room scanning ``data`` takes: its cascades (and offsets), events
    and ids, and whether it is canonical; None if the scanner does not read
    ``data``."""
    scanned = _scan(lib, data)
    if scanned is None:
        return None
    (ids, initiator, _, _, node_idx, _), canonical = scanned
    n = len(initiator)
    return {"cascades": n, "offsets": n + 1, "events": len(node_idx), "ids": len(ids),
            "canonical": canonical}


def short_scans(lib, data):
    """Scanner arguments for ``data`` each one entry short somewhere: every
    array alone, and each room (cascades, events, ids) across its arrays;
    none if the scanner does not read ``data``."""
    room = exact_room(lib, data)
    if room is None:
        return []
    want = room["cascades"], room["ids"], room["canonical"]
    assert lib.scan_cascades(data, *scan_arrays(room)) == want
    cases = [changed(name, lambda array: array[:-1])(scan_arrays(room))
             for name, (_, kind) in SCAN_ARRAYS.items() if room[kind]]
    for kind in ("cascades", "events", "ids"):
        if room[kind]:
            short = {**room, kind: room[kind] - 1}
            short["offsets"] = short["cascades"] + 1
            cases.append(scan_arrays(short))
    return cases


def scanner_logs():
    """Every log of CASES and TABLE_LOGS as bytes, by name."""
    logs = {name: data for name, (data, _) in CASES.items()}
    return {**logs, **{name: make().encode("ascii") for name, make in TABLE_LOGS.items()}}


def read_only(array):
    array.setflags(write=False)
    return array


# Each makes the scanner's arrays ones it does not take: one of another
# kind, strided or read-only, or two that share memory, so that every array
# it writes shares memory with another in some case.
MISFIT_SCANS = {
    "int64 initiator": changed("initiator", lambda a: a.astype(np.int64)),
    "float times": changed("times", lambda a: a.astype(np.float64)),
    "strided node_idx": changed("node_idx", lambda a: np.repeat(a, 2)[::2]),
    "strided offsets": changed("offsets", lambda a: np.repeat(a, 2)[::2]),
    "read-only start": changed("start", read_only),
    "read-only id_length": changed("id_length", read_only),
    "initiator and node_idx in one buffer": sharing("initiator", "node_idx"),
    "start and offsets in one buffer": sharing("start", "offsets"),
    "times and id_offset in one buffer": sharing("times", "id_offset"),
    "id_offset and id_length in one buffer": sharing("id_offset", "id_length"),
}


GIVE_UP = (-1, 0, False)


def test_scanner_gives_up_short_of_room(built_library):
    for name, data in scanner_logs().items():
        for args in short_scans(built_library, data):
            assert built_library.scan_cascades(data, *args) == GIVE_UP, name


def assert_misfit_scans_refused(lib):
    """The scanner gives up on every MISFIT_SCANS case of STRICT's room and
    writes none of its arrays."""
    room = exact_room(lib, STRICT)
    for what, misfit in MISFIT_SCANS.items():
        arrays = misfit(scan_arrays(room))
        before = [a.copy() for a in arrays]
        assert lib.scan_cascades(STRICT, *arrays) == GIVE_UP, what
        for a, b in zip(arrays, before):
            np.testing.assert_array_equal(a, b, err_msg=what)


def test_scanner_gives_up_on_arrays_it_cannot_take(built_library):
    assert_misfit_scans_refused(built_library)


# A canonical log: in each cascade the times do not descend, no participant
# repeats and the initiator is not among the events.
CANONICAL = b"u:1\tv:2 w:2 x:5\r\nv:5\tu:6\n# a comment: u:1\tu:1\n\nw:7\tu:8 v:9 x:9\n"
# Each replaces one span of CANONICAL to break canonical form once, and
# keeps the log in the scanner's strict form.
NOT_CANONICAL = {
    "a repeated participant": (b"v:9 x:9\n", b"v:9 x:9 u:9\n"),
    "the initiator among its events": (b"v:5\tu:6\n", b"v:5\tu:6 v:6\n"),
    "a time one step back": (b"v:9 x:9", b"v:9 x:8"),
}


def canonical_logs():
    """CANONICAL and each of its NOT_CANONICAL mutations, by name."""
    logs = {"canonical": CANONICAL}
    for what, (old, new) in NOT_CANONICAL.items():
        assert CANONICAL.count(old) == 1, what
        logs[what] = CANONICAL.replace(old, new)
    return logs


def counting_build_corpus(monkeypatch):
    """The calls load_cascades makes to build_corpus, as they happen."""
    calls = []

    def build(*raw):
        calls.append(raw)
        return build_corpus(*raw)

    monkeypatch.setattr(cascades, "build_corpus", build)
    return calls


def test_canonical_logs_skip_build_corpus(tmp_path, built_library, monkeypatch):
    calls = counting_build_corpus(monkeypatch)
    path = tmp_path / "log.txt"
    for what, data in canonical_logs().items():
        canonical = what == "canonical"
        assert exact_room(built_library, data)["canonical"] == canonical, what
        path.write_bytes(data)
        del calls[:]
        assert assert_readers_agree(path) == "c", what
        # parse_cascades always builds its corpus; load_cascades only if
        # the log is not canonical
        assert len(calls) == 1 + (not canonical), what


def test_logs_the_package_writes_are_canonical(tmp_path, built_library):
    log, train, test = (tmp_path / name for name in ("log.txt", "train.txt", "test.txt"))
    assert main(["synth", "--nodes", "200", "--cascades", "300", "--rng-seed", "6",
                 "--out", str(log)]) == 0
    assert main(["split", "--cascades", str(log), "--train-out", str(train),
                 "--test-out", str(test)]) == 0
    logs = {path.name: path.read_bytes() for path in (log, train, test)}
    logs["saved"] = saved(load_cascades(log), tmp_path / "saved.txt")
    for name, data in logs.items():
        assert exact_room(built_library, data)["canonical"], name


def test_without_the_library_every_log_goes_through_the_parser(tmp_path, monkeypatch):
    path = tmp_path / "log.txt"
    path.write_bytes(STRICT)
    monkeypatch.setattr(_native, "load", lambda: None)
    assert assert_readers_agree(path) == "python"


def test_cascade_reader_in_every_manifest_that_reads_a_log(tmp_path, native_library, monkeypatch,
                                                           capsys):
    strict, loose = tmp_path / "strict.txt", tmp_path / "loose.txt"
    assert main(["synth", "--nodes", "60", "--cascades", "40", "--planted", "2", "--lures", "2",
                 "--out", str(strict)]) == 0
    loose.write_bytes(strict.read_bytes().replace(b" ", b"  "))
    fast = "c" if native_library is not None else "python"

    def readers(log, other=None):
        """The cascade_reader of each command that reads ``log`` (and ``other``)."""
        other = other or log
        out = tmp_path / "out"
        assert main(["pipeline", "--cascades", str(log), "--outdir", str(out),
                     "--embed-dim", "4", "--epochs", "1"]) == 0
        got = [json.loads((out / "manifest.json").read_text())["cascade_reader"]]
        for argv in (
            ["split", "--cascades", str(log), "--train-out", str(out / "a"),
             "--test-out", str(out / "b")],
            ["stats", "--train", str(log), "--test", str(other), "--out", str(out / "a")],
            ["train", "--cascades", str(log), "--embed-dim", "4", "--epochs", "1",
             "--out", str(out / "a")],
            ["evaluate", "--seeds", str(out / "seeds.txt"), "--test", str(log),
             "--out", str(out / "a")],
            ["baseline", "--method", "avgsize", "--train", str(log), "--out", str(out / "a")],
        ):
            assert main(argv) == 0, argv
            got.append(json.loads((out / "a.manifest.json").read_text())["cascade_reader"])
        capsys.readouterr()
        return got

    assert readers(strict) == [fast] * 6
    assert readers(loose) == ["python"] * 6
    # one log through the parser is enough
    assert readers(strict, loose)[2] == "python"
    monkeypatch.setattr(_native, "load", lambda: None)
    assert readers(strict) == ["python"] * 6
    capsys.readouterr()


def test_split_without_a_compiler_is_identical(tmp_path, built_library, capsys):
    log = tmp_path / "log.txt"
    assert main(["synth", "--nodes", "200", "--cascades", "300", "--rng-seed", "4",
                 "--out", str(log)]) == 0
    outputs = {}
    for name in ("c", "no-cc"):
        train, test = tmp_path / f"{name}-train.txt", tmp_path / f"{name}-test.txt"
        argv = ["split", "--cascades", str(log), "--train-out", str(train),
                "--test-out", str(test)]
        if name == "c":
            assert main(argv) == 0
        else:
            # a fresh process and a fresh cache: nothing to load, nothing to build with
            env = {**package_env(), "CC": "iminfector-no-such-cc",
                   "XDG_CACHE_HOME": str(tmp_path / "cache")}
            proc = subprocess.run([sys.executable, "-m", "iminfector", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            cache = tmp_path / "cache" / "iminfector"
            assert not cache.exists() or not [p for p in cache.iterdir() if p.suffix == ".so"]
        manifest = json.loads((tmp_path / f"{name}-train.txt.manifest.json").read_text())
        outputs[name] = train.read_bytes(), test.read_bytes(), manifest["cascade_reader"]
    capsys.readouterr()
    assert outputs["c"][:2] == outputs["no-cc"][:2]
    assert (outputs["c"][2], outputs["no-cc"][2]) == ("c", "python")


def saved(corpus, path):
    save_cascades(corpus, path)
    return path.read_bytes()


def test_writer_matches_serialize_on_synthetic_corpora(tmp_path, built_library):
    for seed in range(10):
        corpus = generate_corpus(np.random.default_rng(seed), n_nodes=200, n_cascades=150)
        assert saved(corpus, tmp_path / "c.txt") == serialize_cascades(corpus).encode(), seed


@st.composite
def corpora(draw):
    ids = draw(st.lists(st.text(st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc"),
                                              blacklist_characters=":"), min_size=1, max_size=4),
                        min_size=1, max_size=6, unique=True))
    sizes = draw(st.lists(st.integers(1, 5), max_size=6))
    n = sum(sizes)
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    index = st.integers(0, len(ids) - 1)
    return build_corpus(
        ids,
        draw(st.lists(index, min_size=len(sizes), max_size=len(sizes))),
        draw(st.lists(st.integers(0, 2**62), min_size=len(sizes), max_size=len(sizes))),
        offsets,
        draw(st.lists(index, min_size=n, max_size=n)),
        draw(st.lists(st.integers(2**62, 2**63 - 1), min_size=n, max_size=n)),
    )


@settings(max_examples=200, deadline=None)
@given(corpora())
def test_writer_matches_serialize_on_generated_corpora(native_library, corpus):
    want = serialize_cascades(corpus).encode()
    if native_library is not None:
        assert bytes(_render(native_library, corpus)) == want


WRITER_IDS = ["a", "é", "中"]


def writer_corpus(initiator, start, offsets, node_idx, times):
    """A corpus over WRITER_IDS; a list becomes an array of the corpus's
    kind for its place, an array stays as it is."""
    kinds = (np.int32, np.int64, np.int64, np.int32, np.int64)
    return CascadeCorpus(WRITER_IDS, *(
        a if isinstance(a, np.ndarray) else np.array(a, dtype)
        for a, dtype in zip((initiator, start, offsets, node_idx, times), kinds)
    ))


WRITER_EDGE_CASES = [
    writer_corpus([], [], [0], [], []),  # no cascade: an empty file
    writer_corpus([0, 1], [5, 0], [0, 0, 2], [2, 0], [7, -(2**63)]),  # no events, negative times
    writer_corpus([2], [2**63 - 1], [0, 1], [1], [0]),
]
# arrays no corpus holds go to serialize_cascades, not past an array's end
WRITER_BAD_INDICES = [
    writer_corpus([3], [0], [0, 1], [0], [1]),
    writer_corpus([0], [0], [0, 1], [-1], [1]),
    writer_corpus([0], [0], [0, 2], [0], [1]),
    writer_corpus([0], [0], [1, 0], [0], [1]),
    writer_corpus([0], [0, 1], [0, 1], [0], [1]),
    writer_corpus([0], [0], [0, 1], [0, 1], [1]),
    writer_corpus([0], [0], [0, 1, 1], [0], [1]),
]
# valid corpora whose arrays are of a kind or layout the writer does not
# read: save_cascades formats them in Python
WRITER_MISFITS = [
    writer_corpus([0], [0], [0, 1], [1], np.array([1.0])),
    writer_corpus([0], [0], [0, 2], np.array([1, 0, 2, 0], np.int32)[::2], [1, 2]),
]
# write_cascades's arguments for the last edge case, and a copy whose
# id_bounds end past id_bytes
ID_BYTES = "".join(WRITER_IDS).encode()
WRITER_ARGS = (ID_BYTES, np.array([2], np.int32), np.array([2**63 - 1]), np.array([0, 1]),
               np.array([1], np.int32), np.array([0]), np.array([0, 1, 3, 6]))
WRITER_BAD_BOUNDS = (*WRITER_ARGS[:-1], np.array([0, 1, 3, 7]))


def test_writer_edge_cases(tmp_path, built_library):
    for case in WRITER_EDGE_CASES + WRITER_MISFITS:
        assert saved(case, tmp_path / "c.txt") == serialize_cascades(case).encode()
    assert built_library.write_cascades(*WRITER_ARGS) == serialize_cascades(
        WRITER_EDGE_CASES[-1]).encode()
    for bad in WRITER_BAD_INDICES + WRITER_MISFITS:
        assert _render(built_library, bad) is None
    assert built_library.write_cascades(*WRITER_BAD_BOUNDS) is None
