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

from iminfector import _native
from iminfector.cascades import (
    CascadeCorpus,
    _render,
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
    "leading-zero times": (b"u:007\tv:0010 w:00007\n", "c"),
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
}


@pytest.mark.parametrize("case", list(TABLE_LOGS))
def test_scanner_hash_table_growth(tmp_path, native_library, case):
    path = tmp_path / "log.txt"
    path.write_text(TABLE_LOGS[case](), encoding="ascii")
    assert assert_readers_agree(path) == ("c" if native_library is not None else "python")


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


def test_writer_edge_cases(tmp_path, built_library):
    ids = ["a", "é", "中"]

    def corpus(initiator, start, offsets, node_idx, times):
        return CascadeCorpus(ids, *(np.array(a, dtype) for a, dtype in (
            (initiator, np.int32), (start, np.int64), (offsets, np.int64),
            (node_idx, np.int32), (times, np.int64))))

    for case in (
        corpus([], [], [0], [], []),  # no cascade: an empty file
        corpus([0, 1], [5, 0], [0, 0, 2], [2, 0], [7, -(2**63)]),  # no events, negative times
        corpus([2], [2**63 - 1], [0, 1], [1], [0]),
    ):
        assert saved(case, tmp_path / "c.txt") == serialize_cascades(case).encode()
    # arrays no corpus holds go to serialize_cascades, not past an array's end
    for bad in (
        corpus([3], [0], [0, 1], [0], [1]),
        corpus([0], [0], [0, 1], [-1], [1]),
        corpus([0], [0], [0, 2], [0], [1]),
        corpus([0], [0], [1, 0], [0], [1]),
        corpus([0], [0, 1], [0, 1], [0], [1]),
    ):
        assert _render(built_library, bad) is None
