"""Byte mutations of valid cascade, edge and seed files keep the CLI's exit codes.

``split`` and ``stats`` read cascade files, ``baseline --method kcore`` an
edge file and ``evaluate`` a seed file. Whatever bytes they are given, each
ends with exit 0, 3 (format error) or 5 (degenerate data) and never with an
uncaught exception. A cascade file that a subcommand reads with exit 0
parses as the earlier object-per-event parser parses it, and a seed file
read with exit 0 holds only ids a cascade log could hold.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iminfector.cascades import load_cascades
from iminfector.cli import main
from iminfector.seeding import load_seed_ids
from test_columnar_equivalence import outcome, reference_parse, reference_summary, summary

CORPUS = "".join(
    f"u{i % 4}:{10 * i}\t" + " ".join(f"v{(i * 3 + k) % 9}:{10 * i + k + 1}" for k in range(1 + i % 3)) + "\n"
    for i in range(12)
).encode()
EDGES = b"".join(f"u{i % 4}\tv{(i * 5) % 9}\n".encode() for i in range(16))
SEEDS = b"1\tu0\t3.5\n2\tu2\t1.25\n3\tu1\t0.5\n"

# Bytes that line splitting, whitespace handling or UTF-8 decoding treat
# specially: CR, NUL, the file separator \x1c, U+0085 and U+00A0 (which
# str.split() and str.splitlines() take as whitespace or breaks), a
# stray continuation byte, a cut-short sequence, an encoded surrogate and
# 0xff.
SPECIAL = [b"\r", b"\r\n", b"\x00", b"\x1c", "\x85".encode(), "\xa0".encode(),
           b"\x80", b"\xc2", b"\xed\xa0\x80", b"\xff", b"\t", b":", b"#", b"9"]


@st.composite
def mutated(draw, blob):
    """A few bytes xor-ed, a prefix, special or random bytes inserted, or
    bytes appended."""
    kind = draw(st.sampled_from(["flip", "cut", "insert", "append"]))
    if kind == "cut":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    extra = draw(st.one_of(st.sampled_from(SPECIAL), st.binary(min_size=1, max_size=8)))
    if kind == "append":
        return blob + extra
    if kind == "insert":
        at = draw(st.integers(0, len(blob)))
        return blob[:at] + extra + blob[at:]
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return bytes(data)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("text")
    (d / "cascades.txt").write_bytes(CORPUS)
    return d


def assert_parses_as_reference(path):
    """``path`` holds UTF-8 that both parsers read alike."""
    with open(path, encoding="utf-8") as fh:
        want = outcome(reference_parse, reference_summary, fh)
    assert outcome(load_cascades, summary, path) == want


@settings(max_examples=150, deadline=None)
@given(blob=mutated(CORPUS))
def test_mutated_cascades_through_split(workdir, blob):
    path = workdir / "mutated.txt"
    path.write_bytes(blob)
    code = main(["split", "--cascades", str(path), "--train-out", str(workdir / "train.txt"),
                 "--test-out", str(workdir / "test.txt"), "--manifest", str(workdir / "m.json")])
    assert code in (0, 3, 5)
    if code == 0:
        assert_parses_as_reference(path)


@settings(max_examples=150, deadline=None)
@given(blob=mutated(CORPUS), side=st.sampled_from(["--train", "--test"]))
def test_mutated_cascades_through_stats(workdir, blob, side):
    path = workdir / "mutated.txt"
    path.write_bytes(blob)
    files = {"--train": workdir / "cascades.txt", "--test": workdir / "cascades.txt", side: path}
    code = main(["stats", *(str(a) for pair in files.items() for a in pair),
                 "--out", str(workdir / "stats.tsv"), "--manifest", str(workdir / "m.json")])
    assert code in (0, 3, 5)
    if code == 0:
        assert_parses_as_reference(path)


@settings(max_examples=150, deadline=None)
@given(blob=mutated(EDGES))
def test_mutated_edges_through_kcore(workdir, blob):
    path = workdir / "edges.txt"
    path.write_bytes(blob)
    code = main(["baseline", "--method", "kcore", "--edges", str(path),
                 "--out", str(workdir / "kcore.txt"), "--manifest", str(workdir / "m.json")])
    assert code in (0, 3, 5)


@settings(max_examples=150, deadline=None)
@given(blob=mutated(SEEDS))
def test_mutated_seeds_through_evaluate(workdir, blob):
    path = workdir / "seeds.txt"
    path.write_bytes(blob)
    code = main(["evaluate", "--seeds", str(path), "--test", str(workdir / "cascades.txt"),
                 "--out", str(workdir / "result.tsv"), "--manifest", str(workdir / "m.json")])
    assert code in (0, 3, 5)
    if code == 0:
        assert all(re.fullmatch(r"[^\s:]+", seed) for seed in load_seed_ids(path))


def test_valid_inputs_exit_0(workdir, capsys):
    # the mutations start from files every subcommand takes
    (workdir / "edges.txt").write_bytes(EDGES)
    (workdir / "seeds.txt").write_bytes(SEEDS)
    corpus = str(workdir / "cascades.txt")
    for argv in (
        ["split", "--cascades", corpus, "--train-out", str(workdir / "a"), "--test-out",
         str(workdir / "b")],
        ["stats", "--train", corpus, "--test", corpus, "--out", str(workdir / "c")],
        ["baseline", "--method", "kcore", "--edges", str(workdir / "edges.txt"),
         "--out", str(workdir / "d")],
        ["evaluate", "--seeds", str(workdir / "seeds.txt"), "--test", corpus,
         "--out", str(workdir / "e")],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
