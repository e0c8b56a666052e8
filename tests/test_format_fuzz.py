"""Byte mutations of valid INFV1 and DPM1 files keep the CLI's exit codes.

``rank`` reads an INFV1 model and ``seed`` a DPM1 matrix. Whatever bytes
they are given, each ends with exit 0, 3 (format error) or 5 (degenerate
data) and never with an uncaught exception. A file cut short or with bytes
appended is always a format error. A ``rank`` that exits 0 writes a matrix
that ``seed`` accepts, and a ``seed`` that exits 0 writes a ``seeds.txt``
that ``evaluate`` can read.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iminfector.cli import main
from iminfector.seeding import load_seed_ids

CORPUS = "".join(
    f"u{i % 4}:{10 * i}\t" + " ".join(f"v{(i * 3 + k) % 9}:{10 * i + k + 1}" for k in range(1 + i % 3)) + "\n"
    for i in range(12)
)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Directory holding a trained model.infv and its dmatrix.bin."""
    d = tmp_path_factory.mktemp("valid")
    (d / "cascades.txt").write_text(CORPUS)
    argv = ["train", "--cascades", str(d / "cascades.txt"), "--out", str(d / "model.infv"),
            "--embed-dim", "3", "--epochs", "1"]
    assert main(argv) == 0
    argv = ["rank", "--model", str(d / "model.infv"), "--prune-percent", "100",
            "--out", str(d / "dmatrix.bin")]
    assert main(argv) == 0
    return d


@st.composite
def mutated(draw, blob):
    """(kind, bytes): a few bytes xor-ed, a prefix, or the file plus extra bytes."""
    kind = draw(st.sampled_from(["flip", "truncate", "extend"]))
    if kind == "truncate":
        return kind, blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "extend":
        return kind, blob + draw(st.binary(min_size=1, max_size=40))
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return kind, bytes(data)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_model_keeps_exit_codes(valid, data):
    kind, blob = data.draw(mutated((valid / "model.infv").read_bytes()))
    model, dmat = valid / "mutated.infv", valid / "mutated.bin"
    model.write_bytes(blob)
    code = main(["rank", "--model", str(model), "--prune-percent", "100", "--out", str(dmat)])
    assert code in (0, 3, 5)
    if kind != "flip":
        assert code == 3
    if code == 0:
        seeds = valid / "seeds.txt"
        assert main(["seed", "--dmatrix", str(dmat), "--out", str(seeds)]) == 0
        assert load_seed_ids(seeds)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_matrix_keeps_exit_codes(valid, data):
    kind, blob = data.draw(mutated((valid / "dmatrix.bin").read_bytes()))
    dmat, seeds = valid / "mutated.bin", valid / "seeds.txt"
    dmat.write_bytes(blob)
    seeds.unlink(missing_ok=True)
    code = main(["seed", "--dmatrix", str(dmat), "--out", str(seeds)])
    assert code in (0, 3, 5)
    if kind != "flip":
        assert code == 3
    if code == 0:
        # every id seed writes is one evaluate accepts
        assert load_seed_ids(seeds)


def test_every_prefix_is_exit_3(valid):
    for name, argv in (
        ("model.infv", ["rank", "--model"]),
        ("dmatrix.bin", ["seed", "--dmatrix"]),
    ):
        blob = (valid / name).read_bytes()
        cut = valid / ("cut-" + name)
        for end in range(len(blob)):
            cut.write_bytes(blob[:end])
            assert main(argv + [str(cut), "--out", str(valid / "out")]) == 3, (name, end)
