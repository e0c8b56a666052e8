"""An interrupted artifact writer leaves its target as it was, and no temp file."""

import errno
import os

import pytest

from iminfector import _util
from iminfector.cascades import derive_edges, load_cascades, save_cascades, save_edges
from iminfector.cli import main
from iminfector.context import build_training_stream, dump_pairs
from iminfector.diffusion import load_matrix, save_matrix
from iminfector.model import load_embeddings, save_embeddings
from iminfector.seeding import save_seeds, select_seeds_celf

CORPUS = "".join(
    f"u{i % 3}:{10 * i}\tv{i % 5}:{10 * i + 1} v{(i + 2) % 5}:{10 * i + 2}\n" for i in range(10)
)


class CutShort:
    """A file whose first write stores half its data, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def cut_writes_to(monkeypatch, name):
    """Cut short every write to the temp file of a target called ``name``."""

    def opener(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return CutShort(fh) if os.path.basename(path).startswith(f".{name}.") else fh

    monkeypatch.setattr(_util, "open", opener, raising=False)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A split, model, matrix and seed list to write again."""
    d = tmp_path_factory.mktemp("run")
    (d / "cascades.txt").write_text(CORPUS)
    assert main(["pipeline", "--cascades", str(d / "cascades.txt"), "--outdir", str(d),
                 "--embed-dim", "4", "--epochs", "1", "--prune-percent", "100", "--size", "2"]) == 0
    return d


def library_writers(run):
    corpus = load_cascades(run / "train.txt")
    matrix, budgets = load_matrix(run / "dmatrix.bin")
    return {
        "cascades": lambda path: save_cascades(corpus, path),
        "edges": lambda path: save_edges(derive_edges(corpus), path),
        "pairs": lambda path: dump_pairs(build_training_stream(corpus, 1.2, 0), path),
        "model": lambda path: save_embeddings(load_embeddings(run / "model.infv"), path),
        "dmatrix": lambda path: save_matrix(matrix, budgets, path),
        "seeds": lambda path: save_seeds(select_seeds_celf(matrix, budgets, 2), path),
    }


def cli_writers(run):
    train, test, seeds = (str(run / name) for name in ("train.txt", "test.txt", "seeds.txt"))
    elsewhere = ["--manifest", str(run / "elsewhere.json")]
    split = ["split", "--cascades", str(run / "cascades.txt"),
             "--train-out", str(run / "a.txt"), "--test-out", str(run / "b.txt")]
    return {
        "stats": lambda path: main(
            ["stats", "--train", train, "--test", test, "--out", path, *elsewhere]
        ),
        "result": lambda path: main(
            ["evaluate", "--seeds", seeds, "--test", test, "--out", path, *elsewhere]
        ),
        "ranking": lambda path: main(
            ["baseline", "--method", "avgsize", "--train", train, "--size", "2", "--out", path,
             *elsewhere]
        ),
        "manifest": lambda path: main(split + ["--manifest", path]),
    }


WRITERS = ["cascades", "edges", "pairs", "model", "dmatrix", "seeds",
           "stats", "result", "ranking", "manifest"]


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("old", [None, b"old bytes\n"])
def test_interrupted_writer_keeps_target(tmp_path, monkeypatch, capsys, run, writer, old):
    write = {**library_writers(run), **cli_writers(run)}[writer]
    target = tmp_path / f"{writer}.out"
    if old is not None:
        target.write_bytes(old)
    with monkeypatch.context() as m:
        cut_writes_to(m, target.name)
        with pytest.raises(OSError, match="No space left"):
            write(str(target))
    assert os.listdir(tmp_path) == ([] if old is None else [target.name])
    if old is not None:
        assert target.read_bytes() == old
    # the same writer, uninterrupted, replaces the target
    write(str(target))
    capsys.readouterr()
    assert os.listdir(tmp_path) == [target.name]
    assert target.read_bytes() not in (b"", old)


def test_any_exception_removes_the_temp_file(tmp_path):
    target = tmp_path / "t.txt"
    target.write_text("old\n")
    with pytest.raises(KeyboardInterrupt):
        with _util.atomic_write(target) as fh:
            fh.write("new, cut short")
            raise KeyboardInterrupt
    assert os.listdir(tmp_path) == ["t.txt"]
    assert target.read_text() == "old\n"
    with _util.atomic_write(target, "wb") as fh:
        fh.write(b"new\n")
    assert target.read_bytes() == b"new\n"
