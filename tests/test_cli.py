"""Exit codes, manifests, and artifact formats of the command line."""

import hashlib
import json
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

import iminfector
from iminfector import _native
from iminfector import cli, context
from iminfector.cascades import load_cascades, temporal_split
from iminfector.cli import main
from iminfector.context import build_training_stream, dump_pairs
from iminfector.diffusion import load_matrix, save_matrix
from iminfector.model import load_embeddings, save_embeddings

CORPUS = [
    "u01:0\tv1:2 v2:4 v3:9\n",
    "u02:10\tv2:11 v4:12\n",
    "u03:20\tv1:22 v5:23 v6:30 v7:31\n",
    "u01:30\tv4:31 v5:33\n",
    "u02:40\tv6:41\n",
    "u03:50\tv3:52 v4:55\n",
    "u01:60\tv7:61 v1:62\n",
    "u02:70\tv5:72 v6:73 v7:74\n",
    "u03:80\tv2:81\n",
    "u01:90\tv3:92 v6:93\n",
]


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "cascades.txt"
    path.write_text("".join(CORPUS))
    return path


def read_manifest(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "iminfector" in capsys.readouterr().out


def test_synth_deterministic_and_manifested(tmp_path):
    out1, out2, out3 = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
    base = ["synth", "--nodes", "40", "--cascades", "30", "--planted", "1", "--lures", "1"]
    assert main(base + ["--rng-seed", "3", "--out", str(out1)]) == 0
    assert main(base + ["--rng-seed", "3", "--out", str(out2)]) == 0
    assert main(base + ["--rng-seed", "4", "--out", str(out3)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()
    doc = read_manifest(str(out1) + ".manifest.json")
    assert doc["tool"] == "iminfector"
    assert doc["subcommand"] == "synth"
    assert doc["parameters"]["nodes"] == 40
    assert doc["n_cascades"] == 30
    assert str(out1) in doc["outputs"]


def test_synth_edges_out(tmp_path):
    out = tmp_path / "c.txt"
    edges = tmp_path / "e.txt"
    assert main(
        ["synth", "--nodes", "40", "--cascades", "30", "--planted", "1", "--lures", "1",
         "--out", str(out), "--edges-out", str(edges)]
    ) == 0
    lines = edges.read_text().splitlines()
    assert lines and all(len(ln.split()) == 2 for ln in lines)


@pytest.mark.parametrize(
    "sizes, what",
    [
        (["--nodes", "40", "--cascades", "30"], "nodes"),  # 40 - 5 - 6 < 20 * 5
        (["--nodes", "60", "--planted", "2", "--lures", "19"], "nodes"),  # 39 < 40
        (["--nodes", "300", "--cascades", "10"], "cascades"),  # no background cascade
    ],
)
def test_synth_sizes_it_cannot_build_are_exit_2(tmp_path, capsys, sizes, what):
    # a combination of flags generate_corpus cannot build is a usage error
    # that writes nothing, not degenerate data (exit 5)
    outs = ["--out", str(tmp_path / "c.txt"), "--edges-out", str(tmp_path / "e.txt")]
    assert main(["synth", *sizes, *outs]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: too few {what} for the requested planted/lure counts (")
    assert os.listdir(tmp_path) == []
    # nodes - planted - lures == 20 * planted is enough
    assert main(["synth", "--nodes", "111", "--cascades", "30", *outs]) == 0


def test_split_counts_and_manifest(tmp_path, corpus_file):
    train, test = tmp_path / "train.txt", tmp_path / "test.txt"
    code = main(
        ["split", "--cascades", str(corpus_file), "--train-out", str(train), "--test-out", str(test)]
    )
    assert code == 0
    assert len(train.read_text().splitlines()) == 8
    assert len(test.read_text().splitlines()) == 2
    doc = read_manifest(str(train) + ".manifest.json")
    assert doc["parameters"]["train_frac"] == 0.8
    assert doc["n_train"] == 8 and doc["n_test"] == 2
    assert doc["inputs"]["--cascades"]["sha256"]


# Every input-file flag of every subcommand, with the other flags its run needs.
INPUT_FLAGS = [
    ("split", "--cascades", ["--train-out", "a", "--test-out", "b"]),
    ("stats", "--train", ["--test", "IN", "--out", "a"]),
    ("stats", "--test", ["--train", "IN", "--out", "a"]),
    ("train", "--cascades", ["--out", "a"]),
    ("rank", "--model", ["--out", "a"]),
    ("seed", "--dmatrix", ["--out", "a"]),
    ("evaluate", "--seeds", ["--test", "IN", "--out", "a"]),
    ("evaluate", "--test", ["--seeds", "IN", "--out", "a"]),
    ("baseline", "--edges", ["--method", "kcore", "--out", "a"]),
    ("baseline", "--train", ["--method", "avgsize", "--out", "a"]),
    ("pipeline", "--cascades", ["--outdir", "run"]),
]


@pytest.mark.parametrize("subcommand, flag, rest", INPUT_FLAGS,
                         ids=[f"{sub}-{flag}" for sub, flag, _ in INPUT_FLAGS])
def test_missing_input_file_is_exit_2(tmp_path, corpus_file, capsys, subcommand, flag, rest):
    missing = str(tmp_path / "nope.txt")
    # every other input exists, so only the missing file can be refused
    rest = [str(corpus_file) if a == "IN" else a if a.startswith("--") else str(tmp_path / a)
            for a in rest]
    assert main([subcommand, flag, missing, *rest]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"iminfector {subcommand}: error: argument {flag}: file not found: {missing}"
    )
    assert os.listdir(tmp_path) == ["cascades.txt"]


# A run of each subcommand: IN is an existing file, and a, b and run are
# outputs in the test's directory.
RUNS = {
    "synth": ["--out", "a"],
    "split": ["--cascades", "IN", "--train-out", "a", "--test-out", "b"],
    "stats": ["--train", "IN", "--test", "IN", "--out", "a"],
    "train": ["--cascades", "IN", "--out", "a"],
    "rank": ["--model", "IN", "--out", "a"],
    "seed": ["--dmatrix", "IN", "--out", "a"],
    "evaluate": ["--seeds", "IN", "--test", "IN", "--out", "a"],
    "baseline": ["--method", "avgsize", "--train", "IN", "--out", "a"],
    "pipeline": ["--cascades", "IN", "--outdir", "run"],
}
# Every output-file flag of every subcommand.
OUTPUT_FLAGS = [
    (sub, flag) for sub, argv in RUNS.items() for flag in argv if flag.endswith("-out")
] + [("synth", "--edges-out"), ("train", "--dump-pairs")] + [(sub, "--manifest") for sub in RUNS]


def run_argv(tmp_path, corpus_file, subcommand, flag, value):
    """RUNS' argv of ``subcommand`` with ``flag`` given ``value``."""
    paths = {"IN": str(corpus_file), **{name: str(tmp_path / name) for name in ("a", "b", "run")}}
    argv = [paths.get(a, a) for a in RUNS[subcommand]]
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return [subcommand, *argv]


@pytest.mark.parametrize("subcommand, flag", OUTPUT_FLAGS,
                         ids=[f"{sub}-{flag}" for sub, flag in OUTPUT_FLAGS])
def test_output_target_atomic_write_cannot_replace_is_exit_2(tmp_path, corpus_file, capsys,
                                                             subcommand, flag):
    fifo, directory = tmp_path / "fifo", tmp_path / "dir"
    os.mkfifo(fifo)
    directory.mkdir()
    for target, message in [
        (tmp_path / "nodir" / "x", f"directory not found: {tmp_path / 'nodir'}"),
        (fifo, f"not a regular file: {fifo}"),
        (directory, f"not a regular file: {directory}"),
        ("", "not a regular file: "),
    ]:
        assert main(run_argv(tmp_path, corpus_file, subcommand, flag, str(target))) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"iminfector {subcommand}: error: argument {flag}: {message}"
        )
    # refused at parse time: nothing written, and the FIFO is still a FIFO
    assert sorted(os.listdir(tmp_path)) == ["cascades.txt", "dir", "fifo"]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and not os.listdir(directory)


def test_pipeline_outdir_that_is_not_a_directory_is_exit_2(tmp_path, corpus_file, capsys):
    fifo, regular = tmp_path / "fifo", tmp_path / "file"
    os.mkfifo(fifo)
    regular.write_text("x")
    for target in (fifo, regular, ""):
        assert main(run_argv(tmp_path, corpus_file, "pipeline", "--outdir", str(target))) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"iminfector pipeline: error: argument --outdir: not a directory: {target}"
        )
    assert sorted(os.listdir(tmp_path)) == ["cascades.txt", "fifo", "file"]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and regular.read_text() == "x"
    # a missing --outdir is made, parents and all
    outdir = tmp_path / "new" / "run"
    assert main(run_argv(tmp_path, corpus_file, "pipeline", "--outdir", str(outdir))) == 0
    capsys.readouterr()
    assert (outdir / "manifest.json").is_file()


@pytest.mark.parametrize("name", [*cli.PIPELINE_FILES, "manifest.json"])
def test_pipeline_file_in_outdir_that_cannot_be_replaced_is_exit_2(tmp_path, corpus_file, capsys,
                                                                    name):
    run = tmp_path / "run"
    for kind in ("fifo", "dir"):
        run.mkdir()
        target = run / name
        os.mkfifo(target) if kind == "fifo" else target.mkdir()
        assert main(run_argv(tmp_path, corpus_file, "pipeline", "--outdir", str(run))) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        if name == "manifest.json":
            assert err == f"error: manifest path is not a regular file: {target}"
        else:
            assert err == (
                f"iminfector pipeline: error: argument --outdir: not a regular file: {target}"
            )
        # refused before any write
        assert os.listdir(run) == [name]
        assert stat.S_ISFIFO(os.lstat(target).st_mode) if kind == "fifo" else not os.listdir(target)
        target.unlink() if kind == "fifo" else target.rmdir()
        run.rmdir()


@pytest.mark.parametrize("subcommand", [sub for sub in RUNS if sub != "pipeline"])
def test_derived_manifest_path_that_cannot_be_replaced_is_exit_2(tmp_path, corpus_file, capsys,
                                                                  subcommand):
    target = tmp_path / "a.manifest.json"
    for kind in ("fifo", "dir"):
        os.mkfifo(target) if kind == "fifo" else target.mkdir()
        first = "--train-out" if subcommand == "split" else "--out"  # output "a" in RUNS
        assert main(run_argv(tmp_path, corpus_file, subcommand, first, str(tmp_path / "a"))) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: manifest path is not a regular file: {target}"
        )
        # refused before any write
        assert sorted(os.listdir(tmp_path)) == ["a.manifest.json", "cascades.txt"]
        target.unlink() if kind == "fifo" else target.rmdir()


def test_malformed_cascades_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("u1:0 v1:1\n")  # space, not tab
    code = main(
        ["split", "--cascades", str(bad),
         "--train-out", str(tmp_path / "a"), "--test-out", str(tmp_path / "b")]
    )
    assert code == 3
    assert "line 1" in capsys.readouterr().err


def test_degenerate_split_is_exit_5(tmp_path, capsys):
    one = tmp_path / "one.txt"
    one.write_text("u1:0\tv1:1\n")
    code = main(
        ["split", "--cascades", str(one),
         "--train-out", str(tmp_path / "a"), "--test-out", str(tmp_path / "b")]
    )
    assert code == 5
    capsys.readouterr()


def test_stats_table(tmp_path, corpus_file):
    train, test = tmp_path / "train.txt", tmp_path / "test.txt"
    main(["split", "--cascades", str(corpus_file), "--train-out", str(train), "--test-out", str(test)])
    out = tmp_path / "stats.tsv"
    assert main(["stats", "--train", str(train), "--test", str(test), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "node_id\ttrain_started\ttrain_participated\ttest_started\ttest_total_size\ttest_dni"
    rows = {ln.split("\t")[0]: ln.split("\t") for ln in lines[1:]}
    # u03 starts the last test cascade (start 80) plus two train ones
    assert rows["u03"][1] == "2" and rows["u03"][3] == "1"


def assert_records_what_decides_the_bits(doc):
    """The manifest names what decides the classify path's bits."""
    lib = _native.load()
    assert doc["blas_core"] == (None if lib is None else lib.blas_core)
    assert doc["numpy_version"] == np.__version__
    assert sorted(doc["numpy_float64_targets"]) == ["add", "exp", "log", "maximum"]
    assert all(isinstance(target, str) for target in doc["numpy_float64_targets"].values())


def test_train_defaults_in_manifest(tmp_path, corpus_file, kernel_name, kernel_isa, numpy_calls):
    out = tmp_path / "model.infv"
    assert main(["train", "--cascades", str(corpus_file), "--out", str(out)]) == 0
    doc = read_manifest(str(out) + ".manifest.json")
    p = doc["parameters"]
    assert p["embed_dim"] == 50
    assert p["epochs"] == 5
    assert p["lr"] == 0.1
    assert p["oversample"] == 1.2
    assert p["rng_seed"] == 0
    assert len(doc["epoch_loss_classify"]) == 5
    # one step per stream pair: a size pair per cascade, the rest context pairs
    corpus = load_cascades(corpus_file)
    streams = [build_training_stream(corpus, 1.2, epoch) for epoch in range(5)]
    assert doc["epoch_regress_steps"] == [len(CORPUS)] * 5
    assert doc["epoch_classify_steps"] == [len(s) - len(CORPUS) for s in streams]
    assert doc["classify_kernel"] == kernel_name
    assert doc["classify_isa"] == kernel_isa
    assert doc["stream_draws"] == streams[0].draws == ("c" if numpy_calls else "choice")
    assert_records_what_decides_the_bits(doc)
    model = load_embeddings(out)
    assert model.embed_dim == 50
    assert model.influencer_ids == ["u01", "u02", "u03"]


def test_nonfinite_training_is_exit_4(tmp_path, corpus_file, capsys, step_paths, monkeypatch):
    out = str(tmp_path / "m.infv")
    for path in step_paths:
        with monkeypatch.context() as mp:
            if path is None:
                # no native library: the numpy step
                mp.setattr(_native, "load", lambda: None)
            # 1e308 and 1e300 overflow step 1's logits, 1e5 makes its loss -log(0)
            for lr in ("1e308", "1e300", "1e5"):
                # the exit-4 error is the only report: no numpy warning
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main(["train", "--cascades", str(corpus_file), "--out", out, "--lr", lr])
                assert code == 4
                assert capsys.readouterr().err == (
                    "error: classification step produced a non-finite value (epoch 0, step 1)\n"
                )
                assert not os.path.exists(out)


def test_train_dump_pairs(tmp_path, corpus_file, monkeypatch):
    out, pairs = tmp_path / "m.infv", tmp_path / "pairs.tsv"
    built = []

    def counting_build(*args):
        built.append(args)
        return build_training_stream(*args)

    monkeypatch.setattr(cli, "build_training_stream", counting_build)
    code = main(
        ["train", "--cascades", str(corpus_file), "--out", str(out),
         "--embed-dim", "4", "--epochs", "3", "--rng-seed", "7", "--dump-pairs", str(pairs)]
    )
    assert code == 0
    # the dump is the stream epoch 0 trained on, not a second build of it
    assert len(built) == 3
    expected = tmp_path / "expected.tsv"
    dump_pairs(build_training_stream(load_cascades(corpus_file), 1.2, 7), expected)
    assert pairs.read_bytes() == expected.read_bytes()
    lines = pairs.read_text().splitlines()
    assert lines[0] == "influencer\ttarget\tkind\tvalue"
    # ceil(1.2 m) contexts plus one size row per cascade
    n_context = sum(1 for ln in lines[1:] if ln.split("\t")[2] == "C")
    n_size = sum(1 for ln in lines[1:] if ln.split("\t")[2] == "S")
    assert n_size == len(CORPUS)
    assert n_context >= sum(len(c.split("\t")[1].split()) for c in CORPUS)


# sha256 of the --dump-pairs TSV of a 3-epoch train on the train split of
# synth's 300-node log at --rng-seed 0, every other flag at its default. It
# pins the documented format, which a dump compared with dump_pairs' own
# output cannot show.
DUMP_PAIRS_DIGEST = "39af4233ead2ec138d939cc31f566abd1b0d1834a74a5a5c6989b004232a0178"


@pytest.mark.parametrize("library", [True, False], ids=["library", "no-library"])
def test_dump_pairs_bytes_are_pinned(tmp_path, monkeypatch, capsys, library):
    if not library:
        monkeypatch.setattr(_native, "load", lambda: None)
    log, train, test = tmp_path / "c.txt", tmp_path / "train.txt", tmp_path / "test.txt"
    pairs = tmp_path / "pairs.tsv"
    assert main(["synth", "--rng-seed", "0", "--out", str(log)]) == 0
    assert main(["split", "--cascades", str(log), "--train-out", str(train),
                 "--test-out", str(test)]) == 0
    assert main(["train", "--cascades", str(train), "--out", str(tmp_path / "m.infv"),
                 "--epochs", "3", "--dump-pairs", str(pairs)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(pairs.read_bytes()).hexdigest() == DUMP_PAIRS_DIGEST


def test_dump_pairs_identical_on_every_draw_path(tmp_path, monkeypatch, capsys):
    # the library's context draws, and rng.choice's without the library or
    # where it refuses the draws
    log = tmp_path / "log.txt"
    assert main(["synth", "--nodes", "80", "--cascades", "80", "--planted", "2", "--lures", "2",
                 "--rng-seed", "5", "--out", str(log)]) == 0

    def dump(name):
        pairs = tmp_path / f"{name}.tsv"
        assert main(["train", "--cascades", str(log), "--out", str(tmp_path / f"{name}.infv"),
                     "--embed-dim", "4", "--epochs", "1", "--rng-seed", "9",
                     "--dump-pairs", str(pairs)]) == 0
        return pairs.read_bytes()

    want = dump("library")
    choices = []
    choice_contexts = context.choice_contexts
    monkeypatch.setattr(context, "choice_contexts",
                        lambda *args: choices.append(args) or choice_contexts(*args))
    with monkeypatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        assert dump("none") == want
    assert len(choices) == 1
    # the library train loads now: a test that cleared load's cache made
    # it another module than the session fixture's
    lib = _native.load()
    if lib is not None:
        monkeypatch.setattr(lib, "draw_contexts", lambda *args: False)
        assert dump("refused") == want
        assert len(choices) == 2
    capsys.readouterr()


def chain(tmp_path, corpus_file, embed_dim="6"):
    train, test = tmp_path / "train.txt", tmp_path / "test.txt"
    model, dmat = tmp_path / "model.infv", tmp_path / "dmatrix.bin"
    seeds, result = tmp_path / "seeds.txt", tmp_path / "result.tsv"
    assert main(["split", "--cascades", str(corpus_file), "--train-out", str(train), "--test-out", str(test)]) == 0
    assert main(["train", "--cascades", str(train), "--out", str(model), "--embed-dim", embed_dim]) == 0
    assert main(["rank", "--model", str(model), "--prune-percent", "100", "--out", str(dmat)]) == 0
    assert main(["seed", "--dmatrix", str(dmat), "--size", "2", "--out", str(seeds)]) == 0
    assert main(["evaluate", "--seeds", str(seeds), "--test", str(test), "--out", str(result)]) == 0
    return train, test, model, dmat, seeds, result


def test_stage_chain(tmp_path, corpus_file, capsys):
    train, test, model, dmat, seeds, result = chain(tmp_path, corpus_file)
    assert "dni\t" in capsys.readouterr().out
    seed_rows = [ln.split("\t") for ln in seeds.read_text().splitlines()]
    assert [r[0] for r in seed_rows] == ["1", "2"]
    assert all(r[1].startswith("u") for r in seed_rows)
    res_rows = [ln.split("\t") for ln in result.read_text().splitlines()]
    assert res_rows[0] == ["rank", "node_id", "new_nodes", "cumulative_dni"]
    cumulative = [int(r[3]) for r in res_rows[1:]]
    assert cumulative == sorted(cumulative)
    doc = read_manifest(str(dmat) + ".manifest.json")
    assert doc["n_candidates"] == 3


def test_manifest_outputs_are_the_files_each_subcommand_writes(tmp_path, corpus_file, capsys):
    train, test, model, dmat, seeds, _ = chain(tmp_path, corpus_file)
    edges = tmp_path / "edges.txt"
    edges.write_text("a\tb\nb\tc\n")
    # each subcommand's inputs, and its output flags with the files they name
    runs = {
        "synth": (["--nodes", "40", "--cascades", "30", "--planted", "1", "--lures", "1"],
                  [("--out", "s.txt"), ("--edges-out", "e.txt")]),
        "split": (["--cascades", str(corpus_file)],
                  [("--train-out", "a.txt"), ("--test-out", "b.txt")]),
        "stats": (["--train", str(train), "--test", str(test)], [("--out", "st.tsv")]),
        "train": (["--cascades", str(train), "--embed-dim", "4", "--epochs", "1"],
                  [("--out", "m.infv"), ("--dump-pairs", "p.tsv")]),
        "rank": (["--model", str(model)], [("--out", "d.bin")]),
        "seed": (["--dmatrix", str(dmat), "--size", "2"], [("--out", "s.txt")]),
        "evaluate": (["--seeds", str(seeds), "--test", str(test)], [("--out", "r.tsv")]),
        "baseline": (["--method", "kcore", "--edges", str(edges)], [("--out", "k.txt")]),
    }
    for sub, (argv, files) in runs.items():
        work = tmp_path / sub
        work.mkdir()
        # the flags in reverse: the outputs follow the parser, not the command line
        named = [part for flag, name in reversed(files) for part in (flag, str(work / name))]
        assert main([sub, *argv, *named]) == 0, sub
        manifest = f"{files[0][1]}.manifest.json"
        assert sorted(os.listdir(work)) == sorted([name for _, name in files] + [manifest])
        assert read_manifest(work / manifest)["outputs"] == [str(work / name) for _, name in files]
        capsys.readouterr()
        # and in the order --help lists their flags
        assert main([sub, "--help"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                  if line.startswith("  --")]
        assert [flag for flag in listed if flag in dict(files)] == [flag for flag, _ in files]
    work = tmp_path / "pipeline"
    assert main(["pipeline", "--cascades", str(corpus_file), "--outdir", str(work),
                 "--embed-dim", "4", "--epochs", "1"]) == 0
    names = sorted(os.listdir(work))
    names.remove("manifest.json")
    assert read_manifest(work / "manifest.json")["outputs"] == [str(work / name) for name in names]
    capsys.readouterr()


def test_wrong_binary_magic_is_exit_3(tmp_path, corpus_file, capsys):
    _, _, model, dmat, seeds, _ = chain(tmp_path, corpus_file)
    assert main(["rank", "--model", str(dmat), "--out", str(tmp_path / "x.bin")]) == 3
    assert main(["seed", "--dmatrix", str(model), "--out", str(tmp_path / "y.txt")]) == 3
    capsys.readouterr()


def split_argv(tmp_path, cascades):
    return ["split", "--cascades", str(cascades),
            "--train-out", str(tmp_path / "a"), "--test-out", str(tmp_path / "b")]


def test_invalid_utf8_cascades_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    # CRLF and a lone CR both end a line, as text mode reads them
    bad.write_bytes(b"u1:0\tv1:1\r\nu2:0\tv2:1\ru3:\xff0\tv3:1\n")
    assert main(split_argv(tmp_path, bad)) == 3
    err = capsys.readouterr().err
    assert "line 3" in err and "UTF-8" in err
    # a format error on an earlier line is still the first one reported
    bad.write_bytes(b"u1:0 v1:1\nu2:0\tv2:1\xff\n")
    assert main(split_argv(tmp_path, bad)) == 3
    assert "line 1: expected" in capsys.readouterr().err


def test_time_beyond_int64_is_exit_3(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text(f"u1:0\tv1:1\nu2:0\tv2:{2**63}\n")
    assert main(split_argv(tmp_path, big)) == 3
    assert "line 2" in capsys.readouterr().err
    small = "".join(f"u{i}:{i}\tv{i}:{i + 1}\n" for i in range(4))
    big.write_text(small + f"u9:{2**63 - 1}\tv2:{2**63 - 1}\n")
    assert main(split_argv(tmp_path, big)) == 0
    assert (tmp_path / "b").read_text() == f"u9:{2**63 - 1}\tv2:{2**63 - 1}\n"


def test_invalid_utf8_edges_is_exit_3(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_bytes(b"a\tb\nb\tc\xc3\n")
    out = tmp_path / "kcore.txt"
    assert main(["baseline", "--method", "kcore", "--edges", str(edges), "--out", str(out)]) == 3
    assert "line 2" in capsys.readouterr().err


def set_byte(path, offset, value):
    data = bytearray(path.read_bytes())
    data[offset] = value
    path.write_bytes(bytes(data))


def test_invalid_utf8_id_tables_are_exit_3(tmp_path, corpus_file, capsys):
    _, _, model, dmat, _, _ = chain(tmp_path, corpus_file)
    # INFV1 ends with the node id table: corrupt the last id's first byte
    set_byte(model, -2, 0xFF)
    assert main(["rank", "--model", str(model), "--out", str(tmp_path / "x.bin")]) == 3
    assert "not valid UTF-8" in capsys.readouterr().err
    # DPM1: magic, two u64 dims, then the first id's u32 length and bytes
    set_byte(dmat, 4 + 16 + 4, 0xE9)
    assert main(["seed", "--dmatrix", str(dmat), "--out", str(tmp_path / "y.txt")]) == 3
    assert "not valid UTF-8" in capsys.readouterr().err


def test_malformed_seeds_file_is_exit_3(tmp_path, corpus_file, capsys):
    _, test, _, _, _, _ = chain(tmp_path, corpus_file)
    seeds = tmp_path / "bad_seeds.txt"
    seeds.write_text("1\tu01\t0.5\n2 u02 0.4\n")
    out = tmp_path / "r.tsv"
    assert main(["evaluate", "--seeds", str(seeds), "--test", str(test), "--out", str(out)]) == 3
    assert "line 2: bad seed line" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["1\t\t0.5", "2\ta b\t0.1", "3\tx:y\t0.2"])
def test_seed_id_a_cascade_log_cannot_hold_is_exit_3(tmp_path, corpus_file, capsys, line):
    # an empty id, or one with whitespace or ':', names no node of any test split
    seeds = tmp_path / "bad_seeds.txt"
    seeds.write_text(f"1\tu01\t0.5\n{line}\n")
    out = tmp_path / "r.tsv"
    argv = ["evaluate", "--seeds", str(seeds), "--test", str(corpus_file), "--out", str(out)]
    assert main(argv) == 3
    assert "line 2: bad seed id" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["O", "T", "b_t", "b_c"])
def test_infv_nonfinite_value_is_exit_3(tmp_path, corpus_file, capsys, name):
    _, _, model_path, _, _, _ = chain(tmp_path, corpus_file)
    good = model_path.read_bytes()
    out = str(tmp_path / "x.bin")
    for value in (np.nan, np.inf, -np.inf):
        model_path.write_bytes(good)
        model = load_embeddings(model_path)
        if name == "b_c":
            model.b_c = value
        else:
            getattr(model, name)[{"O": (1, 2), "T": (0, 3), "b_t": 4}[name]] = value
        save_embeddings(model, model_path)
        assert main(["rank", "--model", str(model_path), "--out", out]) == 3, value
        assert f"{name} holds a non-finite value" in capsys.readouterr().err


def test_rank_without_id_tables_is_exit_3(tmp_path, corpus_file, capsys):
    # a model cut right after b_c is cut short: INFV1 always ends with its
    # id tables, without which rank would name candidates by row number
    _, _, model_path, _, _, _ = chain(tmp_path, corpus_file)
    model = load_embeddings(model_path)
    (I, E), N = model.O.shape, model.n_nodes
    end_of_b_c = 5 + 24 + 8 * (I * E + E * N + N) + 8
    model_path.write_bytes(model_path.read_bytes()[:end_of_b_c])
    out = tmp_path / "x.bin"
    assert main(["rank", "--model", str(model_path), "--out", str(out)]) == 3
    assert "truncated" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad_id", ["", "a b", "x:y", "v\t1", "v\n1"])
def test_id_a_cascade_log_cannot_hold_in_a_binary_is_exit_3(tmp_path, corpus_file, capsys,
                                                             bad_id):
    # seed would write the id into seeds.txt, which evaluate refuses or misreads
    _, _, model_path, dmat, _, _ = chain(tmp_path, corpus_file)
    matrix, budgets = load_matrix(dmat)
    matrix.candidate_ids[1] = bad_id
    save_matrix(matrix, budgets, dmat)
    seeds = tmp_path / "s.txt"
    assert main(["seed", "--dmatrix", str(dmat), "--size", "2", "--out", str(seeds)]) == 3
    assert f"id 1 of its table, {bad_id!r}, is not a node id" in capsys.readouterr().err
    assert not seeds.exists()
    model = load_embeddings(model_path)
    model.node_ids[2] = bad_id
    save_embeddings(model, model_path)
    out = tmp_path / "x.bin"
    assert main(["rank", "--model", str(model_path), "--out", str(out)]) == 3
    assert f"id 2 of its table, {bad_id!r}, is not a node id" in capsys.readouterr().err
    assert not out.exists()


def test_rank_of_overflowing_model_is_exit_5(tmp_path, corpus_file, capsys):
    _, _, model_path, _, _, _ = chain(tmp_path, corpus_file)
    good = model_path.read_bytes()
    out = tmp_path / "x.bin"
    # the norm of O_0, then the logit of influencer 0 for node 0, overflow
    for name, index, value in (("O", (0, 0), 1e200), ("T", (slice(None), 0), 1.7e308)):
        model_path.write_bytes(good)
        model = load_embeddings(model_path)
        model.O[0] = np.abs(model.O[0]) + 1.0
        getattr(model, name)[index] = value
        save_embeddings(model, model_path)
        # only the exit-5 error is reported: a numpy warning fails the test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["rank", "--model", str(model_path), "--prune-percent", "100", "--out", str(out)])
        assert code == 5, name
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()


def set_dmatrix_entry(path, good, field, index, value):
    """Write the DPM1 bytes ``good`` to ``path`` with one entry of
    ``norms``, ``lambdas`` or ``probs`` set to ``value``."""
    path.write_bytes(good)
    matrix, budgets = load_matrix(path)
    budgets = budgets.astype(np.uint64)
    (budgets if field == "lambdas" else getattr(matrix, field))[index] = value
    save_matrix(matrix, budgets, path)


def seed_argv(dmat, tmp_path):
    return ["seed", "--dmatrix", str(dmat), "--size", "2", "--out", str(tmp_path / "s.txt")]


def test_dmatrix_budget_outside_range_is_exit_3(tmp_path, corpus_file, capsys):
    _, _, _, dmat, _, _ = chain(tmp_path, corpus_file)
    good = dmat.read_bytes()
    N = load_matrix(dmat)[0].n_nodes
    # 2**63 would wrap to a negative int64 and silently drop the candidate
    for budget in (2**63, 2**64 - 1, 0, N + 1):
        set_dmatrix_entry(dmat, good, "lambdas", 0, budget)
        assert main(seed_argv(dmat, tmp_path)) == 3, budget
        assert "budget" in capsys.readouterr().err
    for budget in (1, N):
        set_dmatrix_entry(dmat, good, "lambdas", 0, budget)
        assert main(seed_argv(dmat, tmp_path)) == 0, budget


def test_dmatrix_bad_probability_is_exit_3(tmp_path, corpus_file, capsys):
    _, _, _, dmat, _, _ = chain(tmp_path, corpus_file)
    good = dmat.read_bytes()
    for value in (np.nan, np.inf, -0.25, 1.5):
        set_dmatrix_entry(dmat, good, "probs", (1, 2), value)
        assert main(seed_argv(dmat, tmp_path)) == 3, value
        assert "probability" in capsys.readouterr().err


def test_dmatrix_bad_norm_is_exit_3(tmp_path, corpus_file, capsys):
    _, _, _, dmat, _, _ = chain(tmp_path, corpus_file)
    good = dmat.read_bytes()
    for value in (np.nan, np.inf, -1.0):
        set_dmatrix_entry(dmat, good, "norms", 0, value)
        assert main(seed_argv(dmat, tmp_path)) == 3, value
        assert "norm" in capsys.readouterr().err
    set_dmatrix_entry(dmat, good, "norms", 0, 0.0)
    assert main(seed_argv(dmat, tmp_path)) == 0


def test_dmatrix_repeated_candidate_id_is_exit_3(tmp_path, corpus_file, capsys):
    _, _, _, dmat, _, _ = chain(tmp_path, corpus_file)
    matrix, budgets = load_matrix(dmat)
    assert matrix.n_candidates == 3
    matrix.candidate_ids[1] = matrix.candidate_ids[0]
    save_matrix(matrix, budgets, dmat)
    assert main(seed_argv(dmat, tmp_path)) == 3
    assert "candidate id appears more than once" in capsys.readouterr().err


def test_dmatrix_row_sum_off_one_is_exit_3(tmp_path, corpus_file, capsys):
    _, _, _, dmat, _, _ = chain(tmp_path, corpus_file)
    good = dmat.read_bytes()
    matrix, budgets = load_matrix(dmat)
    N = matrix.n_nodes
    row = matrix.probs[1]
    # each row sums to 1 within N * 2**-52; all-zero, halved and nudged rows do not
    for bad in (np.zeros(N), row / 2, row * (1 + 4 * N * 2.0**-52)):
        set_dmatrix_entry(dmat, good, "probs", 1, bad)
        assert main(seed_argv(dmat, tmp_path)) == 3
        assert "does not sum to 1" in capsys.readouterr().err
    one_hot = np.zeros(N)
    one_hot[2] = 1.0
    set_dmatrix_entry(dmat, good, "probs", 1, one_hot)
    assert main(seed_argv(dmat, tmp_path)) == 0


def notes(err):
    return [line for line in err.splitlines() if line.startswith("note: ")]


def test_pipeline_seed_note_equals_seed_subcommand(tmp_path, corpus_file, capsys):
    run = tmp_path / "run"
    argv = ["pipeline", "--cascades", str(corpus_file), "--outdir", str(run), "--embed-dim", "6"]
    assert main(argv + ["--size", "50"]) == 0
    pipeline_notes = notes(capsys.readouterr().err)
    out = str(tmp_path / "s.txt")
    assert main(["seed", "--dmatrix", str(run / "dmatrix.bin"), "--size", "50", "--out", out]) == 0
    (seed_note,) = notes(capsys.readouterr().err)
    assert seed_note.startswith("note: selected 1 of 50 requested seeds (candidates")
    assert seed_note in pipeline_notes


def test_pipeline_baseline_file_equals_baseline_subcommand(tmp_path, corpus_file, capsys):
    run, out = tmp_path / "run", tmp_path / "avgsize.txt"
    argv = ["pipeline", "--cascades", str(corpus_file), "--outdir", str(run), "--embed-dim", "6"]
    assert main(argv + ["--size", "2"]) == 0
    train = str(run / "train.txt")
    assert main(["baseline", "--method", "avgsize", "--train", train, "--size", "2", "--out", str(out)]) == 0
    # rank, node and mean cascade size: u01 starts 3 train cascades of 7 nodes
    assert out.read_text().splitlines()[1] == f"2\tu01\t{7 / 3!r}"
    assert (run / "baseline_avgsize_seeds.txt").read_bytes() == out.read_bytes()
    capsys.readouterr()


def test_seed_truncation_note(tmp_path, corpus_file, capsys):
    _, _, _, dmat, _, _ = chain(tmp_path, corpus_file)
    out = tmp_path / "s.txt"
    assert main(["seed", "--dmatrix", str(dmat), "--size", "50", "--out", str(out)]) == 0
    assert "note:" in capsys.readouterr().err
    doc = read_manifest(str(out) + ".manifest.json")
    assert doc["truncated"] is True


def test_evaluate_duplicate_seed_rows_add_zero(tmp_path, corpus_file, capsys):
    _, test, _, _, _, _ = chain(tmp_path, corpus_file)
    seeds = tmp_path / "dup.txt"
    seeds.write_text("1\tu01\t0.5\n2\tu01\t0.4\n")
    out = tmp_path / "r.tsv"
    assert main(["evaluate", "--seeds", str(seeds), "--test", str(test), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [ln.split("\t") for ln in out.read_text().splitlines()[1:]]
    assert rows[1][2] == "0"
    assert rows[0][3] == rows[1][3]


def test_baseline_methods(tmp_path, corpus_file, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("a\tb\nb\tc\na\tc\nc\td\n")
    out = tmp_path / "kcore.txt"
    assert main(["baseline", "--method", "kcore", "--edges", str(edges), "--size", "3", "--out", str(out)]) == 0
    rows = [ln.split("\t") for ln in out.read_text().splitlines()]
    assert [r[1] for r in rows] == ["a", "b", "c"]
    # avgsize needs --train, kcore needs --edges
    assert main(["baseline", "--method", "avgsize", "--size", "2", "--out", str(out)]) == 2
    assert main(["baseline", "--method", "kcore", "--size", "2", "--out", str(out)]) == 2
    capsys.readouterr()
    assert main(
        ["baseline", "--method", "avgsize", "--train", str(corpus_file), "--size", "2", "--out", str(out)]
    ) == 0
    rows = [ln.split("\t") for ln in out.read_text().splitlines()]
    # u03 averages 7/3, u01 averages 9/4, u02 averages 2.0
    assert rows[0][1] == "u03"


@pytest.mark.parametrize("method, flag", [("avgsize", "--train"), ("kcore", "--edges")])
def test_baseline_of_nothing_to_rank_is_exit_5_and_writes_nothing(tmp_path, method, flag, capsys):
    # a log with no cascades, an edge list with no edges
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n\n")
    out = tmp_path / "seeds.txt"
    assert main(["baseline", "--method", method, flag, str(empty), "--out", str(out)]) == 5
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.txt"]


def package_env():
    """The environment with the imported iminfector package's directory on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(iminfector.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


# Runs the commands of argv[1], a JSON list of argument lists, through
# cli.main in this one process, then prints which of numpy.ma and
# subprocess it imported.
IMPORTS_SCRIPT = """
import json, sys
from iminfector.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print([name for name in ("numpy.ma", "subprocess") if name in sys.modules])
"""


def test_commands_import_neither_numpy_ma_nor_subprocess(tmp_path, built_library):
    # each is several ms of every job's start: np.unique imports numpy.ma,
    # and only a build of the library, done here already, runs a compiler
    def out(name):
        return str(tmp_path / name)

    assert main(["synth", "--nodes", "60", "--cascades", "60", "--planted", "2", "--lures", "2",
                 "--out", out("log.txt"), "--edges-out", out("edges.txt")]) == 0
    commands = [
        ["split", "--cascades", out("log.txt"), "--train-out", out("train.txt"),
         "--test-out", out("test.txt")],
        ["stats", "--train", out("train.txt"), "--test", out("test.txt"), "--out", out("s.tsv")],
        ["baseline", "--method", "avgsize", "--train", out("train.txt"), "--out", out("a.txt")],
        ["baseline", "--method", "kcore", "--edges", out("edges.txt"), "--out", out("k.txt")],
        ["evaluate", "--seeds", out("a.txt"), "--test", out("test.txt"), "--out", out("r.tsv")],
        ["pipeline", "--cascades", out("log.txt"), "--outdir", out("run"), "--embed-dim", "4",
         "--epochs", "1"],
    ]
    proc = subprocess.run([sys.executable, "-c", IMPORTS_SCRIPT, json.dumps(commands)],
                          env=package_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_pipeline_reruns_byte_identical(tmp_path, corpus_file, kernel_name, kernel_isa,
                                        numpy_calls):
    synth = tmp_path / "synth.txt"
    assert main(
        ["synth", "--nodes", "60", "--cascades", "60", "--planted", "2", "--lures", "2",
         "--rng-seed", "1", "--out", str(synth)]
    ) == 0
    outs = []
    for run in ("r1", "r2"):
        outdir = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "iminfector", "pipeline",
             "--cascades", str(synth), "--outdir", str(outdir),
             "--embed-dim", "12", "--rng-seed", "5"],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("dni\timinfector=")
        outs.append(outdir)
    for name in ("seeds.txt", "result.tsv", "model.infv", "dmatrix.bin"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    doc = read_manifest(outs[0] / "manifest.json")
    assert doc["subcommand"] == "pipeline"
    assert doc["parameters"]["prune_percent"] == 10.0
    assert len(doc["epoch_loss_classify"]) == 5
    assert len(doc["epoch_seconds"]) == 5
    n_train = len((outs[0] / "train.txt").read_text().splitlines())
    assert doc["epoch_regress_steps"] == [n_train] * 5
    assert len(doc["epoch_classify_steps"]) == 5
    assert all(steps > n_train for steps in doc["epoch_classify_steps"])
    assert doc["classify_kernel"] == kernel_name
    assert doc["classify_isa"] == kernel_isa
    assert doc["stream_draws"] == ("c" if numpy_calls else "choice")
    assert_records_what_decides_the_bits(doc)


def cumulative_dni(result_tsv):
    """The cumulative_dni column of a result table."""
    lines = result_tsv.read_text().splitlines()
    assert lines[0].split("\t")[3] == "cumulative_dni"
    return [int(line.split("\t")[3]) for line in lines[1:]]


def test_dni_curve_is_the_result_table_cumulative_dni(tmp_path, corpus_file, capsys):
    synth = tmp_path / "synth.txt"
    assert main(["synth", "--nodes", "60", "--cascades", "60", "--planted", "2", "--lures", "2",
                 "--rng-seed", "4", "--out", str(synth)]) == 0
    run = tmp_path / "run"
    assert main(["pipeline", "--cascades", str(synth), "--outdir", str(run), "--embed-dim", "8",
                 "--epochs", "1", "--size", "6"]) == 0
    doc = read_manifest(run / "manifest.json")
    curve = cumulative_dni(run / "result.tsv")
    assert doc["dni_curve"] == curve and len(curve) == doc["n_selected"]
    assert curve[-1] == doc["dni"] and curve == sorted(curve)
    # evaluate, on the pipeline's seeds and on a list that repeats a seed,
    # which adds nothing the second time
    seeds = tmp_path / "seeds.txt"
    rows = (run / "seeds.txt").read_text().splitlines()
    for name, lines in (("same", rows), ("repeat", [rows[0], *rows])):
        seeds.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / f"{name}.tsv"
        assert main(["evaluate", "--seeds", str(seeds), "--test", str(run / "test.txt"),
                     "--out", str(out)]) == 0
        doc = read_manifest(str(out) + ".manifest.json")
        assert doc["dni_curve"] == cumulative_dni(out)
        assert doc["dni_curve"][-1] == doc["dni"]
    assert doc["dni_curve"] == [curve[0], *curve]
    capsys.readouterr()


# Touches MB megabytes, then forks and execs a command that writes a
# manifest: the exec'd process starts from the parent's memory.
FORKED_SYNTH = """
import os, sys
ballast = bytearray(int(sys.argv[1]) << 20)
ballast[::4096] = b"x" * len(ballast[::4096])
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, "-m", "iminfector", *sys.argv[2:]])
_, status = os.waitpid(pid, 0)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def test_manifest_peak_rss_is_the_process_own(tmp_path):
    out = tmp_path / "synth.txt"
    argv = ["synth", "--nodes", "60", "--cascades", "60", "--planted", "2", "--lures", "2",
            "--out", str(out)]
    proc = subprocess.run([sys.executable, "-c", FORKED_SYNTH, "256", *argv], env=package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    peak = read_manifest(str(out) + ".manifest.json")["peak_rss_mb"]
    # a Python process with numpy loaded, not the parent's 256 MB
    assert 5 < peak < 200


def test_pipeline_equals_stage_chain(tmp_path, capsys):
    synth = tmp_path / "synth.txt"
    assert main(
        ["synth", "--nodes", "60", "--cascades", "60", "--planted", "2", "--lures", "2",
         "--rng-seed", "2", "--out", str(synth)]
    ) == 0
    run, chain_dir = tmp_path / "run", tmp_path / "chain"
    chain_dir.mkdir()
    train_flags = ["--embed-dim", "8", "--epochs", "2", "--lr", "0.05", "--oversample", "1.5",
                   "--rng-seed", "3"]
    assert main(
        ["pipeline", "--cascades", str(synth), "--outdir", str(run), "--train-frac", "0.7",
         *train_flags, "--prune-percent", "30", "--size", "4"]
    ) == 0

    def c(name):
        return str(chain_dir / name)

    for argv in (
        ["split", "--cascades", str(synth), "--train-frac", "0.7",
         "--train-out", c("train.txt"), "--test-out", c("test.txt")],
        ["train", "--cascades", c("train.txt"), *train_flags, "--out", c("model.infv")],
        ["rank", "--model", c("model.infv"), "--prune-percent", "30", "--out", c("dmatrix.bin")],
        ["seed", "--dmatrix", c("dmatrix.bin"), "--size", "4", "--out", c("seeds.txt")],
        ["evaluate", "--seeds", c("seeds.txt"), "--test", c("test.txt"), "--out", c("result.tsv")],
        ["baseline", "--method", "avgsize", "--train", c("train.txt"), "--size", "4",
         "--out", c("baseline_avgsize_seeds.txt")],
        ["evaluate", "--seeds", c("baseline_avgsize_seeds.txt"), "--test", c("test.txt"),
         "--out", c("baseline_avgsize_result.tsv")],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    names = ["train.txt", "test.txt", "model.infv", "dmatrix.bin", "seeds.txt", "result.tsv",
             "baseline_avgsize_seeds.txt", "baseline_avgsize_result.tsv"]
    for name in names:
        assert (run / name).read_bytes() == (chain_dir / name).read_bytes(), name
    doc = read_manifest(run / "manifest.json")
    assert doc["outputs"] == sorted(str(run / name) for name in names)
    assert list(doc["wall_times"]) == ["baseline", "evaluate", "rank", "seed", "split", "train"]
    # and its manifest records every field the stages' own manifests do,
    # with the same values, timings and what each run was given aside
    own = {"tool", "version", "subcommand", "parameters", "inputs", "outputs", "wall_times",
           "peak_rss_mb", "epoch_seconds"}
    for name in ("model.infv", "dmatrix.bin", "seeds.txt", "result.tsv"):
        stage = read_manifest(c(name) + ".manifest.json")
        assert {key: doc.get(key) for key in stage.keys() - own} == {
            key: stage[key] for key in stage.keys() - own}, name
    baseline = read_manifest(c("baseline_avgsize_result.tsv") + ".manifest.json")
    assert doc["dni_avgsize"] == baseline["dni"]


# Out-of-range values of the flags that a subcommand shares with pipeline.
BAD_FLAGS = [
    ("split", "--train-frac", "0"),
    ("split", "--train-frac", "1"),
    ("train", "--embed-dim", "0"),
    ("train", "--epochs", "0"),
    ("train", "--lr", "-1"),
    ("train", "--lr", "inf"),
    ("train", "--oversample", "0"),
    ("train", "--oversample", "inf"),
    ("rank", "--prune-percent", "0"),
    ("rank", "--prune-percent", "101"),
    ("seed", "--size", "0"),
    ("baseline", "--size", "0"),
    ("synth", "--rng-seed", "-1"),
    ("train", "--rng-seed", "-1"),
]


@pytest.mark.parametrize("subcommand, flag, value", BAD_FLAGS)
def test_out_of_range_flag_is_exit_2_before_any_write(tmp_path, corpus_file, capsys,
                                                       subcommand, flag, value):
    # every input exists, so only the flag can be refused
    cascades, out = str(corpus_file), str(tmp_path / "out")
    argv = {
        "synth": ["--out", out],
        "split": ["--cascades", cascades, "--train-out", out, "--test-out", out + "2"],
        "train": ["--cascades", cascades, "--out", out],
        "rank": ["--model", cascades, "--out", out],
        "seed": ["--dmatrix", cascades, "--out", out],
        "baseline": ["--method", "avgsize", "--train", cascades, "--out", out],
    }[subcommand]
    assert main([subcommand, *argv, flag, value]) == 2
    assert flag in capsys.readouterr().err
    outdir = tmp_path / "run"
    assert main(["pipeline", "--cascades", cascades, "--outdir", str(outdir), flag, value]) == 2
    assert flag in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cascades.txt"]


def test_model_too_large_to_allocate_is_exit_2_before_model_write(tmp_path, corpus_file, capsys):
    # 10**15 is far beyond any machine: the allocation fails at once. At
    # 2**62 and 10**23 the arrays' bytes overflow int64, so numpy could not
    # even index them.
    for E in (10**15, 2**62, 10**23):
        # the corpus has I = 3 influencers and N = 10 nodes
        need = 8 * (3 * E + E * 10 + 10 + E)
        out = tmp_path / "m.infv"
        assert main(["train", "--cascades", str(corpus_file), "--out", str(out),
                     "--embed-dim", str(E)]) == 2, E
        err = capsys.readouterr().err
        assert err.startswith("error: --embed-dim") and err.count("\n") == 1, E
        assert f"E={E}, I=3, N=10" in err and f"{need} bytes" in err, E
        assert os.listdir(tmp_path) == ["cascades.txt"], E
        outdir = tmp_path / "run"
        assert main(["pipeline", "--cascades", str(corpus_file), "--outdir", str(outdir),
                     "--embed-dim", str(E)]) == 2, E
        err = capsys.readouterr().err
        assert err.startswith("error: --embed-dim") and err.count("\n") == 1, E
        # the model is allocated before the split is written
        assert os.listdir(tmp_path) == ["cascades.txt"], E


@pytest.fixture
def synth_60(tmp_path):
    """A 60-node, 60-cascade synthetic log, in tmp_path's directory "in"."""
    path = tmp_path / "in" / "synth.txt"
    path.parent.mkdir()
    assert main(["synth", "--nodes", "60", "--cascades", "60", "--planted", "2", "--lures", "2",
                 "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("oversample", ["1e15", "1e30", "1e308", repr(sys.float_info.max)])
def test_stream_too_large_is_exit_2_before_model_write(tmp_path, synth_60, capsys, oversample):
    # At 1e15 the stream's arrays cannot be allocated (exabytes); from 1e30
    # on its pairs overflow int64 and cannot be indexed, and from 1e308 on
    # oversample * m overflows float64 too. None allocates anything: each
    # fails at once.
    corpus = load_cascades(synth_60)
    train_corpus, _ = temporal_split(corpus, 0.8)
    small = ["--embed-dim", "4", "--epochs", "1", "--oversample", oversample]
    runs = {
        "train": (["train", "--cascades", str(synth_60), "--out", str(tmp_path / "m.infv")], corpus),
        "pipeline": (["pipeline", "--cascades", str(synth_60), "--outdir", str(tmp_path / "run")],
                     train_corpus),
    }
    for command, (argv, trained) in runs.items():
        _, pairs = context.context_draws(trained, float(oversample))
        # 1e15 gets as far as the allocation, 1e30 not
        assert (8 * pairs < 2**63) == (oversample == "1e15")
        assert main([*argv, *small]) == 2, command
        err = capsys.readouterr().err
        # exact below 2**63, to 3 figures from there on: at 1e308 the exact
        # count has 311 digits
        count = {
            "1e15": str(pairs),
            "1e30": {"train": "3.91e+32", "pipeline": "3.22e+32"}[command],
            "1e308": {"train": "3.91e+310", "pipeline": "3.22e+310"}[command],
            repr(sys.float_info.max): {"train": "7.03e+310", "pipeline": "5.79e+310"}[command],
        }[oversample]
        assert err == (f"error: --oversample {float(oversample)!r}: a stream of {count} pairs "
                       "is more than could be allocated\n"), command
    # no model or manifest, and no split: pipeline builds epoch 0's stream
    # before it makes --outdir
    assert os.listdir(tmp_path) == ["in"]


def test_tiny_oversample_keeps_one_draw_per_cascade(tmp_path, synth_60, capsys):
    # 1e-12 * m rounds to 0 through slack_ceil; every cascade keeps one draw
    out = tmp_path / "m.infv"
    assert main(["train", "--cascades", str(synth_60), "--out", str(out), "--embed-dim", "4",
                 "--epochs", "1", "--oversample", "1e-12"]) == 0
    doc = read_manifest(str(out) + ".manifest.json")
    n_cascades = load_cascades(synth_60).n_cascades
    assert doc["epoch_classify_steps"] == doc["epoch_regress_steps"] == [n_cascades]
    capsys.readouterr()


def test_tiny_prune_percent_keeps_one_candidate(tmp_path, synth_60, capsys):
    run = tmp_path / "run"
    assert main(["pipeline", "--cascades", str(synth_60), "--outdir", str(run), "--embed-dim", "4",
                 "--epochs", "1", "--prune-percent", "1e-12"]) == 0
    assert read_manifest(run / "manifest.json")["n_candidates"] == 1
    assert load_matrix(run / "dmatrix.bin")[0].n_candidates == 1
    capsys.readouterr()


def test_tiny_train_frac_keeps_one_train_cascade(tmp_path, synth_60, capsys):
    # 1e-12 * 60 rounds to 0 through slack_ceil; ceil of it is 1
    train, test = tmp_path / "train.txt", tmp_path / "test.txt"
    assert main(["split", "--cascades", str(synth_60), "--train-frac", "1e-12",
                 "--train-out", str(train), "--test-out", str(test)]) == 0
    doc = read_manifest(str(train) + ".manifest.json")
    assert (doc["n_train"], doc["n_test"]) == (1, load_cascades(synth_60).n_cascades - 1)
    assert load_cascades(train).n_cascades == 1
    capsys.readouterr()


def readme_invocations():
    """The README's ``iminfector`` command lines, in order, as argv lists."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("\n## Command line\n"):text.index("\n## Synthetic corpora\n")]
    return [line.split()[1:] for line in section.splitlines() if line.startswith("iminfector ")]


# The input-file flags each README invocation reads, by subcommand (and method).
README_INPUTS = {
    "synth": [],
    "pipeline": ["--cascades"],
    "split": ["--cascades"],
    "train": ["--cascades"],
    "rank": ["--model"],
    "seed": ["--dmatrix"],
    "evaluate": ["--seeds", "--test"],
    "stats": ["--train", "--test"],
    "baseline avgsize": ["--train"],
    "baseline kcore": ["--edges"],
}


def test_manifest_inputs_are_the_files_read(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    invocations = readme_invocations()
    assert sorted({argv[0] for argv in invocations}) == sorted({k.split()[0] for k in README_INPUTS})
    for argv in invocations:
        if argv[0] == "synth":
            # a small corpus, with the edge list the k-core baseline reads
            argv = [*argv, "--nodes", "60", "--cascades", "60", "--planted", "2", "--lures", "2",
                    "--edges-out", "edges.txt"]
        assert main(argv) == 0, argv
        capsys.readouterr()
        key = argv[0] + (" " + argv[argv.index("--method") + 1] if "--method" in argv else "")
        if argv[0] == "pipeline":
            manifest = os.path.join(argv[argv.index("--outdir") + 1], "manifest.json")
        else:
            first_out = "--train-out" if argv[0] == "split" else "--out"
            manifest = argv[argv.index(first_out) + 1] + ".manifest.json"
        inputs = read_manifest(manifest)["inputs"]
        flags = README_INPUTS[key]
        assert sorted(inputs) == sorted(flags), key
        for flag in flags:
            given = argv[argv.index(flag) + 1]
            with open(given, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            assert inputs[flag] == {"path": given, "sha256": digest}, (key, flag)
