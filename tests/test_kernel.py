"""The native library: its loader and its cache, and the self-check of the
classify step's C loop."""

import contextlib
import ctypes
import io
import json
import math
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iminfector import _native
from iminfector import model as model_module
from iminfector.cascades import load_cascades
from iminfector.cli import main
from iminfector.context import TrainingStream, build_training_stream
from iminfector.diffusion import load_matrix
from iminfector.exceptions import NonFiniteUpdate
from iminfector.model import (
    ModelConfig,
    StepWorkspace,
    init_model,
    step_classify,
    step_regress,
    train,
)
from iminfector.synth import generate_corpus
from test_cli import package_env as cli_env
from test_columnar_equivalence import mutated_logs, stream_pairs
from test_text_fuzz import CORPUS, mutated
from test_model import (
    assert_same_model,
    copy_model,
    loop_step,
    random_model,
    reference_step_classify,
    reference_train,
    take_pairs,
    takes_arrays,
)


# The native library's cache directory when this module is imported,
# during collection: a module that reaches the library at import loads it
# from there.
CACHE_AT_IMPORT = _native.cache_dir()


def test_collection_uses_the_session_cache():
    assert CACHE_AT_IMPORT == _native.cache_dir()


def loop_passes_self_check(lib):
    with model_module._sgd_numpy():
        return model_module._loop_matches_step(lib)


def library_files(directory):
    return sorted(os.listdir(directory)) if os.path.isdir(directory) else []


def package_env(cache_home):
    return {**cli_env(), "XDG_CACHE_HOME": str(cache_home)}


# Loads the library in a fresh process and prints the library it loaded and
# whether it loaded and its C loop passed the self-check where the session's
# library runs numpy's own functions (argv[2]) and refused it elsewhere. A
# load that dies of a signal shows as a negative return code.
LOAD_SCRIPT = textwrap.dedent(
    """
    import sys, time
    import numpy as np
    from iminfector import _native
    from iminfector.model import _loop_matches_step
    time.sleep(max(0.0, float(sys.argv[1]) - time.time()))
    lib = _native.load()
    path = _native.cached_library(_native.cache_dir(), _native.name_prefix(_native.source()))
    with np.errstate(all="ignore"):
        print(path, lib is not None and _loop_matches_step(lib) == (sys.argv[2] == "True"))
    """
)


def load_in_process(cache_home, numpy_calls, start=0.0):
    return subprocess.Popen(
        [sys.executable, "-c", LOAD_SCRIPT, str(start), str(numpy_calls)],
        env=package_env(cache_home),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_import_builds_and_writes_nothing(tmp_path):
    code = "import iminfector.cli, iminfector.model, iminfector._native"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=package_env(tmp_path), capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(tmp_path) == []


def test_pipeline_without_compiler_or_cache_is_identical(tmp_path, monkeypatch, built_library,
                                                         kernel_name, kernel_isa, capsys):
    synth = tmp_path / "synth.txt"
    assert main(
        ["synth", "--nodes", "60", "--cascades", "60", "--planted", "2", "--lures", "2",
         "--rng-seed", "3", "--out", str(synth)]
    ) == 0
    argv = ["pipeline", "--cascades", str(synth), "--embed-dim", "12", "--epochs", "2"]
    assert main([*argv, "--outdir", str(tmp_path / "c")]) == 0
    printed = capsys.readouterr()
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    for name, cc, cache_home in (
        ("no-cc", "iminfector-no-such-cc", tmp_path / "cache"),
        ("unwritable", _native.CC, not_a_dir),
    ):
        with monkeypatch.context() as mp:
            mp.setattr(_native, "CC", cc)
            mp.setenv("XDG_CACHE_HOME", str(cache_home))
            # the library loads once per process: forget this one's
            _native.load.cache_clear()
            try:
                assert main([*argv, "--outdir", str(tmp_path / name)]) == 0
            finally:
                _native.load.cache_clear()
        # the fallback is quiet: the run prints what the C loop's run did
        assert capsys.readouterr() == printed
        assert library_files(tmp_path / "cache" / "iminfector") == []
        names = sorted(os.listdir(tmp_path / "c"))
        assert names == sorted(os.listdir(tmp_path / name))
        for artifact in names:
            if artifact != "manifest.json":
                got = (tmp_path / name / artifact).read_bytes()
                assert got == (tmp_path / "c" / artifact).read_bytes(), (name, artifact)
        manifest = (tmp_path / name / "manifest.json").read_text()
        assert '"classify_kernel": "numpy"' in manifest and '"classify_isa": null' in manifest
        assert '"cascade_reader": "python"' in manifest
    doc = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert (doc["classify_kernel"], doc["classify_isa"]) == (kernel_name, kernel_isa)
    assert doc["cascade_reader"] == "c"


def test_pipeline_is_identical_without_the_library_on_seeds_0_to_9(tmp_path, monkeypatch,
                                                                   direct_library, capsys):
    # the C loop against the numpy step, through every pipeline artifact
    for seed in range(10):
        synth = tmp_path / f"synth{seed}.txt"
        assert main(
            ["synth", "--nodes", "60", "--cascades", "60", "--planted", "2", "--lures", "2",
             "--rng-seed", str(seed), "--out", str(synth)]
        ) == 0
        argv = ["pipeline", "--cascades", str(synth), "--embed-dim", "12", "--epochs", "2",
                "--rng-seed", str(seed)]
        runs = {"c": tmp_path / f"c{seed}", "numpy": tmp_path / f"numpy{seed}"}
        assert main([*argv, "--outdir", str(runs["c"])]) == 0
        with monkeypatch.context() as mp:
            mp.setattr(_native, "load", lambda: None)
            assert main([*argv, "--outdir", str(runs["numpy"])]) == 0
        names = sorted(os.listdir(runs["c"]))
        assert names == sorted(os.listdir(runs["numpy"]))
        for name in names:
            if name != "manifest.json":
                got = (runs["numpy"] / name).read_bytes()
                assert got == (runs["c"] / name).read_bytes(), (seed, name)
        for kernel, outdir in runs.items():
            manifest = (outdir / "manifest.json").read_text()
            assert f'"classify_kernel": "{kernel}"' in manifest, (seed, kernel)
    capsys.readouterr()


def run_pipeline(argv, outdir):
    """main(argv + --outdir) with its output captured: (exit code, its
    "error:" lines, {artifact: bytes} but the manifest)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*argv, "--outdir", str(outdir)])
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    files = {name: (outdir / name).read_bytes() for name in sorted(os.listdir(outdir))
             if name != "manifest.json"} if outdir.is_dir() else {}
    return code, errors, files


def fraction(limit, inclusive):
    """A flag's value from 1e-12 up to ``limit``, at either end too."""
    ends = [1e-12, limit if inclusive else math.nextafter(limit, 0.0)]
    return st.one_of(st.sampled_from(ends), st.floats(1e-12, limit, exclude_max=not inclusive))


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=st.one_of(st.just(CORPUS), mutated(CORPUS),
                     mutated_logs().map(lambda lines: "\n".join(lines).encode())),
       embed_dim=st.integers(1, 3), epochs=st.integers(1, 2), train_frac=fraction(1.0, False),
       prune=fraction(100.0, True),
       oversample=st.one_of(fraction(3.0, True), st.just(sys.float_info.max)))
def test_pipeline_is_identical_without_the_library_on_drawn_corpora(
        tmp_path, monkeypatch, built_library, blob, embed_dim, epochs, train_frac, prune, oversample):
    # the library's scanner, context draws and C loop (at an E of 2 or 3)
    # against the Python parser, rng.choice and the numpy step, on the text
    # fuzz's byte mutations and the parser tests' generated logs (other id
    # shapes, repeated participants, times out of order): one exit code,
    # one error line and the same artifacts. An oversample of the largest
    # float makes a stream too large to allocate: exit 2 on both.
    work = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    corpus = work / "corpus.txt"
    corpus.write_bytes(blob)
    argv = ["pipeline", "--cascades", str(corpus), "--embed-dim", str(embed_dim), "--epochs",
            str(epochs), "--train-frac", repr(train_frac), "--prune-percent", repr(prune),
            "--oversample", repr(oversample)]
    want = run_pipeline(argv, work / "library")
    with monkeypatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        assert run_pipeline(argv, work / "python") == want
    if want[0] == 2:
        # a usage error is refused before pipeline makes --outdir
        assert not (work / "library").exists() and not (work / "python").exists()
    if want[0] == 0:
        # the rounding promises, each product in the package's order, less
        # float noise just above an integer, at least 1. temporal_split: the
        # earliest ceil(train_frac * count) cascades
        count = load_cascades(str(corpus)).n_cascades
        train_corpus = load_cascades(str(work / "library" / "train.txt"))
        n_train = train_corpus.n_cascades
        assert n_train == max(1, math.ceil(train_frac * count - 1e-9)), (n_train, count)
        # build_matrix: ceil(prune * I / 100) candidates of the I influencers
        doc = json.loads((work / "library" / "manifest.json").read_text())
        I = train_corpus.n_influencers
        assert doc["n_candidates"] == max(1, math.ceil(prune * I / 100 - 1e-9)), (prune, I)
        # build_training_stream: ceil(oversample * m) classify pairs per cascade of m events
        pairs = sum(max(1, math.ceil(oversample * m - 1e-9)) for m in train_corpus.sizes().tolist())
        assert doc["epoch_classify_steps"] == [pairs] * epochs
        # compute_budgets: ceil(N * norm / sum of norms) for each candidate
        matrix, budgets = load_matrix(work / "library" / "dmatrix.bin")
        N, total = matrix.probs.shape[1], math.fsum(matrix.norms)
        assert budgets.tolist() == [max(1, math.ceil(N * norm / total - 1e-9))
                                    for norm in matrix.norms.tolist()]
    shutil.rmtree(work)


@pytest.mark.parametrize("damage", ["garbage", "cut-short", "empty"])
def test_damaged_cached_library_is_rebuilt(tmp_path, built_library, numpy_calls, damage):
    good_path = _native.cached_library(_native.cache_dir(), _native.name_prefix(_native.source()))
    good = pathlib.Path(good_path).read_bytes()
    # the damaged file sits under the good library's name, so only its
    # bytes can tell it apart; loading a cut-short library can kill the
    # process with SIGBUS
    bad = {"garbage": os.urandom(len(good)), "cut-short": good[: len(good) // 2], "empty": b""}
    damaged_dir = tmp_path / "damaged" / "iminfector"
    os.makedirs(damaged_dir)
    (damaged_dir / os.path.basename(good_path)).write_bytes(bad[damage])
    proc = load_in_process(tmp_path / "damaged", numpy_calls)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, (proc.returncode, err)
    path, ok = out.split()
    assert ok == "True"
    assert os.path.basename(path) == os.path.basename(good_path)
    assert library_files(damaged_dir) == [os.path.basename(path)]
    assert pathlib.Path(path).read_bytes() == good


def test_concurrent_builds_end_with_one_library(tmp_path, built_library, numpy_calls):
    start = time.time() + 1.0
    procs = [load_in_process(tmp_path, numpy_calls, start) for _ in range(2)]
    results = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], [err for _, err in results]
    lines = [out.split() for out, _ in results]
    assert lines[0] == lines[1] and lines[0][1] == "True"
    # no temp directory or file is left beside the library
    assert library_files(tmp_path / "iminfector") == [os.path.basename(lines[0][0])]


def test_build_keeps_the_newest_libraries(tmp_path, built_library, numpy_calls):
    cache = tmp_path / "iminfector"
    cache.mkdir()
    # six stale libraries, oldest first: of another source, or of an older
    # package that named them step-*
    stale = [f"{kind}-{k}.so" for k, kind in enumerate(["step", "native"] * 3)]
    for age, name in enumerate(reversed(stale), start=1):
        (cache / name).write_bytes(b"stale")
        os.utime(cache / name, (time.time() - 3600 * age,) * 2)
    (cache / "notes.txt").write_text("not a library")
    proc = load_in_process(tmp_path, numpy_calls)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    path, ok = out.split()
    assert ok == "True"
    # the new library and the three newest stale ones
    assert library_files(cache) == sorted([os.path.basename(path), "notes.txt", *stale[-3:]])


def test_library_gone_before_it_is_opened_is_no_library(tmp_path, built_library, monkeypatch):
    # another process's build may prune the library between the digest
    # check and the dlopen: the package then runs without it
    good = _native.cached_library(_native.cache_dir(), _native.name_prefix(_native.source()))
    cache = tmp_path / "iminfector"
    cache.mkdir()
    copy = cache / os.path.basename(good)
    copy.write_bytes(pathlib.Path(good).read_bytes())
    found = _native.cached_library

    def found_then_pruned(directory, prefix):
        path = found(directory, prefix)
        os.remove(path)
        return path

    with monkeypatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path))
        mp.setattr(_native, "cached_library", found_then_pruned)
        _native.load.cache_clear()
        try:
            assert _native.load() is None
        finally:
            _native.load.cache_clear()
    assert not copy.exists()


# -Wstrict-prototypes is left out: it fails inside numpy's own headers.
# Every flag here is clang's too, so that a cc that is clang knows them;
# in C, -Wconversion includes -Wsign-conversion.
STRICT_WARNINGS = ("-Wall", "-Wextra", "-Wshadow", "-Wundef", "-Wvla", "-Wpointer-arith",
                   "-Wwrite-strings", "-Wformat=2", "-Wconversion", "-Wdouble-promotion",
                   "-Wnull-dereference", "-Wimplicit-fallthrough", "-Wbad-function-cast",
                   "-Wswitch-enum")


def test_source_compiles_without_warnings(tmp_path):
    # -Werror only here: in the build FLAGS a newer compiler's new warning
    # would turn into a failed build, and so into the numpy/Python paths
    if shutil.which(_native.CC) is None:
        pytest.skip("no C compiler on PATH")
    args = _native.compile_args()
    assert args[: len(_native.FLAGS)] == list(_native.FLAGS)
    assert args[-1] == "-I" + _native.python_abi()[1]
    assert os.path.isfile(os.path.join(_native.python_abi()[1], "Python.h"))
    (tmp_path / "native.c").write_bytes(_native.source())
    proc = subprocess.run(
        [_native.CC, *args, *STRICT_WARNINGS, "-Werror", "-o", "native.so", "native.c"],
        cwd=tmp_path, capture_output=True, text=True, timeout=_native.BUILD_TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr


# Drives the library at argv[1] over the scanner logs (long ids and 19- and
# 20-digit times among them) and writer corpora of test_cascade_io.py and
# the edge lists of test_edge_io.py, the arrays too short, of the wrong
# kind or sharing memory among them, and the canonical logs and their
# mutations; over the canonical events of test_columnar_equivalence.py and
# the misfits it refuses, an index out of range and offsets that descend
# among them, and over the edge lists of test_edge_io.py kept distinct
# through canonical_events, with empty and 3,000-edge cascades; over the C
# loop's self-check at the model shapes SHAPES, its argument errors and the
# context draws of test_context.py, counts of draws that are not multiples
# of 8 among them, on arrays that fit and on those draw_contexts refuses,
# each taken where the session's library runs numpy's own functions
# (argv[2]) and refused elsewhere; and, where it runs them, over the bounds
# the loop returns, the streams of EPOCH_STREAMS (one taken to its last
# pair, a size pair; one whose first size step is non-finite; one whose
# first cascade has no contexts) and the arrays it refuses (None) and
# takes (the empty stream's call). Then, on inputs drawn the same way each
# run, it reads test_text_fuzz.py's mutations of its cascade and edge files
# through the scanners, load_cascades and load_edges, against
# parse_cascades and parse_edges, each text copied first into a buffer of
# its own length; it puts raw cascades of test_columnar_equivalence.py through
# canonical_events, against _numpy_events, and test_cascade_io.py's
# corpora through write_cascades, each buffer copied first to its own
# length, against serialize_cascades; and, where the library runs numpy's
# own functions, it draws test_context.py's streams, whose delays of 0, 1
# and past 2**53 round as doubles, through draw_contexts against
# choice_contexts. Built with the address and undefined behaviour
# sanitizers, the library ends the process on a finding.
SANITIZED_SCRIPT = textwrap.dedent(
    """
    import sys
    import numpy as np
    from hypothesis import given, settings
    from iminfector import _native, cascades, model
    from iminfector.cascades import (
        _distinct_edges, _numpy_events, _render, _scan, serialize_cascades,
    )
    import test_cascade_io as io
    import test_context as context
    import test_columnar_equivalence as equivalence
    import test_edge_io as edge_io
    import test_kernel as kernel
    import test_text_fuzz as text_fuzz

    SHAPES = ((2, 2), (3, 13), (50, 300), (7, 2930))

    lib = _native.open_library(sys.argv[1])
    _native.load = lambda: lib
    runs = sys.argv[2] == "True"
    for data in io.scanner_logs().values():
        _scan(lib, data)
        for args in io.short_scans(lib, data):
            assert lib.scan_cascades(data, *args) == io.GIVE_UP
    io.assert_misfit_scans_refused(lib)
    for name, data in io.canonical_logs().items():
        assert io.exact_room(lib, data)["canonical"] == (name == "canonical")
    for data in edge_io.edge_logs().values():
        lib.scan_edges(data, *edge_io.scan_edges_room(data))
        for args in edge_io.short_edge_scans(lib, data):
            assert lib.scan_edges(data, *args) == (-1, 0)
    edge_io.assert_misfit_edge_scans_refused(lib)
    equivalence.assert_canonical_events_checked(lib)
    cascades._numpy_events = equivalence.refused  # the edges take the library's pass
    for ids, src, dst in edge_io.edge_cases().values():
        edges = _distinct_edges(ids, np.asarray(src, np.int32), np.asarray(dst, np.int32))
        assert (edges.ids, edges.src.tolist(), edges.dst.tolist()) == (
            edge_io.reference_distinct_edges(ids, src, dst))
    for corpus in io.WRITER_EDGE_CASES + io.WRITER_BAD_INDICES + io.WRITER_MISFITS:
        _render(lib, corpus)
    assert lib.write_cascades(*io.WRITER_ARGS) is not None
    assert lib.write_cascades(*io.WRITER_BAD_BOUNDS) is None
    with model._sgd_numpy():
        for shape in SHAPES:
            assert model._loop_matches_at(lib, *shape) == runs
        if runs:
            kernel.assert_bounds_returned(lib)
            kernel.assert_padded_rows_in_bounds(lib)
            kernel.assert_epoch_streams_taken(lib)
    if runs:
        kernel.assert_misfits_refused(lib)
    kernel.assert_argument_errors(lib)
    for seed, draws in enumerate((None, [17, 8, 0, 9], [7, 16, 1, 15])):
        args = context.draw_args(seed, draws)
        assert lib.draw_contexts(*args) is runs
    context.assert_misfit_draws_refused(lib)

    # lib, but each text it scans or writes from is first copied into a
    # numpy buffer of the text's own length: a bytes object ends in a NUL
    # byte that a read past the text would reach unseen. The writer's
    # arrays are copied too, as a corpus may hold a slice of a longer one.
    class ExactText:
        def __getattr__(self, name):
            return getattr(lib, name)

        def scan_cascades(self, text, *arrays):
            return lib.scan_cascades(np.frombuffer(text, np.uint8).copy(), *arrays)

        def scan_edges(self, text, *arrays):
            return lib.scan_edges(np.frombuffer(text, np.uint8).copy(), *arrays)

        def write_cascades(self, id_bytes, *arrays):
            return lib.write_cascades(np.frombuffer(id_bytes, np.uint8).copy(),
                                      *(a.copy() for a in arrays))

    exact = ExactText()
    _native.load = lambda: exact
    # the numpy path again: the library refuses an empty log's arrays, whose
    # empty buffers are not aligned
    cascades._numpy_events = _numpy_events
    drawn = settings(derandomize=True, database=None, deadline=None, max_examples=400)

    @drawn
    @given(text_fuzz.mutated(text_fuzz.CORPUS))
    def drawn_logs(blob):
        edge_io.read_file_of(blob, equivalence.assert_readers_agree)

    @drawn
    @given(text_fuzz.mutated(text_fuzz.EDGES))
    def drawn_edge_lists(blob):
        edge_io.assert_edges_read_alike(blob, exact)

    @drawn
    @given(equivalence.raw_cascades())
    def drawn_raws(raw):
        equivalence.assert_canonical_events_kept(lib, raw)

    @drawn
    @given(io.corpora())
    def drawn_corpora(corpus):
        assert _render(exact, corpus) == serialize_cascades(corpus).encode()

    @drawn
    @given(context.drawn_streams())
    def drawn_draws(stream):
        context.assert_draws_are_choice(lib, stream)

    for check in (drawn_logs, drawn_edge_lists, drawn_raws, drawn_corpora):
        check()
    if runs:
        drawn_draws()
    print("clean")
    """
)


def test_library_is_clean_under_the_sanitizers(tmp_path, monkeypatch, numpy_calls):
    if shutil.which(_native.CC) is None:
        pytest.skip("no C compiler on PATH")
    asan = subprocess.run([_native.CC, "-print-file-name=libasan.so"], capture_output=True,
                          text=True, timeout=60).stdout.strip()
    if not os.path.isabs(asan):
        pytest.skip(f"{_native.CC} has no AddressSanitizer runtime")
    sanitize = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all")
    monkeypatch.setattr(_native, "FLAGS", (*_native.FLAGS, *sanitize))
    path = _native.build(_native.source(), str(tmp_path), "sanitized-")
    env = package_env(tmp_path)
    env["PYTHONPATH"] += os.pathsep + os.path.dirname(os.path.abspath(__file__))
    env.update(LD_PRELOAD=asan, ASAN_OPTIONS="detect_leaks=0")
    proc = subprocess.run([sys.executable, "-c", SANITIZED_SCRIPT, path, str(numpy_calls)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, "clean\n"), proc.stderr[-4000:]


def test_name_prefix_digests_the_python_abi(monkeypatch):
    # a library built for another interpreter's ABI or headers is never loaded
    code = _native.source()
    suffix, include = _native.python_abi()
    prefix = _native.name_prefix(code)
    seen = {prefix}
    for abi in ((".cpython-399-x86_64-linux-gnu.so", include), (suffix, include + "-other")):
        monkeypatch.setattr(_native, "python_abi", lambda abi=abi: abi)
        seen.add(_native.name_prefix(code))
    assert len(seen) == 3
    monkeypatch.setattr(_native, "python_abi", lambda: (suffix, include))
    assert _native.name_prefix(code) == prefix


def cpu_flags():
    """The feature flags of the first CPU in /proc/cpuinfo; empty where there is none."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


X86_64_V2 = {"cx16", "lahf_lm", "popcnt", "pni", "sse4_1", "sse4_2", "ssse3"}
X86_64_V3 = X86_64_V2 | {"avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm", "movbe", "xsave"}
# the /proc/cpuinfo flags each -march level needs
MARCH_FLAGS = {
    "x86-64": set(),
    "x86-64-v3": X86_64_V3,
    "x86-64-v4": X86_64_V3 | {"avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"},
}
CLONES = b'#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))'


def assert_refused(lib, monkeypatch, runs_numpy_calls):
    """The self-check refuses the C loop of ``lib``, which runs numpy's own
    functions, and train, given that library, takes the numpy step and
    stays bitwise the reference loop."""
    assert runs_numpy_calls(lib) and not loop_passes_self_check(lib)
    assert_train_takes_numpy_step(lib, monkeypatch)


def assert_train_takes_numpy_step(lib, monkeypatch, n_nodes=60, n_cascades=60, embed_dim=8):
    """train, given the library ``lib``, takes the numpy step on a synthetic
    corpus of ``n_nodes`` and ``n_cascades`` and stays bitwise the reference
    loop."""
    corpus = generate_corpus(np.random.default_rng(41), n_nodes=n_nodes, n_cascades=n_cascades,
                             n_planted=2, n_lures=2)
    cfg = ModelConfig(embed_dim=embed_dim, learning_rate=0.1, epochs=1, rng_seed=2)
    streams = [build_training_stream(corpus, 1.2, cfg.rng_seed)]
    ref, want = reference_train(corpus, cfg, streams)
    monkeypatch.setattr(_native, "load", lambda: lib)
    model, report = train(init_model(cfg, corpus.influencer_ids(), corpus.node_ids()), streams.__getitem__, cfg)
    assert report.classify_kernel == "numpy" and report.classify_isa is None
    assert list(zip(report.classify_loss, report.regress_loss, report.classify_steps, report.regress_steps)) == want
    assert_same_model(ref, model, "mutant loop")


@pytest.mark.parametrize(
    "mutant",
    [
        b"row[j] = row[j] - (o * (g[j] * lr));",  # the product reordered
        b"row[j] = fma(-(o * g[j]), lr, row[j]);",  # a fused multiply-add
    ],
)
def test_self_check_refuses_a_kernel_with_other_rounding(tmp_path, direct_library, mutant,
                                                        monkeypatch, runs_numpy_calls):
    code = _native.source()
    exact = b"row[j] = row[j] - ((o * g[j]) * lr);"
    assert code.count(exact) == 1
    path = _native.build(code.replace(exact, mutant), str(tmp_path), "mutant-")
    assert_refused(_native.open_library(path), monkeypatch, runs_numpy_calls)


# Mutants of the size step that round otherwise: its loss as a product,
# where glibc's pow rounds some squares otherwise, and O_u C as a sum in
# order, as OpenBLAS's ddot sums only below 16 entries.
SIZE_MUTANTS = {
    "d * d": (b"*loss = libm_pow(d, 2.0);", b"*loss = d * d;"),
    "plain sum": (
        b"    return 0.0 + numpy_own.ddot((int64_t)E, x, 1, y, 1);\n",
        b"    double sum = 0.0;\n    for (size_t i = 0; i < E; i++)\n"
        b"        sum += x[i] * y[i];\n    return sum;\n",
    ),
}


@pytest.mark.parametrize("mutant", sorted(SIZE_MUTANTS))
def test_self_check_refuses_a_size_step_with_other_rounding(tmp_path, direct_library, mutant,
                                                           monkeypatch, runs_numpy_calls):
    d = 0.3412 - 0.5  # the self-check's first size pair's y_c - phi_c
    if mutant == "d * d" and math.pow(d, 2.0) == d * d:
        pytest.skip("this libm's pow squares the self-check's d as a product does")
    old, new = SIZE_MUTANTS[mutant]
    code = _native.source()
    assert code.count(old) == 1
    path = _native.build(code.replace(old, new), str(tmp_path), "mutant-")
    assert_refused(_native.open_library(path), monkeypatch, runs_numpy_calls)


# Mutants of numpy's own calls whose bits differ only past the fixed
# shapes of the self-check, each with the corpus size and E of a train run
# whose model they differ at: the softmax's sum split at 1,000 entries when
# it has more than 2,048, and the logits' sum over E split at 16 when E is
# more than 32. Each source change adds a first statement to the function.
WIDE_MUTANTS = {
    "sum split past 2,048 entries": (
        b"static double add_reduce(const double *x, size_t n)\n{\n",
        b"    if (n > 2048)\n        return add_reduce(x, 1000) + add_reduce(x + 1000, n - 1000);\n",
        dict(n_nodes=2400, n_cascades=20, embed_dim=8),
    ),
    "E-sum split past 32": (
        b"static void vector_matrix(const double *x, const double *a, double *out, size_t E, size_t N,\n"
        b"                          size_t ld)\n{\n",
        b"    if (E > 32) {\n"
        b"        vector_matrix(x, a, out, 16, N, ld);\n"
        b"        numpy_own.dgemv(ROW_MAJOR, TRANS, (int64_t)E - 16, (int64_t)N, 1.0, a + 16 * ld,\n"
        b"                        (int64_t)ld, x + 16, 1, 1.0, out, 1);\n"
        b"        return;\n"
        b"    }\n",
        dict(n_nodes=60, n_cascades=60, embed_dim=50),
    ),
}


@pytest.mark.parametrize("mutant", sorted(WIDE_MUTANTS))
def test_self_check_at_the_model_shape_refuses_a_wide_mutant(tmp_path, direct_library, mutant,
                                                             monkeypatch, runs_numpy_calls):
    head, first, train_shape = WIDE_MUTANTS[mutant]
    code = _native.source()
    assert code.count(head) == 1
    lib = _native.open_library(_native.build(code.replace(head, head + first), str(tmp_path), "wide-"))
    assert runs_numpy_calls(lib) and loop_passes_self_check(lib)
    with model_module._sgd_numpy():
        assert not model_module._loop_matches_at(lib, 50, 2930)
    assert_train_takes_numpy_step(lib, monkeypatch, **train_shape)


def test_self_check_refuses_a_kernel_built_with_fma_contraction(tmp_path, direct_library,
                                                                monkeypatch, runs_numpy_calls):
    # AVX-512F implies FMA: without -ffp-contract=off gcc fuses the update's
    # multiply and subtract in that clone, and the rounding changes
    flags = tuple(flag for flag in _native.FLAGS if flag != "-ffp-contract=off")
    assert len(flags) == len(_native.FLAGS) - 1
    monkeypatch.setattr(_native, "FLAGS", flags)
    lib = _native.open_library(_native.build(_native.source(), str(tmp_path), "fma-"))
    if lib.isa != "avx512f":
        pytest.skip(f"the {lib.isa} clone that runs here has no FMA to contract into")
    assert_refused(lib, monkeypatch, runs_numpy_calls)


@pytest.mark.parametrize("march", sorted(MARCH_FLAGS))
def test_each_isa_level_is_bitwise_numpy(tmp_path, direct_library, monkeypatch, march):
    # One copy of the loops, built for one instruction set, must match numpy
    # on the self-check and on steps of the wide-3000 benchmark's shape.
    if platform.machine() != "x86_64" or not MARCH_FLAGS[march] <= cpu_flags():
        pytest.skip(f"this host cannot run -march={march}")
    code = _native.source()
    assert code.count(CLONES) == 1
    monkeypatch.setattr(_native, "FLAGS", (*_native.FLAGS, f"-march={march}"))
    path = _native.build(code.replace(CLONES, b"#define CLONES"), str(tmp_path), "m-")
    lib = _native.open_library(path)
    assert loop_passes_self_check(lib)
    rng = np.random.default_rng(53)
    I, N, E = 3, 2930, 50
    ref = random_model(rng, I, N, E)
    ref.O *= 0.2
    ref.T *= 0.2
    new = copy_model(ref)
    ws = StepWorkspace(new)
    step = loop_step(lib)
    for s in range(6):
        u, y = s % I, int(rng.integers(0, N))
        assert step(new, u, y, 0.5, ws) == reference_step_classify(ref, u, y, 0.5)
        assert_same_model(ref, new, f"-march={march} step {s}")
    # the loop took every step: the numpy step's T update never ran
    assert ws.update is None


class DlInfo(ctypes.Structure):
    _fields_ = [
        ("dli_fname", ctypes.c_char_p),
        ("dli_fbase", ctypes.c_void_p),
        ("dli_sname", ctypes.c_char_p),
        ("dli_saddr", ctypes.c_void_p),
    ]


def test_step_isa_names_the_clone_that_runs(built_library):
    assert built_library.isa in ("avx512f", "avx2", "baseline")
    if platform.machine() == "x86_64" and platform.libc_ver()[0] == "glibc":
        # the resolver takes the first clone listed that the CPU supports
        flags = cpu_flags()
        want = "avx512f" if "avx512f" in flags else "avx2" if "avx2" in flags else "baseline"
        assert built_library.isa == want
    nm = shutil.which("nm")
    if nm is None:
        pytest.skip("no nm to list the library's clones")
    # the address the kernel's symbol resolved to, as an offset into the
    # library, against the local symbols of its clones
    path = _native.cached_library(_native.cache_dir(), _native.name_prefix(_native.source()))
    resolved = ctypes.cast(ctypes.CDLL(path).fused_t_update, ctypes.c_void_p).value
    info = DlInfo()
    dladdr = ctypes.CDLL(None).dladdr
    dladdr.argtypes = (ctypes.c_void_p, ctypes.POINTER(DlInfo))
    assert dladdr(resolved, ctypes.byref(info))
    listing = subprocess.run([nm, path], capture_output=True, text=True, check=True).stdout
    names = [
        name
        for address, kind, name in (line.split() for line in listing.splitlines() if line.count(" ") == 2)
        if int(address, 16) == resolved - info.dli_fbase and name.startswith("fused_t_update")
    ]
    assert len(names) == 1, names
    clone = names[0][len("fused_t_update"):].lstrip(".") or "default"
    assert {"default": "baseline"}.get(clone, clone) == built_library.isa


# Each change makes the model's array one the C loop cannot take: a
# Fortran-order O or T, or a strided b_t.
MISFIT = {
    "O": np.asfortranarray,
    "T": np.asfortranarray,
    "b_t": lambda b_t: np.repeat(b_t, 2)[::2],
}


@pytest.mark.parametrize("change", ["negative u", "O", "T", "b_t"])
def test_kernel_workspace_takes_numpy_update_when_arrays_change(direct_library, change):
    # The loop would write to the wrong row of O, or read or write an array
    # the wrong way: it takes no pair, and step_classify takes it.
    rng = np.random.default_rng(43)
    ref = random_model(rng, 3, 11, 4)
    new = copy_model(ref)
    ws = StepWorkspace(new)
    step = loop_step(direct_library)
    for s in range(6):
        u = s % 3
        if s >= 2 and change == "negative u":
            u -= 3
        elif s == 2:
            # the reference takes the same layout, so that numpy's matmul
            # takes the same BLAS call on both
            for m in (ref, new):
                setattr(m, change, MISFIT[change](getattr(m, change)))
        assert step(new, u, s, 0.1, ws) == reference_step_classify(ref, u, s, 0.1)
        assert_same_model(ref, new, f"step {s}")
        # steps 0 and 1 are the loop's
        assert (ws.update is None) == (s < 2)


def loop_args(model, ws, stream, classify, regress, lr=0.1):
    """train_pairs' arguments on the arrays of ``model``, ``ws`` and
    ``stream``, the losses into ``classify`` and ``regress``."""
    return (model.O, model.T, model.b_t, ws.phi, ws.grad, classify, regress, stream.influencer,
            stream.size_target, stream.offsets, stream.context, lr, model.b_c, ws.bound,
            ws.bias_bound)


# The misfits of the stream and the losses: the loop refuses them, but
# takes the model's and the workspace's arrays.
STREAM_MISFITS = (
    "int64 context", "a context past the columns of T", "a negative context",
    "classify losses over context", "int32 influencer", "an influencer past the rows of O",
    "a negative influencer", "float32 size_target", "regress losses over size_target",
    "regress losses over classify losses", "influencer one short", "size_target one short",
    "offsets one short", "classify losses one short", "regress losses one short",
    "offsets from 1", "offsets short of the contexts", "offsets past the contexts",
    "descending offsets",
)


def strided_t(row_stride):
    """A writable 4 x 9 float64 array whose rows lie ``row_stride`` bytes
    apart, its first row at entry 32 of a zeroed buffer of 80 that holds
    all of it."""
    return np.lib.stride_tricks.as_strided(np.zeros(80)[32:], (4, 9), (row_stride, 8))


def loop_misfits():
    """(what, model, ws, stream, classify, regress) for each set of
    arguments the C loop cannot take: the model's arrays, the workspace's,
    the stream's or the losses. Each writable array shares memory with
    another argument in one case. Then the arguments it takes: the model
    as init_model makes it, T's rows 16 entries apart, and the same model
    with a packed T. The stream is two cascades, of influencers 1 and 0."""
    rng = np.random.default_rng(47)
    base = random_model(rng, 3, 9, 4)
    shared = np.zeros(3 * 4 + 4 * 9)
    # T in the first 9 columns of 18, the rest of each row padding: row 2's
    # lies past T's 4 x 9 entries from its start, but before its last row
    wide = np.zeros((4, 18))
    stream = dict(influencer=np.array([1, 0]), size_target=np.array([0.25, 0.75]),
                  offsets=np.array([0, 2, 3]), context=np.array([1, 2, 3], dtype=np.int32))
    # three int32 contexts, then three float64 losses over them
    context_and_losses = np.array([1, 2, 3, 0, 0, 0], dtype=np.int32)
    # two size targets, and two losses over the second and past it
    targets_and_losses = np.array([0.25, 0.75, 0.0])
    misfits = {
        "T in Fortran order": dict(T=np.asfortranarray(base.T)),
        "T's rows overlapping": dict(T=strided_t(64)),
        "T's rows in reverse": dict(T=strided_t(-72)),
        "every other column of T": dict(T=np.zeros((4, 18))[:, ::2]),
        # refused by its format too: numpy exports rows not all aligned as "=d"
        "T's rows 76 bytes apart": dict(T=strided_t(76)),
        "b_t in T's padding": dict(T=wide[:, :9], b_t=wide[2, 9:]),
        "phi in T's padding": dict(T=wide[:, :9], phi=wide[2, 9:]),
        "float32 b_t": dict(b_t=base.b_t.astype(np.float32)),
        "strided O": dict(O=np.repeat(base.O, 2, axis=0)[::2]),
        "read-only T": dict(T=np.frombuffer(base.T.tobytes()).reshape(4, 9)),
        "O and T overlap": dict(O=shared[:12].reshape(3, 4), T=shared[11:47].reshape(4, 9)),
        "T and b_t overlap": dict(T=shared[:36].reshape(4, 9), b_t=shared[30:39]),
        "b_t too short": dict(b_t=base.b_t[:8].copy()),
        "phi and grad overlap": dict(phi=shared[:9], grad=shared[5:9]),
        "int64 context": dict(context=stream["context"].astype(np.int64)),
        "a context past the columns of T": dict(context=np.array([1, 9, 3], dtype=np.int32)),
        "a negative context": dict(context=np.array([1, 2, -1], dtype=np.int32)),
        "classify losses over context": dict(context=context_and_losses[:3],
                                             classify=context_and_losses.view(np.float64)),
        "int32 influencer": dict(influencer=np.array([1, 0], dtype=np.int32)),
        "an influencer past the rows of O": dict(influencer=np.array([1, 3])),
        "a negative influencer": dict(influencer=np.array([1, -1])),
        "float32 size_target": dict(size_target=np.array([0.25, 0.75], dtype=np.float32)),
        "regress losses over size_target": dict(size_target=targets_and_losses[:2],
                                                regress=targets_and_losses[1:]),
        "regress losses over classify losses": dict(classify=shared[:3], regress=shared[2:4]),
        "influencer one short": dict(influencer=np.array([1])),
        "size_target one short": dict(size_target=np.array([0.25])),
        "offsets one short": dict(offsets=np.array([0, 3])),
        "classify losses one short": dict(classify=np.full(2, np.nan)),
        "regress losses one short": dict(regress=np.full(1, np.nan)),
        "offsets from 1": dict(offsets=np.array([1, 2, 3])),
        "offsets short of the contexts": dict(offsets=np.array([0, 2, 2])),
        "offsets past the contexts": dict(offsets=np.array([0, 2, 4])),
        # cascade 0 would read context 3, past the contexts
        "descending offsets": dict(offsets=np.array([0, 4, 3])),
    }
    assert set(STREAM_MISFITS) <= set(misfits)
    for what, arrays in misfits.items():
        model = copy_model(base)
        ws = StepWorkspace(model)
        pairs = dict(stream, classify=np.full(3, np.nan), regress=np.full(2, np.nan))
        for name, value in arrays.items():
            if name in pairs:
                pairs[name] = value
            else:
                setattr(ws if name in ("phi", "grad") else model, name, value)
        classify, regress = pairs.pop("classify"), pairs.pop("regress")
        yield what, model, ws, TrainingStream(**pairs), classify, regress
    assert base.T.strides == (128, 8)
    for what, model in (("fits", base), ("fits, T packed", copy_model(base))):
        yield (what, model, StepWorkspace(model), TrainingStream(**stream), np.full(3, np.nan),
               np.full(2, np.nan))


def stream_arrays(stream, classify, regress):
    """The stream's arrays and the losses."""
    return stream.influencer, stream.size_target, stream.offsets, stream.context, classify, regress


def assert_misfits_refused(lib):
    """train_pairs takes the pairs of arrays that fit, and returns None for
    each misfit, having taken no pair and changed nothing; its call on an
    empty stream tells the two apart for the model's and workspace's
    arrays."""
    for what, model, ws, stream, classify, regress in loop_misfits():
        before = copy_model(model)
        arrays = [a.copy() for a in stream_arrays(stream, classify, regress)]
        taken = lib.train_pairs(*loop_args(model, ws, stream, classify, regress))
        if what.startswith("fits"):
            assert taken[0] == 5 and not np.isnan(classify).any() and not np.isnan(regress).any()
        else:
            assert taken is None, what
            assert_same_model(before, model, what)
            for a, b in zip(stream_arrays(stream, classify, regress), arrays):
                assert np.array_equal(a, b, equal_nan=True), what
        assert takes_arrays(lib, model, ws) == (what.startswith("fits") or what in STREAM_MISFITS)


# The misfits of the model's arrays that the numpy step trains.
NUMPY_MISFITS = ("T in Fortran order", "float32 b_t", "strided O")


def test_workspace_refuses_the_kernel_for_arrays_it_cannot_take(direct_library, monkeypatch):
    # The self-check reads only the model's shape, so train takes the loop
    # for every model: the loop refuses each epoch on a model it cannot
    # take, and the numpy steps take its pairs. The report names the step
    # that ran, with its bits.
    assert_misfits_refused(direct_library)
    rng = np.random.default_rng(67)
    # 40 pairs: 8 cascades of 4 contexts and a size pair
    stream = TrainingStream(rng.integers(0, 3, 8), rng.uniform(size=8), np.arange(0, 33, 4),
                            rng.integers(0, 9, 32).astype(np.int32))
    cfg = ModelConfig(embed_dim=4, learning_rate=0.1, epochs=2)
    for (what, model, *_), (_, want, *_) in zip(loop_misfits(), loop_misfits()):
        if what not in NUMPY_MISFITS and not what.startswith("fits"):
            continue
        with monkeypatch.context() as mp:
            mp.setattr(_native, "load", lambda: None)
            _, want_report = train(want, lambda epoch: stream, cfg)
        _, report = train(model, lambda epoch: stream, cfg)
        assert (report.classify_loss, report.regress_loss) == (want_report.classify_loss,
                                                               want_report.regress_loss), what
        assert_same_model(want, model, what)
        ran = ("c", direct_library.isa) if what.startswith("fits") else ("numpy", None)
        assert (report.classify_kernel, report.classify_isa) == ran, what


def assert_bounds_returned(lib):
    """A call of the loop from inf bounds returns the b_c and the finite
    bounds that the same steps leave in a model and a workspace of the
    numpy steps, bit for bit."""
    rng = np.random.default_rng(61)
    ref = random_model(rng, 3, 13, 4)
    new = copy_model(ref)
    stream = TrainingStream(np.array([1]), np.array([0.5]), np.array([0, 5]),
                            np.array([1, 5, 12, 0, 7], dtype=np.int32))
    ws_ref, ws = StepWorkspace(ref), StepWorkspace(new)
    classify, regress = np.full(5, np.nan), np.full(1, np.nan)
    with model_module._sgd_numpy():
        want = [step_classify(ref, 1, y, 0.1, ws_ref) for y in stream.context.tolist()]
        want_regress = step_regress(ref, 1, 0.5, 0.1)
        stop, b_c, bound, bias_bound = lib.train_pairs(*loop_args(new, ws, stream, classify,
                                                                  regress))
    assert (ws.bound, ws.bias_bound) == (math.inf, math.inf)
    assert stop == 6 and classify.tolist() == want and regress.tolist() == [want_regress]
    assert math.isfinite(bound) and math.isfinite(bias_bound)
    assert (bound.hex(), bias_bound.hex()) == (ws_ref.bound.hex(), ws_ref.bias_bound.hex())
    assert b_c.hex() == float(ref.b_c).hex()
    new.b_c = b_c
    assert_same_model(ref, new, "stretch")


def test_loop_returns_the_bounds_its_steps_leave(direct_library):
    assert_bounds_returned(direct_library)


def assert_padded_rows_in_bounds(lib):
    """The loop takes a T whose rows lie 48 entries apart in a buffer that
    ends at the last row's 41st entry, bit for bit as step_classify takes a
    packed copy. The buffer is past numpy's small-block cache, so under
    AddressSanitizer a pass over T that ran to the end of the last row's
    padding would overflow it."""
    E, N, ld = 4, 41, 48
    ref = random_model(np.random.default_rng(71), 3, N, E)
    new = copy_model(ref)
    new.T = np.lib.stride_tricks.as_strided(np.empty((E - 1) * ld + N), (E, N), (ld * 8, 8))
    new.T[...] = ref.T
    context = np.array([1, 40, 7, 0], dtype=np.int32)
    ws_ref, ws = StepWorkspace(ref), StepWorkspace(new)
    losses = np.full(4, np.nan)
    with model_module._sgd_numpy():
        want = [step_classify(ref, 2, y, 0.1, ws_ref) for y in context.tolist()]
        assert take_pairs(lib, new, ws, 2, context, 0.1, losses) == 4
    assert losses.tolist() == want
    assert_same_model(ref, new, "rows that end the buffer")


# Streams of three influencers and 13 nodes, each (influencer, size_target,
# offsets, context): one taken to its end, which is a size pair, with an
# empty cascade among the others; one whose first size pair's loss, (1e300
# - phi_c) ** 2, overflows after two context pairs; and one whose first
# cascade is empty.
EPOCH_STREAMS = {
    "to the end": ([2, 0, 1, 0], [0.5, 0.0, 1.0, 0.25], [0, 3, 3, 5, 6], [4, 0, 12, 7, 7, 1]),
    "first size step non-finite": ([1, 2], [1e300, 0.5], [0, 2, 3], [3, 9, 0]),
    "an empty first cascade": ([0, 2], [0.75, 0.1], [0, 0, 2], [11, 2]),
}


def assert_epoch_streams_taken(lib):
    """train_pairs takes each of EPOCH_STREAMS as the numpy steps take its
    pairs one by one, bit for bit: the losses, the model, b_c among it, the
    bounds and where it stops."""
    for what, (influencer, size_target, offsets, context) in EPOCH_STREAMS.items():
        stream = TrainingStream(np.array(influencer), np.array(size_target), np.array(offsets),
                                np.array(context, dtype=np.int32))
        ref = random_model(np.random.default_rng(73), 3, 13, 4)
        new = copy_model(ref)
        ws_ref, ws = StepWorkspace(ref), StepWorkspace(new)
        classify, regress = np.full(len(context), np.nan), np.full(len(influencer), np.nan)
        want_classify, want_regress = [], []
        with model_module._sgd_numpy():
            try:
                for kind, u, target in stream_pairs(stream):
                    if kind == "C":
                        want_classify.append(step_classify(ref, u, target, 0.1, ws_ref))
                    else:
                        want_regress.append(step_regress(ref, u, target, 0.1))
                want_stop = len(stream)
            except NonFiniteUpdate:
                want_stop = ~(len(want_classify) + len(want_regress))
            stop = model_module._take_stream(lib, new, ws, stream, 0.1, classify, regress)
        assert stop == want_stop == (~2 if what.startswith("first size") else len(stream)), what
        assert classify[: len(want_classify)].tolist() == want_classify, what
        assert regress[: len(want_regress)].tolist() == want_regress, what
        assert_same_model(ref, new, what)
        assert (ws.bound, ws.bias_bound) == (ws_ref.bound, ws_ref.bias_bound), what


def test_loop_takes_each_stream_as_the_numpy_steps(direct_library):
    assert_epoch_streams_taken(direct_library)


def assert_argument_errors(lib):
    """Each call of lib.train_pairs with a bad argument raises its error
    and changes nothing: not O, T, b_t or the losses."""
    model = random_model(np.random.default_rng(59), 3, 11, 4)
    before = copy_model(model)
    ws = StepWorkspace(model)
    classify, regress = np.full(3, 7.0), np.full(2, 7.0)
    stream = TrainingStream(np.array([0, 1]), np.array([0.5, 0.25]), np.array([0, 2, 3]),
                            np.array([1, 2, 3], dtype=np.int32))
    arrays = loop_args(model, ws, stream, classify, regress)[:11]
    reals = (0.1, 0.0, 2.0, 3.0)
    cases = [(*arrays, *reals[:3]), (*arrays, *reals, None)]
    cases += [(*arrays, *reals[:k], bad, *reals[k + 1:]) for k in range(4) for bad in ("x", None)]
    for args in cases:
        with pytest.raises(TypeError):
            lib.train_pairs(*args)
        assert_same_model(before, model, repr(args[11:]))
        assert (classify == 7.0).all() and (regress == 7.0).all(), args[11:]
    # losses that are not an array are refused as arrays of another kind are
    for k in (5, 6):
        assert lib.train_pairs(*arrays[:k], None, *arrays[k + 1:], *reals) is None
    assert_same_model(before, model, "no losses")


def test_loop_refuses_bad_arguments_and_changes_nothing(direct_library):
    assert_argument_errors(direct_library)
