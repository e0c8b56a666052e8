"""Output paths on the command line: a command that would write over one of
its inputs, or write two outputs to one file, exits 2 before any write, as
does one run by an unprivileged user on an input it cannot read or an
output in a directory it cannot write; and on any output names drawn under
a temp directory, every run ends 0 or 2, with nothing changed on 2 and a
regular file at each target on 0."""

import contextlib
import io
import os
import shutil
import stat
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iminfector.cli import PIPELINE_FILES, main

SMALL = ["--epochs", "1", "--embed-dim", "2"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory holding one input file of each kind."""
    root = tmp_path_factory.mktemp("inputs")
    synth = ["--nodes", "40", "--cascades", "30", "--planted", "1", "--lures", "1"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["synth", *synth, "--out", str(root / "c.txt"),
                     "--edges-out", str(root / "e.txt")]) == 0
        assert main(["pipeline", "--cascades", str(root / "c.txt"), "--outdir", str(root),
                     *SMALL]) == 0
    for name in os.listdir(root):
        if name.endswith(".json"):
            os.remove(root / name)
    return root


def snapshot(root):
    """Every entry under ``root``: its kind, and a regular file's bytes."""
    found = {}
    for directory, dirs, files in os.walk(root):
        for name in dirs + files:
            path = os.path.join(directory, name)
            mode = os.lstat(path).st_mode
            if stat.S_ISREG(mode):
                with open(path, "rb") as fh:
                    found[path] = fh.read()
            else:
                found[path] = stat.S_IFMT(mode)
    return found


def run(argv):
    """main(argv) with its output captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def command_line(sub, options, files, work):
    """The argv of ``sub`` with ``options`` and {flag: file name relative to ``work``}."""
    return [sub, *options, *(part for flag, name in files.items()
                             for part in (flag, os.path.join(work, name)))]


# Commands that name one file twice, with names relative to a directory
# holding the inputs: c.txt, e.txt and the pipeline's files.
SAME_FILE = {
    "split over its input":
        ("split", [], {"--cascades": "c.txt", "--train-out": "c.txt", "--test-out": "t.txt"}),
    "pipeline manifest over its input":
        ("pipeline", SMALL, {"--cascades": "c.txt", "--outdir": ".", "--manifest": "c.txt"}),
    "split sides to one file":
        ("split", [], {"--cascades": "c.txt", "--train-out": "a.txt", "--test-out": "a.txt"}),
    "split over a hard link to its input":
        ("split", [], {"--cascades": "c.txt", "--train-out": "link.txt", "--test-out": "t.txt"}),
    "split over its input, spelled otherwise":
        ("split", [], {"--cascades": "c.txt", "--train-out": "sub/../c.txt",
                       "--test-out": "t.txt"}),
    "side over the derived manifest":
        ("split", [], {"--cascades": "c.txt", "--train-out": "a.txt",
                       "--test-out": "a.txt.manifest.json"}),
    "pipeline file over its input":
        ("pipeline", SMALL, {"--cascades": "train.txt", "--outdir": "."}),
    "pipeline manifest at its outdir":
        ("pipeline", SMALL, {"--cascades": "c.txt", "--outdir": "new", "--manifest": "new"}),
    "pipeline manifest at a directory it makes":
        ("pipeline", SMALL, {"--cascades": "c.txt", "--outdir": "new/..", "--manifest": "new"}),
    "train pairs over its model":
        ("train", SMALL, {"--cascades": "train.txt", "--out": "m.infv", "--dump-pairs": "m.infv"}),
    "synth edges over its log":
        ("synth", [], {"--out": "s.txt", "--edges-out": "s.txt"}),
    "stats over an input":
        ("stats", [], {"--train": "train.txt", "--test": "test.txt", "--out": "test.txt"}),
    "evaluate manifest over its seeds":
        ("evaluate", [], {"--seeds": "seeds.txt", "--test": "test.txt", "--out": "r.tsv",
                          "--manifest": "seeds.txt"}),
}


@pytest.mark.parametrize("case", list(SAME_FILE))
def test_output_naming_an_input_or_another_output_is_exit_2(tmp_path, inputs, case):
    work = tmp_path / "work"
    shutil.copytree(inputs, work)
    (work / "sub").mkdir()
    os.link(work / "c.txt", work / "link.txt")
    before = snapshot(tmp_path)
    code, err = run(command_line(*SAME_FILE[case], work))
    assert code == 2
    assert err.startswith("error: ") and err.rstrip().endswith("name the same file")
    assert snapshot(tmp_path) == before


def test_outdir_spelled_through_directories_it_makes_runs(tmp_path, inputs):
    # new/b/../b/c makes new and new/b, each spelled twice, and names new/b/c
    work = tmp_path / "work"
    shutil.copytree(inputs, work)
    files = {"--cascades": "c.txt", "--outdir": "new/b/../b/c", "--manifest": "m.json"}
    code, err = run(command_line("pipeline", SMALL, files, work))
    assert code == 0, err
    assert (work / "new" / "b" / "c" / "seeds.txt").is_file() and (work / "m.json").is_file()


def test_inputs_may_name_one_file(tmp_path, inputs):
    out = tmp_path / "stats.tsv"
    argv = ["stats", "--train", str(inputs / "c.txt"), "--test", str(inputs / "c.txt")]
    assert run([*argv, "--out", str(out)])[0] == 0
    assert out.is_file()


# ---- output names drawn at random ----

# Each command: its other flags, its input files (copies of those of
# ``inputs`` in the work directory), its output flags and optional ones.
COMMANDS = [
    ("synth", ["--nodes", "40", "--cascades", "30", "--planted", "1", "--lures", "1"], {},
     ["--out"], ["--edges-out"]),
    ("split", [], {"--cascades": "c.txt"}, ["--train-out", "--test-out"], []),
    ("stats", [], {"--train": "train.txt", "--test": "test.txt"}, ["--out"], []),
    ("train", SMALL, {"--cascades": "train.txt"}, ["--out"], ["--dump-pairs"]),
    ("rank", [], {"--model": "model.infv"}, ["--out"], []),
    ("seed", [], {"--dmatrix": "dmatrix.bin"}, ["--out"], []),
    ("evaluate", [], {"--seeds": "seeds.txt", "--test": "test.txt"}, ["--out"], []),
    ("baseline", ["--method", "kcore"], {"--edges": "e.txt"}, ["--out"], []),
    ("pipeline", SMALL, {"--cascades": "c.txt"}, ["--outdir"], []),
]
# The work directory is three levels below the example's root, so that
# up to three ".." never leave the root.
DEPTH = 3
COMPONENT = st.one_of(
    st.sampled_from([".", "..", "dir", "fifo", "c.txt", "train.txt", "a.txt", "b.txt", "new"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0/"),
            min_size=1, max_size=6),
)
NAME = st.one_of(
    COMPONENT,
    st.sampled_from(["dir/a.txt", "../a.txt", "dir/../a.txt", "./b.txt", "new dir/", "dir/new/"]),
    st.builds(
        lambda parts, slash: "/".join(parts) + slash,
        st.lists(COMPONENT, min_size=2, max_size=DEPTH),
        st.sampled_from(["", "/"]),
    ),
)


@st.composite
def commands(draw):
    """(subcommand, its other flags, its inputs, {output flag: name}),
    file names relative to the work directory."""
    sub, options, sources, required, optional = draw(st.sampled_from(COMMANDS))
    flags = required + [flag for flag in optional if draw(st.booleans())]
    if draw(st.booleans()):
        flags.append("--manifest")
    return sub, options, sources, {flag: draw(NAME) for flag in flags}


def targets(root, outputs):
    """The files a run with these output names writes, if it ends 0."""
    paths = dict(outputs)
    if "--outdir" in paths:
        outdir = paths.pop("--outdir")
        paths.update({name: os.path.join(outdir, name) for name in PIPELINE_FILES})
        paths.setdefault("--manifest", os.path.join(outdir, "manifest.json"))
    first = outputs.get("--out", outputs.get("--train-out"))
    paths.setdefault("--manifest", f"{first}.manifest.json")
    return [os.path.join(root, path) for path in paths.values()]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(commands())
def test_random_output_paths_end_0_or_2(tmp_path, inputs, command):
    sub, options, sources, outputs = command
    root = tempfile.mkdtemp(dir=tmp_path)
    try:
        work = os.path.join(root, *["d"] * DEPTH)
        shutil.copytree(inputs, work)
        os.mkdir(os.path.join(work, "dir"))
        os.mkfifo(os.path.join(work, "fifo"))
        before = snapshot(root)
        code, err = run(command_line(sub, options, {**sources, **outputs}, work))
        assert code in (0, 2), (code, err)
        assert "Traceback" not in err
        if code == 2:
            assert snapshot(root) == before
        else:
            for path in targets(work, outputs):
                assert stat.S_ISREG(os.lstat(path).st_mode), path
    finally:
        shutil.rmtree(root)


# The uid and gid an unprivileged run takes where the suite runs as root.
NOBODY = "65534"


@pytest.fixture(scope="module")
def unprivileged(inputs):
    """(argv prefix, directory): the prefix runs a command as a user whom
    file modes bind, setpriv's as NOBODY where this process is root, who
    reads and writes past them, and none elsewhere. The directory, which
    that user can reach, holds c.txt (mode 644), secret.txt (mode 000), ro/
    (mode 555) and rw/ (mode 777)."""
    from test_cli import package_env

    prefix = []
    if os.geteuid() == 0:
        if shutil.which("setpriv") is None:
            pytest.skip("the suite runs as root, with no setpriv to drop its privileges")
        prefix = ["setpriv", "--reuid", NOBODY, "--regid", NOBODY, "--clear-groups"]
    root = tempfile.mkdtemp()
    try:
        os.chmod(root, 0o755)
        for name, mode in (("c.txt", 0o644), ("secret.txt", 0o000)):
            shutil.copyfile(inputs / "c.txt", os.path.join(root, name))
            os.chmod(os.path.join(root, name), mode)
        for name, mode in (("ro", 0o555), ("rw", 0o777)):
            os.mkdir(os.path.join(root, name))
            os.chmod(os.path.join(root, name), mode)
        proc = subprocess.run([*prefix, sys.executable, "-c", "import iminfector.cli"],
                              env=package_env(), cwd=root, capture_output=True, timeout=120)
        if proc.returncode:
            pytest.skip(f"an unprivileged user cannot import the package: {proc.stderr[-200:]}")
        yield prefix, root
    finally:
        shutil.rmtree(root)


def run_as(unprivileged, argv):
    """``iminfector argv`` in the unprivileged user's directory, as that
    user, with a native library cache it cannot make: (exit code, stderr)."""
    from test_cli import package_env

    prefix, root = unprivileged
    env = {**package_env(), "XDG_CACHE_HOME": os.path.join(root, "ro", "cache")}
    proc = subprocess.run([*prefix, sys.executable, "-m", "iminfector", *argv], env=env, cwd=root,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stderr


def listing(root):
    """Every path under ``root``."""
    return sorted(os.path.join(d, name) for d, dirs, files in os.walk(root) for name in dirs + files)


SPLIT = ["split", "--cascades", "c.txt", "--train-out", "rw/tr.txt", "--test-out", "rw/te.txt"]

# Commands that cannot read an input or write an output as an unprivileged
# user, and the argparse error each ends with.
UNREACHABLE = {
    "unreadable input": (
        ["split", "--cascades", "secret.txt", "--train-out", "rw/tr.txt", "--test-out", "rw/te.txt"],
        "argument --cascades: file not readable: secret.txt"),
    "output in a read-only directory": (
        ["split", "--cascades", "c.txt", "--train-out", "ro/tr.txt", "--test-out", "rw/te.txt"],
        "argument --train-out: directory not writable: ro"),
    "manifest in a read-only directory": (
        [*SPLIT, "--manifest", "ro/m.json"], "argument --manifest: directory not writable: ro"),
    "read-only outdir": (
        ["pipeline", "--cascades", "c.txt", "--outdir", "ro", *SMALL],
        "argument --outdir: directory not writable: ro"),
    "outdir missing under a read-only directory": (
        ["pipeline", "--cascades", "c.txt", "--outdir", "ro/new/run", *SMALL],
        "argument --outdir: directory not writable: ro"),
}


@pytest.mark.parametrize("case", sorted(UNREACHABLE))
def test_unreadable_input_or_unwritable_output_is_exit_2(unprivileged, case):
    # file modes bind the unprivileged user only: as root the check proves
    # nothing
    argv, error = UNREACHABLE[case]
    before = listing(unprivileged[1])
    code, err = run_as(unprivileged, argv)
    assert (code, err.splitlines()[-1]) == (2, f"iminfector {argv[0]}: error: {error}"), err
    assert listing(unprivileged[1]) == before


def test_unprivileged_user_writes_where_it_may(unprivileged):
    # the same user reads c.txt and writes into rw/, and a missing --outdir
    # under it is made
    root = unprivileged[1]
    assert run_as(unprivileged, SPLIT) == (0, "")
    code, err = run_as(unprivileged, ["pipeline", "--cascades", "c.txt", "--outdir", "rw/new/run",
                                      *SMALL])
    assert code == 0, err
    assert sorted(os.listdir(os.path.join(root, "rw", "new", "run"))) == sorted(
        [*PIPELINE_FILES, "manifest.json"])
