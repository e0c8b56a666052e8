"""The native library: its loader and its cache, and the self-check of the
classify step's C kernel."""

import ctypes
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from iminfector import _native
from iminfector.cli import main
from iminfector.model import StepWorkspace, _matches_numpy, step_classify
from test_cli import package_env as cli_env
from test_model import assert_same_model, copy_model, random_model, reference_step_classify


@pytest.fixture
def built_kernel(classify_kernel):
    if classify_kernel is None:
        pytest.skip("no C compiler on PATH")
    return classify_kernel


def library_files(directory):
    return sorted(os.listdir(directory)) if os.path.isdir(directory) else []


def package_env(cache_home):
    return {**cli_env(), "XDG_CACHE_HOME": str(cache_home)}


# Loads the kernel in a fresh process and prints the library it loaded and
# whether the kernel passed the self-check. A load that dies of a signal
# shows as a negative return code.
LOAD_SCRIPT = textwrap.dedent(
    """
    import sys, time
    from iminfector import _native
    from iminfector.model import _matches_numpy
    time.sleep(max(0.0, float(sys.argv[1]) - time.time()))
    kernel = _native.step_kernel()
    path = _native.cached_library(_native.cache_dir(), _native.name_prefix(_native.source()))
    print(path, kernel is not None and _matches_numpy(kernel))
    """
)


def load_in_process(cache_home, start=0.0):
    return subprocess.Popen(
        [sys.executable, "-c", LOAD_SCRIPT, str(start)],
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


def test_pipeline_without_compiler_or_cache_is_identical(tmp_path, monkeypatch, built_kernel,
                                                         capsys):
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
        # the fallback is quiet: the run prints what the kernel's run did
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
    manifest = (tmp_path / "c" / "manifest.json").read_text()
    assert '"classify_kernel": "c"' in manifest and '"cascade_reader": "c"' in manifest
    assert f'"classify_isa": "{built_kernel.isa}"' in manifest


@pytest.mark.parametrize("damage", ["garbage", "cut-short", "empty"])
def test_damaged_cached_library_is_rebuilt(tmp_path, built_kernel, damage):
    good_path = _native.cached_library(_native.cache_dir(), _native.name_prefix(_native.source()))
    good = pathlib.Path(good_path).read_bytes()
    # the damaged file sits under the good library's name, so only its
    # bytes can tell it apart; loading a cut-short library can kill the
    # process with SIGBUS
    bad = {"garbage": os.urandom(len(good)), "cut-short": good[: len(good) // 2], "empty": b""}
    damaged_dir = tmp_path / "damaged" / "iminfector"
    os.makedirs(damaged_dir)
    (damaged_dir / os.path.basename(good_path)).write_bytes(bad[damage])
    proc = load_in_process(tmp_path / "damaged")
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, (proc.returncode, err)
    path, ok = out.split()
    assert ok == "True"
    assert os.path.basename(path) == os.path.basename(good_path)
    assert library_files(damaged_dir) == [os.path.basename(path)]
    assert pathlib.Path(path).read_bytes() == good


def test_concurrent_builds_end_with_one_library(tmp_path, built_kernel):
    start = time.time() + 1.0
    procs = [load_in_process(tmp_path, start) for _ in range(2)]
    results = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], [err for _, err in results]
    lines = [out.split() for out, _ in results]
    assert lines[0] == lines[1] and lines[0][1] == "True"
    # no temp directory or file is left beside the library
    assert library_files(tmp_path / "iminfector") == [os.path.basename(lines[0][0])]


def test_build_keeps_the_newest_libraries(tmp_path, built_kernel):
    cache = tmp_path / "iminfector"
    cache.mkdir()
    # six stale libraries, oldest first: of another source, or of an older
    # package that named them step-*
    stale = [f"{kind}-{k}.so" for k, kind in enumerate(["step", "native"] * 3)]
    for age, name in enumerate(reversed(stale), start=1):
        (cache / name).write_bytes(b"stale")
        os.utime(cache / name, (time.time() - 3600 * age,) * 2)
    (cache / "notes.txt").write_text("not a library")
    proc = load_in_process(tmp_path)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    path, ok = out.split()
    assert ok == "True"
    # the new library and the three newest stale ones
    assert library_files(cache) == sorted([os.path.basename(path), "notes.txt", *stale[-3:]])


def test_library_gone_before_it_is_opened_is_no_library(tmp_path, built_kernel, monkeypatch):
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
            assert _native.load() is None and _native.step_kernel() is None
        finally:
            _native.load.cache_clear()
    assert not copy.exists()


def test_source_compiles_without_warnings(tmp_path):
    # -Werror only here: in the build FLAGS a newer compiler's new warning
    # would turn into a failed build, and so into the numpy/Python paths
    if shutil.which(_native.CC) is None:
        pytest.skip("no C compiler on PATH")
    (tmp_path / "native.c").write_bytes(_native.source())
    proc = subprocess.run(
        [_native.CC, *_native.FLAGS, "-Wall", "-Wextra", "-Werror", "-o", "native.so", "native.c"],
        cwd=tmp_path, capture_output=True, text=True, timeout=_native.BUILD_TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr


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


def assert_refused(kernel):
    """The self-check refuses ``kernel``, and the workspace's steps stay
    bitwise those of the reference."""
    rng = np.random.default_rng(41)
    ref = random_model(rng, 3, 17, 4)
    new = copy_model(ref)
    assert not _matches_numpy(kernel)
    ws = StepWorkspace(new, kernel)
    assert ws.kernel is None
    for s in range(10):
        u, y = s % 3, (5 * s) % 17
        assert step_classify(new, u, y, 0.1, ws) == reference_step_classify(ref, u, y, 0.1)
    assert_same_model(ref, new, "mutant kernel")


@pytest.mark.parametrize(
    "mutant",
    [
        b"row[j] = row[j] - (o * (g[j] * lr));",  # the product reordered
        b"row[j] = fma(-(o * g[j]), lr, row[j]);",  # a fused multiply-add
    ],
)
def test_self_check_refuses_a_kernel_with_other_rounding(tmp_path, built_kernel, mutant):
    code = _native.source()
    exact = b"row[j] = row[j] - ((o * g[j]) * lr);"
    assert code.count(exact) == 1
    path = _native.build(code.replace(exact, mutant), str(tmp_path), "mutant-")
    assert_refused(_native.open_library(path).fused_t_update)


def test_self_check_refuses_a_kernel_built_with_fma_contraction(tmp_path, built_kernel,
                                                                monkeypatch):
    # AVX-512F implies FMA: without -ffp-contract=off gcc fuses the update's
    # multiply and subtract in that clone, and the rounding changes
    flags = tuple(flag for flag in _native.FLAGS if flag != "-ffp-contract=off")
    assert len(flags) == len(_native.FLAGS) - 1
    monkeypatch.setattr(_native, "FLAGS", flags)
    kernel = _native.open_library(_native.build(_native.source(), str(tmp_path), "fma-")).fused_t_update
    if kernel.isa != "avx512f":
        pytest.skip(f"the {kernel.isa} clone that runs here has no FMA to contract into")
    assert_refused(kernel)


@pytest.mark.parametrize("march", sorted(MARCH_FLAGS))
def test_each_isa_level_is_bitwise_numpy(tmp_path, built_kernel, monkeypatch, march):
    # One copy of the loops, built for one instruction set, must match numpy
    # on the self-check and on steps of the wide-3000 benchmark's shape.
    if platform.machine() != "x86_64" or not MARCH_FLAGS[march] <= cpu_flags():
        pytest.skip(f"this host cannot run -march={march}")
    code = _native.source()
    assert code.count(CLONES) == 1
    monkeypatch.setattr(_native, "FLAGS", (*_native.FLAGS, f"-march={march}"))
    path = _native.build(code.replace(CLONES, b"#define CLONES"), str(tmp_path), "m-")
    kernel = _native.open_library(path).fused_t_update
    assert _matches_numpy(kernel)
    rng = np.random.default_rng(53)
    I, N, E = 3, 2930, 50
    ref = random_model(rng, I, N, E)
    ref.O *= 0.2
    ref.T *= 0.2
    new = copy_model(ref)
    ws = StepWorkspace(new, kernel)
    assert ws.kernel is kernel
    for s in range(6):
        u, y = s % I, int(rng.integers(0, N))
        assert step_classify(new, u, y, 0.5, ws) == reference_step_classify(ref, u, y, 0.5)
        assert_same_model(ref, new, f"-march={march} step {s}")


class DlInfo(ctypes.Structure):
    _fields_ = [
        ("dli_fname", ctypes.c_char_p),
        ("dli_fbase", ctypes.c_void_p),
        ("dli_sname", ctypes.c_char_p),
        ("dli_saddr", ctypes.c_void_p),
    ]


def test_step_isa_names_the_clone_that_runs(built_kernel):
    assert built_kernel.isa in ("avx512f", "avx2", "baseline")
    if platform.machine() == "x86_64" and platform.libc_ver()[0] == "glibc":
        # the resolver takes the first clone listed that the CPU supports
        flags = cpu_flags()
        want = "avx512f" if "avx512f" in flags else "avx2" if "avx2" in flags else "baseline"
        assert built_kernel.isa == want
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
    assert {"default": "baseline"}.get(clone, clone) == built_kernel.isa


@pytest.mark.parametrize("change", ["negative u", "O", "T", "b_t"])
def test_kernel_workspace_takes_numpy_update_when_arrays_change(built_kernel, change):
    # The kernel would write to the wrong row of O, or read or write an
    # array the model no longer holds: the workspace takes the numpy update.
    rng = np.random.default_rng(43)
    ref = random_model(rng, 3, 11, 4)
    new = copy_model(ref)
    ws = StepWorkspace(new, built_kernel)
    assert ws.kernel is built_kernel and ws.update is None
    for s in range(6):
        u = s % 3
        if s >= 2 and change == "negative u":
            u -= 3
        elif s == 2:
            setattr(new, change, getattr(new, change).copy())
        assert step_classify(new, u, s, 0.1, ws) == reference_step_classify(ref, u, s, 0.1)
        assert_same_model(ref, new, f"step {s}")
    assert ws.update is not None


def test_workspace_refuses_the_kernel_for_arrays_it_cannot_take(built_kernel):
    rng = np.random.default_rng(47)
    base = random_model(rng, 3, 9, 4)
    shared = np.zeros(4 * 9 + 9)
    misfits = {
        "T in Fortran order": dict(T=np.asfortranarray(base.T)),
        "float32 b_t": dict(b_t=base.b_t.astype(np.float32)),
        "strided O": dict(O=np.repeat(base.O, 2, axis=0)[::2]),
        "read-only T": dict(T=np.frombuffer(base.T.tobytes()).reshape(4, 9)),
        "T and b_t overlap": dict(T=shared[:36].reshape(4, 9), b_t=shared[30:39]),
        "b_t too short": dict(b_t=base.b_t[:8].copy()),
    }
    for what, arrays in misfits.items():
        model = copy_model(base)
        for name, value in arrays.items():
            setattr(model, name, value)
        assert StepWorkspace(model, built_kernel).kernel is None, what
