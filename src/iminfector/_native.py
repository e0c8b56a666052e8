"""The package's native library, built on first use.

``_native.c`` holds the training loop (``train_pairs``), which takes an
epoch's classify and size steps in one call, with the classify step's T
update (``fused_t_update``, which returns nothing) and its direct calls of
numpy's own loops, BLAS and libm's pow, the training stream's context draws
(``draw_contexts``, which takes its uniforms from a numpy bit generator in
``rng.random``'s order), the cascade scanner (``scan_cascades``), the
cascade writer (``write_cascades``), the edge list scanner
(``scan_edges``), which reads every pair as parse_edges does, and the
canonical events of build_corpus (``canonical_events``), which also keep an
edge list's distinct edges. ``load()`` compiles it with the system C
compiler, ``$CC`` or else ``cc``, against this interpreter's ``Python.h``
and numpy's headers (for the layout of a ufunc object) into the user's
cache directory, ``$XDG_CACHE_HOME/iminfector`` (default
``~/.cache/iminfector``), and loads it through
``importlib.machinery.ExtensionFileLoader`` as the CPython extension module
``iminfector._native_lib``, at most once per process. Its functions keep
one argument contract, set out in the "Arguments" section of ``_native.c``:
what numbers, numpy bit generators and arrays they take, that no array they
write shares memory with another, and that they refuse the rest. A
library's name holds two digests: one of the source, the compiler flags,
the machine type, the interpreter's ABI (``EXT_SUFFIX`` and the include
directory) and numpy's version and include directory, so that a changed
source, flag set, interpreter or numpy builds a new library and a cached
one is reused only where it was built for; and one of the library's own
bytes, checked before it is loaded. Loading a cut-short shared library can
kill the process with SIGBUS, so a file whose bytes do not match its name
is never loaded; a build replaces it.

On x86-64 with glibc the library holds a clone of the T update for each of
AVX-512F, AVX2 and baseline x86-64, and glibc's dynamic loader picks the
widest one the CPU runs, so one cached library serves every CPU of its
machine type; the module's ``isa`` names the clone picked.

A build writes into a temp directory beside the cache entries and moves
the library into place with ``os.replace``, so processes building at the
same time each see either no library or a complete one. After a build the
cache keeps the KEEP newest libraries by mtime, the new one among them:
libraries of an older source do not pile up, and two versions of the
package that share a cache do not delete each other's library on every
switch.

Nothing here runs at import. With no compiler, no Python or numpy
headers, an unwritable cache or a failed build, ``load()`` returns None:
training takes its numpy steps, the stream draws through ``rng.choice``,
cascade files and edge lists go through the Python parsers and formatter,
and build_corpus and the edge lists' distinct edges take the numpy pass
of canonical events.
"""

import contextlib
import functools
import hashlib
import os
import platform
import sysconfig
import tempfile
from importlib import machinery, resources, util

import numpy

CC = os.environ.get("CC") or "cc"
# -O3: gcc 12 vectorizes the loops only from -O3, and at -O2 the kernel is
# slower than numpy at N = 300. No -ffast-math: it reorders the arithmetic.
# -ffp-contract=off is what keeps the AVX-512F clone exact: AVX-512F
# implies FMA, and without the flag gcc 12 fuses the update into 8 FMA
# instructions there, whose single rounding differs from numpy's.
# No -march: the source's target_clones build a clone per instruction set
# and the widest the CPU runs is picked at load time, so the cached
# library does not depend on the host that built it.
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
BUILD_TIMEOUT_S = 120
KEEP = 4  # libraries left in the cache directory after a build
# The name the library has as an extension module; its init function is
# PyInit__native_lib.
MODULE = "iminfector._native_lib"


def cache_dir():
    """``$XDG_CACHE_HOME/iminfector``, or ``~/.cache/iminfector``."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "iminfector")


def source():
    return resources.files(__package__).joinpath("_native.c").read_bytes()


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:24]


def python_abi():
    """This interpreter's extension suffix, which names its ABI, and the
    directory of its ``Python.h``."""
    return sysconfig.get_config_var("EXT_SUFFIX") or "", sysconfig.get_paths()["include"]


def numpy_abi():
    """numpy's version and the directory of its C headers."""
    return numpy.__version__, numpy.get_include()


def name_prefix(code):
    """``native-KEY-``, KEY a digest of the source, the flags, the machine,
    the interpreter's ABI and numpy's."""
    parts = (*FLAGS, platform.machine(), *python_abi(), *numpy_abi())
    key = b"\0".join([code, *(part.encode() for part in parts)])
    return f"native-{_digest(key)}-"


def compile_args():
    """The compiler's flags: FLAGS, numpy's include directory and this
    interpreter's."""
    return [*FLAGS, f"-I{numpy_abi()[1]}", f"-I{python_abi()[1]}"]


def cached_library(directory, prefix):
    """A library in ``directory`` whose name is ``prefix`` plus the digest of
    its bytes, or None."""
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return None
    for name in names:
        if not (name.startswith(prefix) and name.endswith(".so")):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            continue
        if name == f"{prefix}{_digest(data)}.so":
            return path
    return None


def prune(directory, built):
    """Delete the libraries in ``directory`` but the KEEP newest by mtime,
    counting and keeping ``built``. Another process may delete the
    same files at the same time; what cannot be deleted stays."""
    found = []
    with contextlib.suppress(OSError):
        for name in os.listdir(directory):
            path = os.path.join(directory, name)
            if name.endswith(".so") and path != built:
                with contextlib.suppress(OSError):
                    found.append((os.stat(path).st_mtime_ns, path))
    found.sort(reverse=True)
    for _, path in found[KEEP - 1 :]:
        with contextlib.suppress(OSError):
            os.remove(path)


def build(code, directory, prefix, cc=CC):
    """Compile ``code`` into ``directory``, prune the directory, and return
    the library's path.

    Raises OSError when the compiler is missing or fails or the directory
    is not writable.
    """
    # imported here, as only a build runs the compiler: subprocess takes
    # about 6 ms of every process's start
    import subprocess

    os.makedirs(directory, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".build-", dir=directory) as tmp:
        with open(os.path.join(tmp, "native.c"), "wb") as fh:
            fh.write(code)
        # relative names keep the temp directory out of the library's bytes
        try:
            subprocess.run(
                [cc, *compile_args(), "-o", "native.so", "native.c"],
                cwd=tmp,
                check=True,
                capture_output=True,
                timeout=BUILD_TIMEOUT_S,
            )
        except subprocess.SubprocessError as exc:
            raise OSError(f"{cc} did not build the library: {exc}") from exc
        built = os.path.join(tmp, "native.so")
        with open(built, "rb") as fh:
            path = os.path.join(directory, f"{prefix}{_digest(fh.read())}.so")
        os.replace(built, path)
    prune(directory, path)
    return path


def open_library(path):
    """The extension module at ``path``. Its ``isa`` names the clone of the
    T update that runs on this CPU: "avx512f", "avx2" or "baseline". Its
    training loop and context draws call numpy's BLAS dgemv and ddot and
    float64 exp, add and log loops directly, found when it loads; where one
    is missing, ``train_pairs`` returns None and ``draw_contexts`` False on
    every call, as each does for arrays it cannot take. Its ``blas_core``
    names the kernel set numpy's OpenBLAS picked for this CPU, or is None."""
    loader = machinery.ExtensionFileLoader(MODULE, path)
    module = util.module_from_spec(util.spec_from_file_location(MODULE, path, loader=loader))
    loader.exec_module(module)
    return module


@functools.cache
def load():
    """The library, built into the cache directory if needed; None if it
    cannot be built or loaded. Only the first call in a process builds or
    loads; later calls return its result."""
    code, directory = source(), cache_dir()
    prefix = name_prefix(code)
    path = cached_library(directory, prefix)
    try:
        if path is None:
            path = build(code, directory, prefix, CC)
        # a library pruned by another process after the digest check is
        # gone here: the extension loader raises ImportError
        return open_library(path)
    except (OSError, ImportError):
        return None
