"""The package's native library, built on first use.

``_native.c`` holds the classify step's T update (``fused_t_update``, with
``step_isa``), the cascade scanner (``scan_cascades``) and the cascade
writer (``write_cascades``). ``load()`` compiles it with the
system C compiler, ``$CC`` or else ``cc``, into the user's cache directory,
``$XDG_CACHE_HOME/iminfector`` (default ``~/.cache/iminfector``), and
loads it with ctypes, at most once per process. A library's name holds two
digests: one of the source, the compiler flags and the machine type, so
that a changed source or flag set builds a new library and a cached one is
reused only where it was built for; and one of the library's own bytes,
checked before it is loaded. Loading a cut-short shared library can kill
the process with SIGBUS, so a file whose bytes do not match its name is
never loaded; a build replaces it.

On x86-64 with glibc the library holds a clone of the T update for each of
AVX-512F, AVX2 and baseline x86-64, and glibc's dynamic loader picks the
widest one the CPU runs, so one cached library serves every CPU of its
machine type; ``step_isa`` names the clone picked.

A build writes into a temp directory beside the cache entries and moves
the library into place with ``os.replace``, so processes building at the
same time each see either no library or a complete one. After a build the
cache keeps the KEEP newest libraries by mtime, the new one among them:
libraries of an older source do not pile up, and two versions of the
package that share a cache do not delete each other's library on every
switch.

Nothing here runs at import. With no compiler, an unwritable cache or a
failed build, ``load()`` returns None: the classify step stays in numpy and
cascade files go through the Python parser and formatter.
"""

import contextlib
import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import tempfile
from importlib import resources

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


def name_prefix(code):
    """``native-KEY-``, KEY a digest of the source, the flags and the machine."""
    key = b"\0".join([code, *(part.encode() for part in (*FLAGS, platform.machine()))])
    return f"native-{_digest(key)}-"


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

    Raises OSError when the compiler is missing or the directory is not
    writable, subprocess.SubprocessError when the compiler fails.
    """
    os.makedirs(directory, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".build-", dir=directory) as tmp:
        with open(os.path.join(tmp, "native.c"), "wb") as fh:
            fh.write(code)
        # relative names keep the temp directory out of the library's bytes
        subprocess.run(
            [cc, *FLAGS, "-o", "native.so", "native.c"],
            cwd=tmp,
            check=True,
            capture_output=True,
            timeout=BUILD_TIMEOUT_S,
        )
        built = os.path.join(tmp, "native.so")
        with open(built, "rb") as fh:
            path = os.path.join(directory, f"{prefix}{_digest(fh.read())}.so")
        os.replace(built, path)
    prune(directory, path)
    return path


def open_library(path):
    """The library at ``path``, with the C signature of each function.

    ``fused_t_update.isa`` names the clone of the T update that runs on
    this CPU: ``"avx512f"``, ``"avx2"`` or ``"baseline"``.
    """
    lib = ctypes.CDLL(path)
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    signatures = {
        # T (E x N, row-major), O_u (E), g (N), b_t (N), lr, E, N
        "fused_t_update": (ctypes.c_double, ptr, ptr, ptr, ptr, ctypes.c_double,
                           ctypes.c_size_t, ctypes.c_size_t),
        "step_isa": (ctypes.c_char_p,),
        # log, size, initiator, start, offsets, max_cascades, node_idx,
        # times, max_events, id_offset, id_length, max_ids, n_ids
        "scan_cascades": (i64, ctypes.c_char_p, ctypes.c_size_t, ptr, ptr, ptr, i64, ptr, ptr,
                          i64, ptr, ptr, i64, ptr),
        # id_bytes, id_bounds, n_ids, initiator, start, offsets,
        # n_cascades, node_idx, times, n_events, out
        "write_cascades": (i64, ctypes.c_char_p, ptr, i64, ptr, ptr, ptr, i64, ptr, ptr, i64,
                           ptr),
    }
    for name, (restype, *argtypes) in signatures.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    lib.fused_t_update.isa = lib.step_isa().decode()
    return lib


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
        # gone here: CDLL raises OSError
        return open_library(path)
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None


def step_kernel():
    """The classify step's T update from the library, or None."""
    lib = load()
    return None if lib is None else lib.fused_t_update
