"""The C kernel of the classify step's T update, built on first use.

``load()`` compiles ``_step.c`` with the system C compiler into the user's
cache directory, ``$XDG_CACHE_HOME/iminfector`` (default
``~/.cache/iminfector``), and loads it with ctypes. A library's name holds
two digests: one of the source, the compiler flags and the machine type,
so that a changed source or flag set builds a new library and a cached one
is reused only where it was built for; and one of the library's own bytes,
checked before it is loaded. Loading a cut-short shared library can kill
the process with SIGBUS, so a file whose bytes do not match its name is
never loaded; a build replaces it.

On x86-64 with glibc the library holds a clone of the kernel for each of
AVX-512F, AVX2 and baseline x86-64, and glibc's dynamic loader picks the
widest one the CPU runs, so one cached library serves every CPU of its
machine type; ``step_isa`` names the clone picked.

A build writes into a temp directory beside the cache entries and moves
the library into place with ``os.replace``, so processes building at the
same time each see either no library or a complete one.

Nothing here runs at import. With no compiler, an unwritable cache or a
failed build, ``load()`` returns None and the step stays in numpy.
"""

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from importlib import resources

CC = "cc"
# -O3: gcc 12 vectorizes the loops only from -O3, and at -O2 the kernel is
# slower than numpy at N = 300. No -ffast-math: it reorders the arithmetic.
# -ffp-contract=off is what keeps the AVX-512F clone exact: AVX-512F
# implies FMA, and without the flag gcc 12 fuses the update into 8 FMA
# instructions there, whose single rounding differs from numpy's.
# No -march: the source's target_clones build a clone per instruction set
# and the widest the CPU runs is picked at load time, so the cached
# library does not depend on the host that built it.
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
SYMBOL = "fused_t_update"
BUILD_TIMEOUT_S = 120


def cache_dir():
    """``$XDG_CACHE_HOME/iminfector``, or ``~/.cache/iminfector``."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "iminfector")


def source():
    return resources.files(__package__).joinpath("_step.c").read_bytes()


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:24]


def name_prefix(code):
    """``step-KEY-``, KEY a digest of the source, the flags and the machine."""
    key = b"\0".join([code, *(part.encode() for part in (*FLAGS, platform.machine()))])
    return f"step-{_digest(key)}-"


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


def build(code, directory, prefix, cc=CC):
    """Compile ``code`` into ``directory`` and return the library's path.

    Raises OSError when the compiler is missing or the directory is not
    writable, subprocess.SubprocessError when the compiler fails.
    """
    os.makedirs(directory, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".build-", dir=directory) as tmp:
        with open(os.path.join(tmp, "step.c"), "wb") as fh:
            fh.write(code)
        # relative names keep the temp directory out of the library's bytes
        subprocess.run(
            [cc, *FLAGS, "-o", "step.so", "step.c"],
            cwd=tmp,
            check=True,
            capture_output=True,
            timeout=BUILD_TIMEOUT_S,
        )
        built = os.path.join(tmp, "step.so")
        with open(built, "rb") as fh:
            path = os.path.join(directory, f"{prefix}{_digest(fh.read())}.so")
        os.replace(built, path)
    return path


def open_library(path):
    """The kernel function of the library at ``path``, with its C signature.

    Its ``isa`` attribute names the clone that runs on this CPU:
    ``"avx512f"``, ``"avx2"`` or ``"baseline"``.
    """
    lib = ctypes.CDLL(path)
    fn = getattr(lib, SYMBOL)
    fn.argtypes = (
        ctypes.c_void_p,  # T, E x N, row-major
        ctypes.c_void_p,  # O_u, E
        ctypes.c_void_p,  # g, N
        ctypes.c_void_p,  # b_t, N
        ctypes.c_double,  # lr
        ctypes.c_size_t,  # E
        ctypes.c_size_t,  # N
    )
    fn.restype = ctypes.c_double
    step_isa = lib.step_isa
    step_isa.argtypes = ()
    step_isa.restype = ctypes.c_char_p
    fn.isa = step_isa().decode()
    return fn


def load():
    """The kernel function, built into the cache directory if needed; None if
    it cannot be built or loaded."""
    code, directory = source(), cache_dir()
    prefix = name_prefix(code)
    path = cached_library(directory, prefix)
    try:
        if path is None:
            path = build(code, directory, prefix, CC)
        return open_library(path)
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
