"""Fixtures: the native library and the classify step paths to test. The
private cache of the native library, ``kernel_cache``, is in the
repository root's conftest.py."""

import shutil

import pytest

from iminfector import _native


@pytest.fixture(scope="session")
def native_library(kernel_cache):
    """The native library built into the session cache; None only on a host
    with no C compiler. A compiler on PATH with no library fails the test."""
    lib = _native.load()
    if lib is None and shutil.which(_native.CC):
        pytest.fail(f"{_native.CC} is on PATH, but the native library did not build or load")
    return lib


@pytest.fixture
def built_library(native_library):
    """The native library; skips the test on a host with no C compiler."""
    if native_library is None:
        pytest.skip("no C compiler on PATH")
    return native_library


@pytest.fixture(scope="session")
def step_paths(native_library):
    """The classify step paths: numpy (None), then, where the native library
    builds, its C loop calling numpy through Python ("vectorcall") and,
    where the library found numpy's own functions, calling them directly
    ("direct")."""
    if native_library is None:
        return (None,)
    return (None, "vectorcall", "direct") if native_library.direct else (None, "vectorcall")


@pytest.fixture(scope="session")
def kernel_name(native_library):
    """The manifest's ``classify_kernel`` on this host."""
    return "numpy" if native_library is None else "c"


@pytest.fixture(scope="session")
def kernel_isa(native_library):
    """The manifest's ``classify_isa`` on this host: the clone of the C
    loop's T update, or None when the numpy step runs."""
    return None if native_library is None else native_library.isa


@pytest.fixture(scope="session")
def kernel_calls(native_library):
    """The manifest's ``classify_calls`` on this host for a model whose E
    and N exceed 1: how the C loop calls numpy, or None on the numpy step."""
    if native_library is None:
        return None
    return "direct" if native_library.direct else "vectorcall"
