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
def classify_loop(native_library):
    """The C epoch loop of the classify step, or None with no native library."""
    return None if native_library is None else native_library.classify_pairs


@pytest.fixture(scope="session")
def step_paths(classify_loop):
    """The classify step paths: numpy (None), then the C loop where it builds."""
    return (None,) if classify_loop is None else (None, classify_loop)


@pytest.fixture(scope="session")
def kernel_name(native_library):
    """The manifest's ``classify_kernel`` on this host."""
    return "numpy" if native_library is None else "c"


@pytest.fixture(scope="session")
def kernel_isa(native_library):
    """The manifest's ``classify_isa`` on this host: the clone of the C
    loop's T update, or None when the numpy step runs."""
    return None if native_library is None else native_library.isa
