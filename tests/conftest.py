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
def classify_kernel(native_library):
    """The C kernel of the classify step, or None with no native library."""
    return None if native_library is None else native_library.fused_t_update


@pytest.fixture(scope="session")
def step_kernels(classify_kernel):
    """The classify step paths: numpy (None), then the C kernel where it builds."""
    return (None,) if classify_kernel is None else (None, classify_kernel)


@pytest.fixture(scope="session")
def kernel_name(classify_kernel):
    """The manifest's ``classify_kernel`` on this host."""
    return "numpy" if classify_kernel is None else "c"


@pytest.fixture(scope="session")
def kernel_isa(classify_kernel):
    """The manifest's ``classify_isa`` on this host: the kernel's clone, or
    None when the numpy update runs."""
    return None if classify_kernel is None else classify_kernel.isa
