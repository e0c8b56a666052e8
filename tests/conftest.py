"""Session fixtures: the classify step paths to test. The private kernel
cache, ``kernel_cache``, is in the repository root's conftest.py."""

import shutil

import pytest

from iminfector import _kernel


@pytest.fixture(scope="session")
def classify_kernel(kernel_cache):
    """The C kernel built into the session cache; None only on a host with
    no C compiler. A compiler on PATH with no kernel fails the test."""
    kernel = _kernel.load()
    if kernel is None and shutil.which(_kernel.CC):
        pytest.fail(f"{_kernel.CC} is on PATH, but the classify kernel did not build or load")
    return kernel


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
