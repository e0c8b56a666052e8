"""Session fixtures: a private kernel cache, and the step paths to test."""

import shutil

import pytest

from iminfector import _kernel


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Point XDG_CACHE_HOME at a temp directory for the whole session, so
    that neither the tests nor the processes they start write under the
    home directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


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
