"""Fixtures for every test under the repository: tests/ and perfbench/."""

import pytest

from iminfector import _native


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Point XDG_CACHE_HOME at a temp directory for the whole session, so
    that neither the tests nor the processes they start write under the
    home directory, and build the native library there before the first
    test: its one-time build is set-up, not part of any test's timed work."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        _native.load()
        yield
