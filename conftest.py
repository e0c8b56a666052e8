"""Fixtures for every test under the repository: tests/ and perfbench/."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Point XDG_CACHE_HOME at a temp directory for the whole session, so
    that neither the tests nor the processes they start write under the
    home directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield
