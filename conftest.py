"""Hooks and fixtures for every test under the repository: tests/ and
perfbench/."""

import os
import shutil
import tempfile

import pytest

from iminfector import _native

# XDG_CACHE_HOME before the session, or None, and the session's cache
CACHE = pytest.StashKey[tuple]()


def pytest_configure(config):
    """Point XDG_CACHE_HOME at a temp directory for the whole session,
    before any test module is imported, so that neither the tests, nor the
    processes they start, nor a module that reaches the native library at
    import writes under the home directory."""
    cache = tempfile.mkdtemp(prefix="xdg-cache-")
    config.stash[CACHE] = os.environ.get("XDG_CACHE_HOME"), cache
    os.environ["XDG_CACHE_HOME"] = cache


def pytest_unconfigure(config):
    """Restore XDG_CACHE_HOME and remove the session's cache."""
    before, cache = config.stash[CACHE]
    if before is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = before
    shutil.rmtree(cache, ignore_errors=True)


@pytest.fixture(scope="session", autouse=True)
def kernel_cache():
    """Build the native library in the session's cache before the first
    test: its one-time build is set-up, not part of any test's timed work."""
    _native.load()
