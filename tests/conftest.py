"""Fixtures: the native library and the classify step paths to test. The
session's private cache of the native library, and ``kernel_cache``, which
builds the library there, are in the repository root's conftest.py."""

import shutil

import numpy as np
import pytest

from iminfector import _native
from iminfector import model as model_module
from iminfector.context import TrainingStream
from iminfector.model import InfectorModel, StepWorkspace


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


def _runs_numpy_calls(lib):
    """Whether the native library ``lib`` runs its C loop and its context
    draws, which call numpy's own functions: each refuses every call where
    the library did not find them. Asked through an empty call of each,
    the loop's an empty stream on a 2 x 2 model."""
    if lib is None:
        return False
    model = InfectorModel(np.zeros((1, 2)), np.zeros((2, 2)), np.zeros(2), 0.0, np.ones(2), [], [])
    i64, i32, f64 = (np.empty(0, dtype=t) for t in (np.int64, np.int32, np.float64))
    empty = TrainingStream(i64, f64, np.zeros(1, dtype=np.int64), i32)
    stop = model_module._take_stream(lib, model, StepWorkspace(model), empty, 0.0, f64.copy(),
                                     f64.copy())
    return (stop is not None
            and lib.draw_contexts(i64, np.zeros(1, dtype=np.int64), i32, i64, i64, i32.copy(),
                                  np.random.default_rng(0).bit_generator))


@pytest.fixture(scope="session")
def runs_numpy_calls():
    """The probe of a native library: ``runs_numpy_calls(lib)`` is whether
    ``lib`` runs its C loop and context draws. Every test that asks whether
    a library found numpy's own functions asks it through this probe."""
    return _runs_numpy_calls


@pytest.fixture(scope="session")
def numpy_calls(native_library):
    """Whether the session's native library runs its C loop and context
    draws: the probe's answer for it, False without a library."""
    return _runs_numpy_calls(native_library)


@pytest.fixture(scope="session")
def direct_library(native_library, numpy_calls):
    """The native library; skips the test where it did not find numpy's
    own functions, or did not build."""
    if not numpy_calls:
        pytest.skip("no native library with numpy's own functions")
    return native_library


@pytest.fixture(scope="session")
def step_paths(numpy_calls):
    """The classify step paths: numpy (None), then, where the native library
    builds and finds numpy's own functions, its C loop ("c")."""
    return (None, "c") if numpy_calls else (None,)


@pytest.fixture(scope="session")
def kernel_name(numpy_calls):
    """The manifest's ``classify_kernel`` on this host for a model whose E
    and N exceed 1."""
    return "c" if numpy_calls else "numpy"


@pytest.fixture(scope="session")
def kernel_isa(native_library, kernel_name):
    """The manifest's ``classify_isa`` on this host: the clone of the C
    loop's T update, or None when the numpy step runs."""
    return native_library.isa if kernel_name == "c" else None
