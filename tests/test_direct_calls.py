"""The C loop's direct calls of numpy's own functions: the loop against
the numpy step bit for bit at drawn shapes, train's self-check at the
model's shape, the numpy step when one of them is missing, and the BLAS
kernel set the manifest records."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iminfector import _native
from iminfector import model as model_module
from iminfector.cli import main
from iminfector.context import TrainingStream
from iminfector.model import InfectorModel, _sgd_numpy
from test_context import draw_args


def shaped_model(E, N, seed=0):
    """A model of two influencers and N nodes with E-dimensional embeddings."""
    rng = np.random.default_rng(seed)
    return InfectorModel(
        rng.normal(size=(2, E)), rng.normal(size=(E, N)), rng.normal(size=N), 0.0, np.ones(E), [], []
    )


@settings(max_examples=60, deadline=None)
@given(E=st.integers(2, 64), N=st.integers(2, 12_000))
def test_loop_is_bitwise_numpy_at_drawn_shapes(direct_library, E, N):
    # numpy takes dgemv for a vector times a matrix and a matrix times a
    # vector once E and N exceed 1; every other call is one ufunc loop. The
    # self-check's models hold a NaN and a +0/-0 tie at the max of the logits.
    with _sgd_numpy():
        assert model_module._loop_matches_step(direct_library, ((E, N),))


@pytest.mark.parametrize("shape", [(2, 2), (3, 13), (50, 300), (50, 2930)])
def test_loop_gate_passes_at_the_model_shape(direct_library, shape, monkeypatch):
    # a test that clears _native.load's cache makes the next load open a
    # new module object: the gate is handed the session's library itself
    monkeypatch.setattr(_native, "load", lambda: direct_library)
    model = shaped_model(*shape)
    before = [a.copy() for a in (model.O, model.T, model.b_t)]
    assert model_module._epoch_loop(model) is direct_library
    # the gate reads the model's shape and writes nothing to it
    assert all(np.array_equal(a, b) for a, b in zip(before, (model.O, model.T, model.b_t)))


# Source changes under which the library does not find one of numpy's own
# functions: the dgemv or ddot symbol, or the exp ufunc.
MISSING = {
    "dgemv": (b'"scipy_cblas_dgemv64_"', b'"iminfector_no_such_dgemv"'),
    "ddot": (b'"scipy_cblas_ddot64_"', b'"iminfector_no_such_ddot"'),
    "exp": (b'find_loop(numpy, "exp", 2', b'find_loop(numpy, "iminfector_no_such_ufunc", 2'),
}


@pytest.mark.parametrize("missing", sorted(MISSING))
def test_pipeline_is_identical_when_a_direct_function_is_missing(tmp_path, monkeypatch, capsys,
                                                                 direct_library, runs_numpy_calls,
                                                                 missing):
    old, new = MISSING[missing]
    code = _native.source()
    assert code.count(old) == 1
    lib = _native.open_library(_native.build(code.replace(old, new), str(tmp_path), "missing-"))
    assert not runs_numpy_calls(lib) and lib.blas_core == direct_library.blas_core
    # both calls refuse arrays they would take with every function found
    model = shaped_model(3, 13)
    classify, regress = np.full(1, np.nan), np.full(1, np.nan)
    stream = TrainingStream(np.zeros(1, dtype=np.int64), np.full(1, 0.5),
                            np.array([0, 1], dtype=np.int64), np.zeros(1, dtype=np.int32))
    assert model_module._take_stream(lib, model, stream, 0.1, classify, regress) is None
    assert np.isnan(classify).all() and np.isnan(regress).all()
    args = draw_args()
    assert direct_library.draw_contexts(*draw_args()) is True
    assert lib.draw_contexts(*args) is False
    assert np.array_equal(args[5], draw_args()[5])
    synth = tmp_path / "synth.txt"
    assert main(["synth", "--nodes", "60", "--cascades", "60", "--planted", "2", "--lures", "2",
                 "--rng-seed", "8", "--out", str(synth)]) == 0
    argv = ["pipeline", "--cascades", str(synth), "--embed-dim", "12", "--epochs", "2"]
    # the library without its direct calls sends training to the numpy step
    runs = {"c": tmp_path / "direct", "numpy": tmp_path / "missing"}
    assert main([*argv, "--outdir", str(runs["c"])]) == 0
    with monkeypatch.context() as mp:
        mp.setattr(_native, "load", lambda: lib)
        assert main([*argv, "--outdir", str(runs["numpy"])]) == 0
    capsys.readouterr()
    names = sorted(os.listdir(runs["c"]))
    assert names == sorted(os.listdir(runs["numpy"]))
    for name in names:
        if name != "manifest.json":
            got = (runs["numpy"] / name).read_bytes()
            assert got == (runs["c"] / name).read_bytes(), name
    for kernel, outdir in runs.items():
        doc = json.loads((outdir / "manifest.json").read_text())
        assert doc["classify_kernel"] == kernel
        assert doc["stream_draws"] == {"c": "c", "numpy": "choice"}[kernel]


def test_pipeline_records_the_blas_core_it_ran_on(tmp_path, direct_library):
    # OpenBLAS picks its kernels when numpy loads, from OPENBLAS_CORETYPE if
    # set. Only the manifest is read: the run's last bits may differ from
    # those of a run on another kernel set.
    from test_cli import package_env
    from test_kernel import cpu_flags

    if direct_library.blas_core is None:
        pytest.skip("numpy's BLAS does not name its kernel set")
    if not {"avx2", "fma"} <= cpu_flags():
        pytest.skip("this host cannot run OpenBLAS's Haswell kernels")
    synth = tmp_path / "synth.txt"
    assert main(["synth", "--nodes", "60", "--cascades", "60", "--planted", "2", "--lures", "2",
                 "--out", str(synth)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "iminfector", "pipeline", "--cascades", str(synth),
         "--outdir", str(tmp_path / "run"), "--embed-dim", "8", "--epochs", "1"],
        capture_output=True, text=True, env={**package_env(), "OPENBLAS_CORETYPE": "Haswell"},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert (doc["blas_core"], doc["classify_kernel"]) == ("Haswell", "c")
