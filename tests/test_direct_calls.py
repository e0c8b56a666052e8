"""The C loop's direct calls of numpy's own functions: each call against
numpy's bit for bit, the numpy step when one of them is missing, and the
BLAS kernel set the manifest records."""

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
from iminfector.model import InfectorModel, StepWorkspace, _numpy_and_direct, _same_bits, _sgd_numpy


def shaped_model(E, N, seed=0):
    """A model of two influencers and N nodes with E-dimensional embeddings."""
    rng = np.random.default_rng(seed)
    return InfectorModel(
        rng.normal(size=(2, E)), rng.normal(size=(E, N)), rng.normal(size=N), 0.0, np.ones(E), [], []
    )


_vector, _matrix = np.arange(3.0), np.arange(12.0).reshape(3, 4)
_shared = np.zeros(8)
# Arguments of direct_call it must refuse with ValueError: arrays of
# another kind, layout or length, an out that overlaps an input, a
# read-only out, and empty arrays.
MISFIT_CALLS = [
    (0, _vector.astype(np.float32), _matrix, np.zeros(4)),
    (0, _vector, np.asfortranarray(_matrix), np.zeros(4)),
    (0, _vector, _matrix, np.zeros(3)),
    (0, np.arange(4.0), _matrix, np.zeros(4)),
    (0, _matrix, np.arange(3.0), np.zeros(3)),
    (0, _matrix, _matrix, np.zeros(4)),
    (0, _vector, _vector, np.zeros(3)),
    (0, _shared[:3], _matrix, _shared[2:6]),
    (0, np.zeros(0), np.zeros((0, 4)), np.zeros(4)),
    (1, _vector, np.zeros(2)),
    (1, _shared[:4], _shared[1:5]),
    (1, _vector, np.frombuffer(np.zeros(3).tobytes())),
    (1, np.arange(6.0)[::2], np.zeros(3)),
    (2, np.zeros(0)),
    (2, _matrix),
    (3, np.arange(6.0)[::2], np.zeros(3)),
    (3, np.zeros(0), np.zeros(0)),
]


@settings(max_examples=60, deadline=None)
@given(
    E=st.integers(2, 64),
    N=st.integers(2, 12_000),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 30.0]),
)
def test_each_direct_call_is_bitwise_numpy(direct_library, E, N, seed, scale):
    # numpy takes dgemv for a vector times a matrix and a matrix times a
    # vector once E and N exceed 1; every other call is one ufunc loop
    rng = np.random.default_rng(seed)
    T = rng.normal(size=(E, N)) * scale
    o_u = rng.normal(size=E)
    g = rng.uniform(-1.0, 1.0, N)
    # softmax inputs: logits less their max, zeros of both signs and, in
    # some draws, a NaN from a NaN logit
    z = -np.abs(rng.standard_cauchy(N)) * scale
    z[rng.integers(0, N, 2)] = 0.0, -0.0
    if seed % 5 == 0:
        z[rng.integers(0, N)] = np.nan
    with _sgd_numpy():
        cases = {
            "O_u T": _numpy_and_direct(direct_library, 0, (o_u, T), N),
            "T g": _numpy_and_direct(direct_library, 0, (T, g), E),
            "exp": _numpy_and_direct(direct_library, 1, (z,), "in place"),
        }
        e = cases["exp"][0]
        cases["add.reduce"] = _numpy_and_direct(direct_library, 2, (e,), None)
        p = e / cases["add.reduce"][0]
        cases["log"] = _numpy_and_direct(direct_library, 3, (p,), N)
        # the loop takes the log of one entry, which numpy is given as a float
        for j in rng.integers(0, N, 4).tolist():
            one = np.zeros(1)
            direct_library.direct_call(3, p[j : j + 1], one)
            cases[f"log of p[{j}]"] = [np.log(float(p[j])), one[0]]
    for name, (want, got) in cases.items():
        assert _same_bits(got, want), (name, E, N)


@pytest.mark.parametrize("shape", [(2, 2), (3, 13), (50, 300), (50, 2930)])
def test_direct_calls_match_at_the_model_shape(direct_library, shape):
    model = shaped_model(*shape)
    before = [a.copy() for a in (model.O, model.T, model.b_t)]
    with _sgd_numpy():
        assert model_module._direct_calls_match(direct_library, model)
    # the check reads the model and writes nothing to it
    assert all(np.array_equal(a, b) for a, b in zip(before, (model.O, model.T, model.b_t)))


def test_direct_call_refuses_what_it_cannot_take(direct_library):
    for args in MISFIT_CALLS:
        with pytest.raises(ValueError):
            direct_library.direct_call(*args)
    for args in [(), (4, _vector), (-1, _vector), (2, _vector, _vector), (0, _vector, _matrix)]:
        with pytest.raises(TypeError):
            direct_library.direct_call(*args)


# Source changes under which the library does not find one of numpy's own
# functions: the dgemv symbol, or the exp ufunc.
MISSING = {
    "dgemv": (b'"scipy_cblas_dgemv64_"', b'"iminfector_no_such_dgemv"'),
    "exp": (b'find_loop(numpy, "exp", 2', b'find_loop(numpy, "iminfector_no_such_ufunc", 2'),
}


@pytest.mark.parametrize("missing", sorted(MISSING))
def test_pipeline_is_identical_when_a_direct_function_is_missing(tmp_path, monkeypatch, capsys,
                                                                 direct_library, missing):
    old, new = MISSING[missing]
    code = _native.source()
    assert code.count(old) == 1
    lib = _native.open_library(_native.build(code.replace(old, new), str(tmp_path), "missing-"))
    assert lib.direct is False and lib.blas_core == direct_library.blas_core
    with pytest.raises(RuntimeError):
        lib.direct_call(2, _vector)
    model = shaped_model(3, 13)
    stream = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    with pytest.raises(RuntimeError):
        lib.classify_pairs(model, StepWorkspace(model), *stream, 0, 0.1, np.zeros(1))
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
