"""Model training: gradients, closed forms, persistence."""

import contextlib
import functools
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iminfector import _native
from iminfector import model as model_module
from iminfector.cascades import parse_cascades
from iminfector.cli import main
from iminfector.context import TrainingStream, build_training_stream
from iminfector.exceptions import CorruptFile, FormatVersionMismatch, NonFiniteUpdate
from iminfector.model import (
    SGD_BUFSIZE,
    InfectorModel,
    ModelConfig,
    StepWorkspace,
    forward_classify,
    forward_regress,
    init_model,
    load_embeddings,
    save_embeddings,
    step_classify,
    step_regress,
    train,
)
from iminfector.synth import generate_corpus
from test_columnar_equivalence import stream_pairs
from test_diffusion import traced_peak


def ids(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def model_with_ids(O, T, b_t, b_c, C):
    """InfectorModel of these arrays, with id tables u0, u1, ... and v0, v1, ..."""
    return InfectorModel(O, T, b_t, b_c, C, ids("u", O.shape[0]), ids("v", T.shape[1]))


def random_model(rng, I, N, E):
    cfg = ModelConfig(embed_dim=E, rng_seed=int(rng.integers(0, 2**31)))
    m = init_model(cfg, ids("u", I), ids("v", N))
    # move away from the tiny init so gradients have size
    m.O += rng.normal(0, 0.5, m.O.shape)
    m.T += rng.normal(0, 0.5, m.T.shape)
    m.b_t += rng.normal(0, 0.2, m.b_t.shape)
    m.b_c = float(rng.normal(0, 0.2))
    return m


def snapshot(m):
    return m.O.copy(), m.T.copy(), m.b_t.copy(), float(m.b_c)


# independent loss routes for finite differences, no model code involved
def nll_loss(O, T, b_t, u, y):
    z = O[u] @ T + b_t
    z = z - z.max()
    p = np.exp(z)
    p = p / p.sum()
    return -math.log(p[y])


def sq_loss(O, b_c, u, y_c):
    z = float(O[u].sum()) + b_c
    phi = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
    return (y_c - phi) ** 2


def central_diff(f, x, h=1e-5):
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = f()
        flat[i] = keep - h
        lo = f()
        flat[i] = keep
        gf[i] = (hi - lo) / (2 * h)
    return g


def assert_grad_close(analytic, fd, what):
    err = np.abs(analytic - fd)
    tol = 1e-4 * np.maximum(1.0, np.abs(fd))
    assert (err <= tol).all(), f"{what}: max err {err.max()}"


def test_gradcheck_fifty_random_models():
    rng = np.random.default_rng(0)
    for trial in range(50):
        I = int(rng.integers(1, 6))
        N = int(rng.integers(2, 9))
        E = int(rng.integers(1, 7))
        m = random_model(rng, I, N, E)
        u = int(rng.integers(0, I))
        y = int(rng.integers(0, N))
        y_c = float(rng.uniform(0, 1))

        O0, T0, b_t0, b_c0 = snapshot(m)
        step_classify(m, u, y, lr=1.0)
        # lr = 1 makes the update exactly the gradient
        an_O = O0 - m.O
        an_T = T0 - m.T
        an_bt = b_t0 - m.b_t

        Ox, Tx, btx = O0.copy(), T0.copy(), b_t0.copy()
        fd_O = central_diff(lambda: nll_loss(Ox, Tx, btx, u, y), Ox)
        fd_T = central_diff(lambda: nll_loss(Ox, Tx, btx, u, y), Tx)
        fd_bt = central_diff(lambda: nll_loss(Ox, Tx, btx, u, y), btx)
        assert_grad_close(an_O, fd_O, f"trial {trial} dL_t/dO")
        assert_grad_close(an_T, fd_T, f"trial {trial} dL_t/dT")
        assert_grad_close(an_bt, fd_bt, f"trial {trial} dL_t/db_t")

        m.O[:], m.T[:], m.b_t[:], m.b_c = O0, T0, b_t0, b_c0
        step_regress(m, u, y_c, lr=1.0)
        an_O = O0 - m.O
        an_bc = b_c0 - m.b_c

        Ox = O0.copy()
        box = np.array([b_c0])
        fd_O = central_diff(lambda: sq_loss(Ox, float(box[0]), u, y_c), Ox)
        fd_bc = central_diff(lambda: sq_loss(Ox, float(box[0]), u, y_c), box)
        assert_grad_close(an_O, fd_O, f"trial {trial} dL_c/dO")
        assert_grad_close(np.array([an_bc]), fd_bc, f"trial {trial} dL_c/db_c")
        # regression must never touch T or b_t
        assert (m.T == T0).all() and (m.b_t == b_t0).all()


def test_collapsed_gradient_equals_jacobian_product():
    # dL/dz through the softmax Jacobian must equal phi - y
    rng = np.random.default_rng(3)
    m = random_model(rng, 2, 5, 4)
    u, y = 1, 2
    phi = forward_classify(m, u)
    J = np.diag(phi) - np.outer(phi, phi)
    dl_dphi = np.zeros(5)
    dl_dphi[y] = -1.0 / phi[y]
    collapsed = phi.copy()
    collapsed[y] -= 1.0
    assert np.abs(dl_dphi @ J - collapsed).max() < 1e-10


def test_classify_step_closed_form():
    m = model_with_ids(
        O=np.zeros((1, 1)),
        T=np.zeros((1, 2)),
        b_t=np.zeros(2),
        b_c=0.0,
        C=np.ones(1),
    )
    loss = step_classify(m, 0, 0, lr=0.1)
    # uniform softmax: loss ln 2, only the bias moves (O and T are zero)
    assert loss == pytest.approx(math.log(2), abs=1e-15)
    assert np.allclose(m.b_t, [0.05, -0.05], atol=1e-15)
    assert (m.O == 0).all() and (m.T == 0).all()


def test_regress_step_closed_form():
    m = model_with_ids(
        O=np.zeros((1, 3)),
        T=np.zeros((3, 2)),
        b_t=np.zeros(2),
        b_c=0.0,
        C=np.ones(3),
    )
    loss = step_regress(m, 0, 1.0, lr=0.1)
    # phi_c = 0.5, loss 0.25, gradient -2 * 0.5 * 0.25 = -0.25
    assert loss == pytest.approx(0.25, abs=1e-15)
    assert np.allclose(m.O[0], 0.025, atol=1e-15)
    assert m.b_c == pytest.approx(0.025, abs=1e-15)


def test_classify_step_is_simultaneous():
    # grad_T must use the pre-update O_u, grad_O_u the pre-update T
    rng = np.random.default_rng(9)
    m = random_model(rng, 3, 4, 2)
    u, y = 0, 3
    O0, T0, b_t0, _ = snapshot(m)
    phi = forward_classify(m, u)
    g = phi.copy()
    g[y] -= 1.0
    lr = 0.7
    step_classify(m, u, y, lr)
    assert np.allclose(m.O[u], O0[u] - lr * (T0 @ g), atol=1e-14)
    assert np.allclose(m.T, T0 - lr * np.outer(O0[u], g), atol=1e-14)
    assert np.allclose(m.b_t, b_t0 - lr * g, atol=1e-14)
    # other source rows never move
    assert (m.O[1:] == O0[1:]).all()


def test_forward_regress_stable_at_extremes():
    m = model_with_ids(
        O=np.array([[800.0], [-800.0]]),
        T=np.zeros((1, 2)),
        b_t=np.zeros(2),
        b_c=0.0,
        C=np.ones(1),
    )
    assert forward_regress(m, 0) == pytest.approx(1.0)
    assert forward_regress(m, 1) == pytest.approx(0.0)
    assert math.isfinite(forward_regress(m, 1))


def test_init_model_deterministic_and_bounded():
    cfg = ModelConfig(embed_dim=8, rng_seed=11)
    a = init_model(cfg, ids("u", 4), ids("v", 9))
    b = init_model(cfg, ids("u", 4), ids("v", 9))
    assert (a.O == b.O).all() and (a.T == b.T).all()
    assert (a.b_t == 0).all() and a.b_c == 0.0
    assert (a.C == 1).all()
    bound = 0.5 / cfg.embed_dim
    assert np.abs(a.O).max() <= bound and np.abs(a.T).max() <= bound
    c = init_model(ModelConfig(embed_dim=8, rng_seed=12), ids("u", 4), ids("v", 9))
    assert not (a.O == c.O).all()
    # O's draws, then T's, each from the generator seeded (rng_seed, 0).
    # With N >= 8 every row of T starts on a 64-byte boundary, whatever the
    # allocator gives, and rows lie N rounded up to a multiple of 8 apart;
    # below 8, T is packed and starts on one
    for n in (1, 3, 7, 8, 9, 295, 296, 2955):
        m = init_model(cfg, ids("u", 4), ids("v", n))
        rng = np.random.default_rng([cfg.rng_seed, 0])
        O, T = rng.uniform(-bound, bound, (4, 8)), rng.uniform(-bound, bound, (8, n))
        assert np.array_equal(m.O, O) and np.array_equal(m.T, T)
        assert m.T.ctypes.data % 64 == 0 and m.T.strides[1] == 8
        if n >= 8:
            assert m.T.strides[0] == -(-n // 8) * 64
        else:
            assert m.T.flags.c_contiguous


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=0)
    with pytest.raises(ValueError):
        ModelConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        ModelConfig(epochs=0)


def test_train_reduces_loss_on_toy_corpus():
    corpus = parse_cascades(
        [
            "u1:0\ta:1 b:2 a:3\n",
            "u1:10\ta:11 b:13\n",
            "u2:20\tc:21 d:22 e:23\n",
            "u2:30\tc:31 d:31\n",
            "u1:40\tb:41\n",
        ]
    )
    cfg = ModelConfig(embed_dim=6, epochs=5, rng_seed=0)
    m = init_model(cfg, corpus.influencer_ids(), corpus.node_ids())
    m, report = train(m, lambda e: build_training_stream(corpus, 1.2, e), cfg)
    assert len(report.classify_loss) == 5
    assert report.classify_loss[-1] < report.classify_loss[0]
    assert report.regress_loss[-1] <= report.regress_loss[0]
    assert all(t >= 0 for t in report.epoch_seconds)


# The classify step as first written, with fresh temporaries and a scan of
# all of T on every step: the oracle for the workspace step.
def reference_forward_classify(model, u):
    z = model.O[u] @ model.T + model.b_t
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def reference_step_classify(model, u, y, lr):
    phi = reference_forward_classify(model, u)
    loss = -np.log(phi[y])
    g = phi.copy()
    g[y] -= 1.0
    grad_O_u = model.T @ g
    grad_T = np.outer(model.O[u], g)
    model.O[u] -= lr * grad_O_u
    model.T -= lr * grad_T
    model.b_t -= lr * g
    if not (
        np.isfinite(loss)
        and np.isfinite(model.O[u]).all()
        and np.isfinite(model.T).all()
        and np.isfinite(model.b_t).all()
    ):
        raise NonFiniteUpdate("classification step produced a non-finite value")
    return float(loss)


def copy_model(m):
    return model_with_ids(O=m.O.copy(), T=m.T.copy(), b_t=m.b_t.copy(), b_c=m.b_c, C=m.C.copy())


def assert_same_model(a, b, what, equal_nan=False):
    assert np.array_equal(a.O, b.O, equal_nan=equal_nan), f"{what}: O differs"
    assert np.array_equal(a.T, b.T, equal_nan=equal_nan), f"{what}: T differs"
    assert np.array_equal(a.b_t, b.b_t, equal_nan=equal_nan), f"{what}: b_t differs"
    assert a.b_c == b.b_c, f"{what}: b_c differs"


def run_until_raise(step, model, steps):
    """Losses of the ((u, y), lr) steps taken, and the index of the one that raised."""
    losses = []
    for i, ((u, y), lr) in enumerate(steps):
        try:
            losses.append(step(model, u, y, lr))
        except NonFiniteUpdate:
            return losses, i
    return losses, None


@contextlib.contextmanager
def ufunc_bufsize(size):
    old = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(old)


@functools.cache
def loop_matches_at(lib, E, N):
    """train's rule for the C loop of ``lib`` at a model of E x N
    (_loop_matches_at), run once per library and shape."""
    with model_module._sgd_numpy():
        return model_module._loop_matches_at(lib, E, N)


def take_pairs(lib, model, ws, u, context, lr, losses):
    """The C loop of ``lib`` on the pairs of influencer ``u`` and each of
    the int32 ``context``, the losses into ``losses``, with the arrays of
    ``model`` and ``ws``: len(context), or ~k if step k proved a value
    non-finite, with the workspace's bounds set to those its steps leave;
    None, having taken no pair, if the loop refuses the arrays, u or a
    context outside T's columns.

    The pairs are one cascade of a stream, whose size pair changes
    nothing. Its b_c is 1e300, not the model's, so the sigmoid is 1, or 0
    where O_u's sum overflows to -inf, and with the target -1 its gradient
    is +0: O_u - lr * 0 is O_u, bit for bit."""
    taken = lib.train_pairs(model.O, model.T, model.b_t, ws.phi, ws.grad, losses, np.empty(1),
                            np.array([u], dtype=np.int64), np.full(1, -1.0),
                            np.array([0, len(context)], dtype=np.int64), context, lr, 1e300,
                            ws.bound, ws.bias_bound)
    if taken is None:
        return None
    stop, _, ws.bound, ws.bias_bound = taken
    # the size pair, stream pair len(context), never raises
    assert stop == len(context) + 1 or ~stop < len(context), stop
    return min(stop, len(context))


def takes_arrays(lib, model, ws):
    """Whether the C loop of ``lib`` takes the arrays of ``model`` and
    ``ws``: its call on an empty stream returns None where it does not."""
    i64, i32, f64 = (np.empty(0, dtype=t) for t in (np.int64, np.int32, np.float64))
    empty = TrainingStream(i64, f64, np.zeros(1, dtype=np.int64), i32)
    return model_module._take_stream(lib, model, ws, empty, 0.0, f64.copy(), f64.copy()) is not None


def loop_takes(lib, model, ws):
    """Whether the C loop of ``lib`` takes ``model``'s pairs in train: its
    self-check passes at the model's shape, and the loop takes the arrays
    (not with an E or N of 1, say)."""
    return takes_arrays(lib, model, ws) and loop_matches_at(lib, *model.T.shape)


def loop_step(lib=None):
    """step_classify(model, u, y, lr, ws) through the C loop of ``lib``
    (default: the package's library): the pair alone in a stream, taken by
    step_classify if the loop does not take it, as train does. The loop must
    take the pair unless it refuses the arrays, u or y."""
    lib = lib or _native.load()

    def step(model, u, y, lr, ws):
        takes = takes_arrays(lib, model, ws)
        if takes and not loop_matches_at(lib, *model.T.shape):
            return step_classify(model, u, y, lr, ws)
        takes = takes and 0 <= u < model.O.shape[0] and 0 <= y < model.T.shape[1]
        want = 1 if takes else None
        losses = np.full(1, np.nan)
        stop = take_pairs(lib, model, ws, u, np.array([y], dtype=np.int32), lr, losses)
        if stop == ~0:
            raise NonFiniteUpdate("classification step produced a non-finite value")
        assert stop == want, (stop, want)
        return float(losses[0]) if stop == 1 else step_classify(model, u, y, lr, ws)

    return step


def loop_until_raise(model, steps):
    """run_until_raise(step, model, steps) for steps of one rate, each run
    of steps of one influencer in one call of the package's C loop, as
    train takes a cascade's, or by the numpy step where the loop may not
    take the model."""
    lib = _native.load()
    ws = StepWorkspace(model)
    if not loop_takes(lib, model, ws):
        return run_until_raise(lambda m, u, y, r: step_classify(m, u, y, r, ws), model, steps)
    (lr,) = {lr for _, lr in steps}
    losses = []
    for u, run in itertools.groupby((pair for pair, _ in steps), key=lambda pair: pair[0]):
        context = np.array([y for _, y in run], dtype=np.int32)
        taken = np.full(len(context), np.nan)
        stop = take_pairs(lib, model, ws, u, context, lr, taken)
        # the loop took the pairs: it stopped at the end or at a raise
        assert stop is not None and (stop < 0 or stop == len(context)), stop
        if stop < 0:
            return losses + taken[:~stop].tolist(), len(losses) + ~stop
        losses += taken.tolist()
    return losses, None


def workspace_step(path):
    """The classify step on ``path``: the numpy step (None) or the C loop
    ("c")."""
    return step_classify if path is None else loop_step()


def reference_train(corpus, cfg, streams):
    """The model train() must give, through reference_step_classify, and
    per epoch its mean losses and step counts. A NonFiniteUpdate carries
    the epoch and step that raised and the model."""
    ref = init_model(cfg, corpus.influencer_ids(), corpus.node_ids())
    epochs = []
    for epoch, stream in enumerate(streams):
        classify, regress = [], []
        for step, (kind, u, target) in enumerate(stream_pairs(stream)):
            try:
                if kind == "C":
                    classify.append(reference_step_classify(ref, u, target, cfg.learning_rate))
                else:
                    regress.append(step_regress(ref, u, target, cfg.learning_rate))
            except NonFiniteUpdate as exc:
                # where it raised, and the model as the raise left it
                exc.epoch, exc.step, exc.model = epoch, step, ref
                raise
        epochs.append((float(np.mean(classify)), float(np.mean(regress)), len(classify), len(regress)))
    return ref, epochs


@contextlib.contextmanager
def on_path(path):
    """Inside, train takes ``path``: the numpy step (None), by loading no
    native library, or the C loop ("c"). Yields the manifest's
    classify_kernel of the path."""
    with pytest.MonkeyPatch.context() as mp:
        if path is None:
            mp.setattr(_native, "load", lambda: None)
        yield "numpy" if path is None else "c"


def test_workspace_step_bitwise_equals_reference(step_paths):
    # The reference runs under numpy's default ufunc buffer. Odd trials and
    # the last three take the workspace step under the buffer train() uses;
    # trials 60 and 61 have N just below and just above the largest N
    # (about 2,730) for which the default buffer packs rows of the E x N
    # outer, trial 62 has the shape of the wide-3000 benchmark workload.
    for path in step_paths:
        step = workspace_step(path)
        rng = np.random.default_rng(17)
        for trial in range(63):
            I = int(rng.integers(1, 5))
            N = int(rng.integers(1, 40)) if trial % 4 else int(rng.integers(200, 400))
            E = int(rng.integers(1, 9))
            if trial >= 60:
                N, E = ((2700, 8), (2800, 8), (2930, 50))[trial - 60]
            bufsize = SGD_BUFSIZE if trial % 2 or trial >= 60 else np.getbufsize()
            lr = (0.0, 1.0)[trial] if trial < 2 else float(rng.choice([0.0, 1.0, rng.uniform(0, 1)]))
            ref = random_model(rng, I, N, E)
            # smaller weights keep 25 steps at lr up to 1 away from log(0)
            ref.O *= 0.2
            ref.T *= 0.2
            new = copy_model(ref)
            ws = StepWorkspace(new)
            for s in range(25):
                u = int(rng.integers(0, I))
                logits = ref.O[u] @ ref.T + ref.b_t
                # the target at the softmax argmax, or anywhere else
                y = int(logits.argmax()) if s % 2 else int(rng.integers(0, N))
                want_phi = reference_forward_classify(ref, u)
                want = reference_step_classify(ref, u, y, lr)
                with ufunc_bufsize(bufsize):
                    assert np.array_equal(forward_classify(new, u), want_phi)
                    got = step(new, u, y, lr, ws)
                assert got == want, f"{path} trial {trial} step {s}: loss {got} != {want}"
                assert_same_model(ref, new, f"{path} trial {trial} step {s}")
            # a step without a workspace takes the same arithmetic
            want = reference_step_classify(ref, 0, N - 1, lr)
            with ufunc_bufsize(bufsize):
                assert step_classify(new, 0, N - 1, lr) == want
            assert_same_model(ref, new, f"{path} trial {trial} without workspace")


def assert_padded_matches_packed(step_paths, E, N, seed):
    """init_model's T against a packed copy, bit for bit: the softmax, the
    numpy step without and with a workspace, the C loop, and 2 epochs of
    train on each step path."""
    padded = random_model(np.random.default_rng(seed), 3, N, E)
    assert padded.T.strides[0] == (-(-N // 8) * 8 if N >= 8 else N) * 8
    packed = copy_model(padded)
    rng = np.random.default_rng(seed)
    with model_module._sgd_numpy():
        for u in range(3):
            assert forward_classify(padded, u).tobytes() == forward_classify(packed, u).tobytes()
        for ws_padded, ws_packed in ((None, None), (StepWorkspace(padded), StepWorkspace(packed))):
            for u, y in zip(rng.integers(0, 3, 4).tolist(), rng.integers(0, N, 4).tolist()):
                want = step_classify(packed, u, y, 0.1, ws_packed)
                assert step_classify(padded, u, y, 0.1, ws_padded) == want
                assert_same_model(packed, padded, f"numpy step, workspace {ws_padded is not None}")
        if "c" in step_paths:
            # the C loop on both layouts, and the packed numpy step where
            # train would take the loop at this shape
            lib, looped = _native.load(), copy_model(packed)
            oracle = loop_matches_at(lib, E, N)
            workspaces = [StepWorkspace(m) for m in (padded, looped, packed)]
            for u in range(3):
                context = rng.integers(0, N, 3).astype(np.int32)
                taken = []
                for m, ws in zip((padded, looped), workspaces):
                    losses = np.full(3, np.nan)
                    assert take_pairs(lib, m, ws, u, context, 0.1, losses) == 3
                    taken.append(losses.tolist())
                assert taken[0] == taken[1]
                assert_same_model(looped, padded, "C loop")
                if oracle:
                    ws = workspaces[2]
                    assert taken[0] == [step_classify(packed, u, y, 0.1, ws) for y in context.tolist()]
                    assert_same_model(packed, padded, "C loop against the numpy step")
    cfg = ModelConfig(embed_dim=E, learning_rate=0.1, epochs=2, rng_seed=seed % 1000)
    stream = TrainingStream(rng.integers(0, 3, 4), rng.uniform(size=4), np.arange(0, 13, 3),
                            rng.integers(0, N, 12).astype(np.int32))
    for path in step_paths:
        fresh = init_model(cfg, ids("u", 3), ids("v", N))
        with on_path(path) as name:
            models, reports = zip(*(train(m, lambda epoch: stream, cfg)
                                    for m in (fresh, copy_model(fresh))))
        assert reports[0] == replace(reports[1], epoch_seconds=reports[0].epoch_seconds)
        assert reports[0].classify_kernel == name
        assert_same_model(models[1], models[0], f"train, {name} step")


@settings(max_examples=40, deadline=None)
@given(E=st.integers(2, 64), N=st.integers(2, 3000), seed=st.integers(0, 2**32 - 1))
# Why T is padded only from N = 8: numpy's o @ T takes other bits with
# padded rows at N of 2 and 3 and E >= 4 (OpenBLAS's SkylakeX kernels), so
# a T padded there fails these checks on such a host
@example(E=4, N=2, seed=0)
@example(E=4, N=3, seed=0)
def test_padded_rows_match_packed(step_paths, E, N, seed):
    assert_padded_matches_packed(step_paths, E, N, seed)


# N near the reference corpus (about 300 nodes) and the wide one (2,927 to
# 2,965), each residue mod 8 once, so that every tail of a padded row runs
@pytest.mark.parametrize("N", [*range(296, 304), *range(2952, 2960)])
def test_padded_rows_match_packed_near_the_benchmark_sizes(step_paths, N):
    assert_padded_matches_packed(step_paths, 50, N, N)


def test_train_bitwise_equals_reference_loop(step_paths):
    corpus = generate_corpus(np.random.default_rng(5), n_nodes=60, n_cascades=60, n_planted=2, n_lures=2)
    cfg = ModelConfig(embed_dim=8, learning_rate=0.1, epochs=3, rng_seed=4)
    streams = [build_training_stream(corpus, 1.2, cfg.rng_seed + e) for e in range(cfg.epochs)]
    ref, want = reference_train(corpus, cfg, streams)
    for path in step_paths:
        with on_path(path) as name:
            model, report = train(init_model(cfg, corpus.influencer_ids(), corpus.node_ids()), streams.__getitem__, cfg)
        assert report.classify_kernel == name
        got = list(zip(report.classify_loss, report.regress_loss, report.classify_steps, report.regress_steps))
        assert got == want
        assert_same_model(model, ref, f"train, {name} step")


@pytest.mark.parametrize("big, lr", [(1e308, 3.0), (1e10, 3e298)])
def test_workspace_step_catches_overflow_of_t_alone(big, lr, step_paths):
    # O[0, 0] is big and row 0 of T is zero, so influencer 0's logits stay
    # finite while its step at rate lr pushes T[0, 1] past the largest
    # double. The loss, g, O_u and b_t stay finite: only the scan that the
    # max|T| bound falls back to can see the overflow. First, influencer 1
    # (O[1, 0] = 0, so row 0 of T stays zero) takes steps at rate 1 that
    # leave the bound finite and far below the limit.
    for path in step_paths:
        step = workspace_step(path)
        ref = model_with_ids(
            O=np.array([[big, 0.0], [0.0, 0.3]]),
            T=np.array([[0.0, 0.0, 0.0], [0.2, -0.1, 0.4]]),
            b_t=np.zeros(3),
            b_c=0.0,
            C=np.ones(2),
        )
        new = copy_model(ref)
        steps = [((1, s % 3), 1.0) for s in range(6)] + [((0, 1), lr)] * 3
        with np.errstate(over="ignore", invalid="ignore"):
            want = run_until_raise(reference_step_classify, ref, steps)
            ws = StepWorkspace(new)
            got = run_until_raise(lambda m, u, y, r: step(m, u, y, r, ws), new, steps)
        assert want[1] == 6
        assert np.isinf(ref.T[0, 1]) and np.isfinite(ref.O).all() and np.isfinite(ref.b_t).all()
        assert got == want
        # the raise leaves the workspace to scan T and b_t again if reused
        assert ws.bound == ws.bias_bound == math.inf
        assert_same_model(ref, new, f"overflow, path {path}")


def test_workspace_step_catches_overflow_of_o_u_alone(step_paths):
    # O[0, 0] is zero, so row 0 of T (+-1e308) adds nothing to the logits
    # and does not move. After four steps at rate 0, which change nothing,
    # the gradient of O[0, 0], 1e308 * (g_0 - g_1) or about -1e308, times
    # the rate 3 pushes O[0, 0] past the largest double. The loss, T and
    # b_t stay finite: only the check of O_u can see it.
    for path in step_paths:
        step = workspace_step(path)
        ref = model_with_ids(
            O=np.array([[0.0, 0.5]]),
            T=np.array([[1e308, -1e308, 0.0], [0.2, -0.1, 0.4]]),
            b_t=np.zeros(3),
            b_c=0.0,
            C=np.ones(2),
        )
        new = copy_model(ref)
        steps = [((0, 2), 0.0)] * 4 + [((0, 0), 3.0)]
        with np.errstate(over="ignore"):
            want = run_until_raise(reference_step_classify, ref, steps)
            ws = StepWorkspace(new)
            got = run_until_raise(lambda m, u, y, r: step(m, u, y, r, ws), new, steps)
        assert want[1] == 4 and all(math.isfinite(loss) for loss in want[0])
        assert np.isinf(ref.O[0, 0]) and np.isfinite(ref.T).all() and np.isfinite(ref.b_t).all()
        assert got == want
        assert_same_model(ref, new, f"overflow, path {path}")


def test_workspace_step_raises_at_reference_step_on_huge_entries(step_paths):
    # Entries near 1e308 in O or T and moderate learning rates: whichever
    # check fires, the workspace step must stop at the reference's step.
    # Trials 40-59 put tied entries near 1e308 into b_t and take large
    # rates, so that b_t alone can overflow; trials 60-79 put a NaN or
    # +-inf into O, T or b_t, which makes logits non-finite.
    for path in step_paths:
        step = workspace_step(path)
        rng = np.random.default_rng(23)
        raised = b_t_alone = nonfinite_raised = 0
        for trial in range(80):
            I, N, E = 2, int(rng.integers(2, 12)), int(rng.integers(1, 5))
            ref = random_model(rng, I, N, E)
            if trial >= 60:
                which = (ref.O, ref.T, ref.b_t)[trial % 3]
                which.flat[int(rng.integers(0, which.size))] = rng.choice([np.nan, np.inf, -np.inf])
            elif trial >= 40:
                mask = rng.random(N) < 0.5
                ref.b_t[mask] = rng.uniform(1.5e308, 1.7e308)
            else:
                which = ref.O if trial % 2 else ref.T
                mask = rng.random(which.shape) < 0.3
                which[mask] = rng.choice([-1.0, 1.0], mask.sum()) * rng.uniform(1e306, 1.7e308, mask.sum())
            new, before = copy_model(ref), copy_model(ref)
            rates = [0.1, 0.5, 1.0, 3.0] if trial < 40 else [1.0, 1e307, 4e307]
            lr = float(rng.choice(rates))
            steps = [((int(rng.integers(0, I)), int(rng.integers(0, N))), lr) for _ in range(20)]
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                want = run_until_raise(reference_step_classify, ref, steps)
                ws = StepWorkspace(new)
                got = run_until_raise(lambda m, u, y, r: step(m, u, y, r, ws), new, steps)
            assert got == want, f"path {path} trial {trial}"
            if path is not None:
                # the same pairs in one stretch of the loop
                stretch = copy_model(before)
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    assert loop_until_raise(stretch, steps) == want, f"stretch, trial {trial}"
                assert_same_model(ref, stretch, f"stretch, trial {trial}", equal_nan=True)
            raised += want[1] is not None
            if 40 <= trial < 60 and want[1] is not None:
                # the raising step's loss is finite and only b_t overflowed, so
                # only the b_t check can see it
                (u, y), _ = steps[want[1]]
                with np.errstate(over="ignore", invalid="ignore"):
                    run_until_raise(reference_step_classify, before, steps[: want[1]])
                    finite_loss = reference_forward_classify(before, u)[y] > 0
                b_t_alone += bool(
                    finite_loss
                    and np.isinf(ref.b_t).any() and np.isfinite(ref.O).all() and np.isfinite(ref.T).all()
                )
            nonfinite_raised += trial >= 60 and want[1] is not None
        assert raised > 0 and b_t_alone > 0 and nonfinite_raised > 0


def test_workspace_step_large_t_without_overflow_does_not_raise(step_paths):
    # Column 0 of T holds -1.7e308, so its logit is hugely negative, its
    # softmax entry is exactly 0 and no step moves it. max|T| stays above
    # the bound limit and every step scans T, finds it finite and goes on.
    for path in step_paths:
        step = workspace_step(path)
        rng = np.random.default_rng(29)
        ref = random_model(rng, 2, 6, 3)
        ref.O[:] = np.abs(ref.O) + 0.5
        ref.T[0, 0] = -1.7e308
        new = copy_model(ref)
        ws = StepWorkspace(new)
        for s in range(20):
            u, y = s % 2, 1 + s % 5
            assert step(new, u, y, 0.1, ws) == reference_step_classify(ref, u, y, 0.1)
            assert_same_model(ref, new, f"step {s}")
        assert ws.bound == 1.7e308
        assert new.T[0, 0] == -1.7e308

        # The same with b_t[0] = -1.7e308: every step scans b_t, finds it
        # finite and goes on.
        ref = random_model(rng, 2, 6, 3)
        ref.O[:] = np.abs(ref.O) + 0.5
        ref.b_t[0] = -1.7e308
        new = copy_model(ref)
        ws = StepWorkspace(new)
        for s in range(20):
            u, y = s % 2, 1 + s % 5
            assert step(new, u, y, 0.1, ws) == reference_step_classify(ref, u, y, 0.1)
            assert_same_model(ref, new, f"b_t step {s}")
        assert ws.bias_bound == 1.7e308
        assert new.b_t[0] == -1.7e308

        # O_0 is finite though its sum overflows. Rows 0 and 1 of T start at
        # zero and move by 1e-310 * 1e308 * g per step, so every logit stays
        # finite and no step raises.
        ref = model_with_ids(
            O=np.array([[1e308, 1e308, 0.3]]),
            T=np.vstack([np.zeros((2, 5)), rng.normal(0, 0.5, (1, 5))]),
            b_t=np.zeros(5),
            b_c=0.0,
            C=np.ones(3),
        )
        new = copy_model(ref)
        ws = StepWorkspace(new)
        for s in range(10):
            lr = (0.0, 1e-310)[s % 2]
            assert step(new, 0, 1, lr, ws) == reference_step_classify(ref, 0, 1, lr)
            assert_same_model(ref, new, f"O_u step {s}")
        assert new.O[0, 0] == 1e308 and (new.T[:2] != 0).any()


def test_train_scopes_the_small_ufunc_buffer(step_paths):
    # Steps run under SGD_BUFSIZE, stream builds and the caller under the
    # caller's size, which train restores on return and on NonFiniteUpdate.
    # A replaced step_classify sees the numpy steps; the C loop makes no
    # numpy call through Python, so on its path only the restore is seen.
    corpus = parse_cascades(["u1:0\ta:1 b:2\n", "u2:5\tb:6 c:7\n"])
    for path in step_paths:
        seen = {"stream": set(), "step": set()}

        def producer(epoch):
            seen["stream"].add(np.getbufsize())
            return build_training_stream(corpus, 1.2, epoch)

        def recording(*args):
            seen["step"].add(np.getbufsize())
            return step_classify(*args)

        with on_path(path) as name, pytest.MonkeyPatch.context() as mp:
            if path is None:
                mp.setattr(model_module, "step_classify", recording)
            # numpy 2's errstate restores the buffer size on exit, so check inside it
            with ufunc_bufsize(4096), np.errstate(over="ignore", invalid="ignore"):
                for lr in (0.1, 1e308):
                    cfg = ModelConfig(embed_dim=4, learning_rate=lr, epochs=2, rng_seed=0)
                    m = init_model(cfg, corpus.influencer_ids(), corpus.node_ids())
                    if lr == 0.1:
                        _, report = train(m, producer, cfg)
                        assert report.classify_kernel == name
                    else:
                        with pytest.raises(NonFiniteUpdate):
                            train(m, producer, cfg)
                    assert np.getbufsize() == 4096
        want = {SGD_BUFSIZE} if path is None else set()
        assert seen == {"stream": {4096}, "step": want}, name


# Streams of a model of 3 influencers and 4 nodes, each a change of GOOD's
# arrays with the start of its error after "stream for epoch k: ": its
# first bad influencer (outside [0, 3)) or context (outside [0, 4)),
# arrays of lengths that do not fit, offsets that do not run from 0 to the
# contexts, or an array of non-integers. A list is made an int64
# influencer or offsets, an int32 context.
GOOD = dict(influencer=[0, 1, 2], size_target=[0.2, 0.5, 0.8], offsets=[0, 1, 2, 2], context=[1, 3])
BAD_STREAMS = {
    "negative influencers and context": (dict(influencer=[-1, 0, -3], context=[1, -2]),
                                         r"influencer 0 \(-1\)"),
    "influencer past the rows of O": (dict(influencer=[0, 3, 1]), r"influencer 1 \(3\)"),
    "context past the columns of T": (dict(context=[3, 4]), r"context 1 \(4\)"),
    "context of -1": (dict(context=[1, -1]), r"context 1 \(-1\)"),
    "context one short": (dict(context=[1]), "offsets do not run from 0"),
    # int32 would wrap it to 1, a column of T
    "int64 context past int32": (dict(context=np.array([1, 2**32 + 1])), r"context 1 \(4294967297\)"),
    "NaN influencer": (dict(influencer=np.array([0, np.nan, 2])), "influencer holds float64"),
    "half a context": (dict(context=np.array([1, 0.5])), "context holds float64"),
    "float offsets": (dict(offsets=np.array([0.0, 1, 2, 2])), "offsets holds float64"),
    "offsets from 1": (dict(offsets=[1, 1, 2, 2]), "offsets do not run from 0"),
    "descending offsets": (dict(offsets=[0, 2, 1, 2]), "offsets do not run from 0"),
    # their differences wrap past 2**63 instead of going below 0
    "descending uint64 offsets": (dict(offsets=np.array([0, 2, 1, 2], dtype=np.uint64)),
                                  "offsets do not run from 0"),
    "an offset short": (dict(offsets=[0, 1, 2]), "influencer, size_target and offsets hold 3, 3 and 3"),
    "a size target short": (dict(size_target=[0.2, 0.5]),
                            "influencer, size_target and offsets hold 3, 2 and 4"),
}


def stream_of(influencer, size_target, offsets, context):
    def array(values, dtype):
        return np.asarray(values, dtype=getattr(values, "dtype", dtype))
    return TrainingStream(array(influencer, np.int64), np.asarray(size_target),
                          array(offsets, np.int64), array(context, np.int32))


@pytest.mark.parametrize("case", sorted(BAD_STREAMS))
@pytest.mark.parametrize("epoch", [0, 1])
def test_train_refuses_a_stream_outside_the_model(step_paths, case, epoch):
    # The numpy steps would index a negative influencer or context from the
    # end, or a float one rounded down: train raises before the epoch takes
    # a step, on either path.
    change, error = BAD_STREAMS[case]
    good = stream_of(**GOOD)
    streams = [good, good]
    streams[epoch] = stream_of(**{**GOOD, **change})
    cfg = ModelConfig(embed_dim=2, learning_rate=0.1, epochs=2)
    for path in step_paths:
        model = random_model(np.random.default_rng(71), 3, 4, 2)
        want = copy_model(model)
        with on_path(path) as name:
            if epoch == 1:
                train(want, streams.__getitem__, ModelConfig(embed_dim=2, learning_rate=0.1, epochs=1))
            with pytest.raises(ValueError, match=rf"stream for epoch {epoch}: {error}"):
                train(model, streams.__getitem__, cfg)
        assert_same_model(want, model, name)


@pytest.mark.parametrize("widths", [(np.int32, np.int32), (np.int64, np.int64)],
                         ids=["int32 influencer", "int64 context"])
def test_train_takes_a_stream_of_other_integer_widths(widths, kernel_name, kernel_isa):
    # train hands the C loop the int32 context it takes, whatever the
    # widths of the stream: the bits of the stream as build_training_stream
    # makes it, on the same path. The int32 case has int32 offsets too.
    corpus = generate_corpus(np.random.default_rng(5), n_nodes=60, n_cascades=60, n_planted=2, n_lures=2)
    cfg = ModelConfig(embed_dim=8, learning_rate=0.1, epochs=2, rng_seed=4)
    streams = [build_training_stream(corpus, 1.2, cfg.rng_seed + e) for e in range(cfg.epochs)]
    want, want_report = train(init_model(cfg, corpus.influencer_ids(), corpus.node_ids()),
                              streams.__getitem__, cfg)
    other = [TrainingStream(s.influencer.astype(widths[0]), s.size_target,
                            s.offsets.astype(widths[0]), s.context.astype(widths[1]), s.draws)
             for s in streams]
    model, report = train(init_model(cfg, corpus.influencer_ids(), corpus.node_ids()),
                          other.__getitem__, cfg)
    assert (report.classify_kernel, report.classify_isa) == (kernel_name, kernel_isa)
    assert (report.classify_loss, report.regress_loss) == (want_report.classify_loss,
                                                           want_report.regress_loss)
    assert_same_model(want, model, f"influencer {widths[0]}, context {widths[1]}")


def test_model_of_embed_dim_1_takes_the_numpy_step(native_library):
    # numpy's matmul takes no dgemv when E is 1, so the direct calls cannot
    # stand for it: train takes the numpy step, with the reference's bits
    corpus = generate_corpus(np.random.default_rng(5), n_nodes=60, n_cascades=60, n_planted=2, n_lures=2)
    cfg = ModelConfig(embed_dim=1, learning_rate=0.1, epochs=2, rng_seed=4)
    streams = [build_training_stream(corpus, 1.2, cfg.rng_seed + e) for e in range(cfg.epochs)]
    ref, want = reference_train(corpus, cfg, streams)
    model, report = train(init_model(cfg, corpus.influencer_ids(), corpus.node_ids()), streams.__getitem__, cfg)
    assert report.classify_kernel == "numpy" and report.classify_isa is None
    got = list(zip(report.classify_loss, report.regress_loss, report.classify_steps, report.regress_steps))
    assert got == want
    assert_same_model(model, ref, "E = 1")


def test_replaced_step_classify_sees_every_classify_step(native_library, monkeypatch):
    # A wrapper on model.step_classify, as a benchmark's timing layer
    # installs, is called for every classify step of train, library or not.
    corpus = generate_corpus(np.random.default_rng(6), n_nodes=60, n_cascades=60, n_planted=2, n_lures=2)
    cfg = ModelConfig(embed_dim=8, learning_rate=0.1, epochs=2, rng_seed=1)
    streams = [build_training_stream(corpus, 1.2, cfg.rng_seed + e) for e in range(cfg.epochs)]
    ref, want = reference_train(corpus, cfg, streams)
    calls = []

    def counting_step(*args):
        calls.append(args[1:3])
        return step_classify(*args)

    monkeypatch.setattr(model_module, "step_classify", counting_step)
    model, report = train(init_model(cfg, corpus.influencer_ids(), corpus.node_ids()), streams.__getitem__, cfg)
    assert report.classify_kernel == "numpy" and report.classify_isa is None
    assert len(calls) == sum(report.classify_steps) == sum(steps for *_, steps, _ in want)
    assert calls == [(u, v) for s in streams for kind, u, v in stream_pairs(s) if kind == "C"]
    assert_same_model(model, ref, "replaced step_classify")


def test_replaced_step_regress_sees_every_size_step(native_library, monkeypatch, tmp_path, capsys):
    # A wrapper on model.step_regress, as a benchmark's timing layer
    # installs, is called for every size step of train, library or not:
    # the numpy steps take the epochs, and a manifest says so.
    corpus = generate_corpus(np.random.default_rng(6), n_nodes=60, n_cascades=60, n_planted=2, n_lures=2)
    cfg = ModelConfig(embed_dim=8, learning_rate=0.1, epochs=2, rng_seed=1)
    streams = [build_training_stream(corpus, 1.2, cfg.rng_seed + e) for e in range(cfg.epochs)]
    ref, want = reference_train(corpus, cfg, streams)
    calls = []

    def counting_step(*args):
        calls.append(args[1:3])
        return step_regress(*args)

    monkeypatch.setattr(model_module, "step_regress", counting_step)
    model, report = train(init_model(cfg, corpus.influencer_ids(), corpus.node_ids()), streams.__getitem__, cfg)
    assert report.classify_kernel == "numpy" and report.classify_isa is None
    assert len(calls) == sum(report.regress_steps) == sum(steps for *_, steps in want)
    assert calls == [(u, y) for s in streams for kind, u, y in stream_pairs(s) if kind == "S"]
    assert_same_model(model, ref, "replaced step_regress")
    synth, manifest = tmp_path / "synth.txt", tmp_path / "train.json"
    assert main(["synth", "--nodes", "40", "--cascades", "30", "--planted", "1", "--lures", "1",
                 "--out", str(synth)]) == 0
    assert main(["train", "--cascades", str(synth), "--embed-dim", "4", "--epochs", "1",
                 "--out", str(tmp_path / "model.infv"), "--manifest", str(manifest)]) == 0
    capsys.readouterr()
    doc = json.loads(manifest.read_text())
    assert (doc["classify_kernel"], doc["classify_isa"]) == ("numpy", None)


def test_c_path_takes_each_epoch_in_one_library_call(direct_library, monkeypatch):
    # Every call of the library's functions goes through a proxy; the calls
    # given the trained model's O are its epochs', one train_pairs each.
    # The self-check's calls are on models of its own.
    corpus = generate_corpus(np.random.default_rng(5), n_nodes=60, n_cascades=60, n_planted=2, n_lures=2)
    cfg = ModelConfig(embed_dim=8, learning_rate=0.1, epochs=3, rng_seed=4)
    streams = [build_training_stream(corpus, 1.2, cfg.rng_seed + e) for e in range(cfg.epochs)]
    model = init_model(cfg, corpus.influencer_ids(), corpus.node_ids())
    calls = []

    class Proxy:
        def __getattr__(self, name):
            found = getattr(direct_library, name)
            if not callable(found):
                return found

            def call(*args):
                calls.append((name, any(arg is model.O for arg in args)))
                return found(*args)

            return call

    monkeypatch.setattr(_native, "load", Proxy)
    _, report = train(model, streams.__getitem__, cfg)
    assert report.classify_kernel == "c"
    assert [name for name, on_model in calls if on_model] == ["train_pairs"] * cfg.epochs
    assert {name for name, _ in calls} == {"train_pairs"}


@pytest.mark.parametrize("seed", range(6))
def test_train_on_drawn_corpora_takes_both_sigmoid_branches_bitwise(step_paths, seed, monkeypatch):
    # forward_regress's two branches, z >= 0 and z < 0, each on some size
    # pair of a corpus, embedding size, rate and epoch count drawn from
    # the seed: each path's model and report are the reference's
    rng = np.random.default_rng([seed, 83])
    corpus = generate_corpus(rng, n_nodes=int(rng.integers(60, 120)),
                             n_cascades=int(rng.integers(10, 80)), n_planted=2, n_lures=2)
    cfg = ModelConfig(embed_dim=int(rng.integers(2, 24)), learning_rate=float(rng.uniform(0.05, 1)),
                      epochs=int(rng.integers(2, 4)), rng_seed=seed)
    streams = [build_training_stream(corpus, 1.2, cfg.rng_seed + e) for e in range(cfg.epochs)]
    forward, signs = model_module.forward_regress, set()

    def recording(model, u):
        signs.add(float(model.O[u] @ model.C) + model.b_c >= 0.0)
        return forward(model, u)

    with monkeypatch.context() as mp:
        mp.setattr(model_module, "forward_regress", recording)
        ref, want = reference_train(corpus, cfg, streams)
    assert signs == {True, False}
    for path in step_paths:
        with on_path(path) as name:
            model, report = train(init_model(cfg, corpus.influencer_ids(), corpus.node_ids()),
                                  streams.__getitem__, cfg)
        assert report.classify_kernel == name
        got = list(zip(report.classify_loss, report.regress_loss, report.classify_steps, report.regress_steps))
        assert got == want
        assert_same_model(model, ref, f"seed {seed}, {name} path")
        assert float(model.b_c).hex() == float(ref.b_c).hex()


def test_train_raises_at_a_non_finite_size_pair_where_the_reference_loop_does(step_paths):
    # Epoch 1's fourth size target is 1e300: its size pair's loss, about
    # 1e600, overflows while O and b_c stay finite. Both paths raise at
    # that pair, with the regression step's message, and leave the model
    # as the reference loop does.
    corpus = generate_corpus(np.random.default_rng(5), n_nodes=60, n_cascades=60, n_planted=2, n_lures=2)
    cfg = ModelConfig(embed_dim=8, learning_rate=0.1, epochs=2, rng_seed=4)
    streams = [build_training_stream(corpus, 1.2, cfg.rng_seed + e) for e in range(cfg.epochs)]
    streams[1].size_target[3] = 1e300
    with np.errstate(over="ignore"), pytest.raises(NonFiniteUpdate) as raised:
        reference_train(corpus, cfg, streams)
    assert (raised.value.epoch, raised.value.step) == (1, int(streams[1].offsets[4]) + 3)
    ref = raised.value.model
    assert np.isfinite(ref.O).all() and math.isfinite(ref.b_c)
    for path in step_paths:
        model = init_model(cfg, corpus.influencer_ids(), corpus.node_ids())
        with on_path(path) as name, pytest.raises(NonFiniteUpdate) as exc:
            train(model, streams.__getitem__, cfg)
        assert (exc.value.epoch, exc.value.step) == (raised.value.epoch, raised.value.step), name
        assert str(exc.value).startswith("regression step produced a non-finite value")
        assert_same_model(model, ref, f"{name} after the raise")


@pytest.mark.parametrize("lr", [1e5, 2.0])
def test_train_raises_where_the_reference_loop_does(step_paths, lr):
    # 1e5 makes the first classify step's loss -log(0); at 2 the model
    # overflows at step 15, in the second cascade (the first size pair is
    # step 10). Both paths raise at the epoch and step where the
    # reference loop does, and leave the model as it does.
    corpus = generate_corpus(np.random.default_rng(5), n_nodes=60, n_cascades=60, n_planted=2, n_lures=2)
    cfg = ModelConfig(embed_dim=8, learning_rate=lr, epochs=2, rng_seed=4)
    streams = [build_training_stream(corpus, 1.2, cfg.rng_seed + e) for e in range(cfg.epochs)]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(NonFiniteUpdate) as raised:
            reference_train(corpus, cfg, streams)
    assert (raised.value.epoch, raised.value.step) == (0, 1 if lr == 1e5 else 15)
    ref = raised.value.model
    for path in step_paths:
        model = init_model(cfg, corpus.influencer_ids(), corpus.node_ids())
        with on_path(path) as name, pytest.raises(NonFiniteUpdate) as exc:
            train(model, streams.__getitem__, cfg)
        assert (exc.value.epoch, exc.value.step) == (raised.value.epoch, raised.value.step), name
        assert str(exc.value).startswith(str(raised.value.args[0]))
        assert_same_model(model, ref, f"{name} after the raise", equal_nan=True)


def test_train_raises_with_epoch_and_step():
    corpus = parse_cascades(["u1:0\ta:1 b:2\n"])
    cfg = ModelConfig(embed_dim=4, learning_rate=1e308, epochs=1, rng_seed=0)
    m = init_model(cfg, corpus.influencer_ids(), corpus.node_ids())
    with pytest.raises(NonFiniteUpdate) as exc, np.errstate(over="ignore", invalid="ignore"):
        train(m, lambda e: build_training_stream(corpus, 1.2, e), cfg)
    assert exc.value.epoch == 0
    assert exc.value.step is not None
    assert "epoch 0" in str(exc.value)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    for trial in range(5):
        m = random_model(rng, int(rng.integers(1, 5)), int(rng.integers(2, 7)), 3)
        m.influencer_ids = [f"u{i}" for i in range(m.n_influencers)]
        m.node_ids = [f"v{i}" for i in range(m.n_nodes)]
        path = tmp_path / f"m{trial}.infv"
        save_embeddings(m, path)
        back = load_embeddings(path)
        assert (back.O == m.O).all()
        assert (back.T == m.T).all()
        assert (back.b_t == m.b_t).all()
        assert back.b_c == m.b_c
        assert (back.C == 1).all()
        assert back.influencer_ids == m.influencer_ids
        assert back.node_ids == m.node_ids


def test_save_writes_padded_rows_without_a_copy(tmp_path):
    # T's 200 rows of 1,001 entries lie 1,008 apart: save_embeddings writes
    # them row by row, the bytes of a packed T, with no copy of all of T
    # (1.6 MB): the peak measured 0.14 MB, against 1.61 MB with a copy
    padded = random_model(np.random.default_rng(23), 2, 1001, 200)
    assert padded.T.strides == (1008 * 8, 8)
    save_embeddings(copy_model(padded), tmp_path / "packed.infv")
    _, peak = traced_peak(lambda: save_embeddings(padded, tmp_path / "padded.infv"))
    assert peak < padded.T.nbytes / 4
    assert (tmp_path / "padded.infv").read_bytes() == (tmp_path / "packed.infv").read_bytes()


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.infv"
    path.write_bytes(b"NOPE!" + b"\x00" * 64)
    with pytest.raises(FormatVersionMismatch):
        load_embeddings(path)


def test_load_rejects_truncation_and_trailing(tmp_path):
    rng = np.random.default_rng(4)
    m = random_model(rng, 3, 4, 2)
    m.influencer_ids = ["a", "b", "c"]
    m.node_ids = ["w", "x", "y", "z"]
    path = tmp_path / "m.infv"
    save_embeddings(m, path)
    blob = path.read_bytes()
    for cut in [10, len(blob) // 2, len(blob) - 1]:
        clipped = tmp_path / "clip.infv"
        clipped.write_bytes(blob[:cut])
        with pytest.raises(CorruptFile):
            load_embeddings(clipped)
    padded = tmp_path / "pad.infv"
    padded.write_bytes(blob + b"\x00")
    with pytest.raises(CorruptFile):
        load_embeddings(padded)
