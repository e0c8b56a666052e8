"""The INFECTOR network: a shared embedding layer feeding two output heads.

Source embeddings O (one row per influencer) and target embeddings T (one
column per node) are trained by plain SGD on an alternating stream: each
influencer-context pair takes a softmax/NLL step, each influencer-size pair
takes a sigmoid/squared-loss step through the untrainable all-ones vector C.
Everything is float64; gradient tolerances depend on it.

train() takes an epoch's classify steps on one of two paths, with the same
bits on either:

- step_classify, the numpy step: the oracle, and the path when the C loop
  is not taken;
- classify_pairs, the C loop of _native.load()'s module, which takes one
  cascade's context pairs as step_classify would take them one by one;
  step_regress then takes the cascade's size pair.

Where its order is the contract the loop calls the functions numpy itself
calls, with the arguments numpy passes: its BLAS's cblas_dgemv for the
logits O_u T and for T g (BLAS's summation order), and the float64 inner
loops of np.exp (numpy's SIMD exp), np.add in reduce form (the softmax's
denominator, pairwise summation) and np.log (the loss), found by the
library when it loads. A C loop of its own cannot match those bitwise. No
Python runs within a call.

Every other operation is element-wise, and an IEEE add, subtract, multiply or
divide rounds the same in C as in numpy: + b_t, - max, / sum, g[y] - 1,
the T and b_t update, grad * lr and O_u - grad. The max of the logits does
not depend on the order (a NaN makes it NaN; a +0/-0 tie does not reach
exp(z - max), as exp(+-0) = 1). The T and b_t update is one C pass,
T[i,j] - ((O_u[i] * g[j]) * lr) and b_t[j] - lr * g[j], the operations of
numpy's outer product, in-place scaling and subtraction in the same order.
Each element is one rounded product, a second rounded product and one
rounded difference, and the library is built with -ffp-contract=off and
without -ffast-math, so nothing fuses or reorders them. That holds for
each of the update's vector clones (AVX-512F, AVX2, baseline x86-64,
picked per CPU at load time): a lane of a vector multiply or subtract
rounds exactly as the scalar operation does, nothing sets flush-to-zero or
denormals-are-zero, and -ffp-contract=off keeps the AVX-512F clone, whose
instruction set includes FMA, from fusing the multiply and subtract.

train() takes the loop only when all of these hold:

- model.step_classify is still this module's own function. A replaced
  step_classify, such as a benchmark's timing wrapper or a test's spy, is
  called for every classify step, on the numpy path;
- the native library loads;
- the loop's self-check passes at the model's E and N (_loop_matches_at):
  on the fixed (3, 13) and (5, 79) shapes and on (2, N) and (E, 2), which
  take the model's N and E one at a time, with a NaN in O and a +0/-0 tie
  at the max of b_t, the loop's losses, O, T, b_t and raising step match
  step_classify without a workspace bit for bit. So a numpy whose
  functions round otherwise at the model's N or E than those the library
  found (a sum split past some length, say) gets the numpy step. It
  fails too where the library did not find numpy's dgemv and loops, or E
  or N is 1 (numpy's matmul takes no dgemv there): the library refuses
  those calls (fits_loop in _native.c). The check does not run at the
  full (E, N): it would copy T and make the numpy step's E x N
  temporaries, about an eighth more peak memory for a 3,000-node model.

Every other model takes the numpy step, with the same bits.

The loop refuses, call by call and taking no pair, what the native
library's argument contract (the "Arguments" section of _native.c) or its
own checks rule out: a Fortran-order T, say, an array it writes that shares
memory with another, an influencer outside O's rows or a context outside
T's columns. step_classify then takes the cascade's pairs. train() refuses
a stream with a pair outside the model before its epoch takes a step, and
hands the loop its context as int32 (_check_stream).

A step proves the model finite instead of scanning it, and each proof is
exact:

- a finite loss -log(phi_y) proves the softmax gradient g finite. A NaN or
  +-inf logit makes the softmax denominator s NaN, and with it every
  phi_j. Otherwise every exp(z - max z) lies in [0, 1] and s >= 1, so
  every |g_j| <= 1;
- the StepWorkspace keeps upper bounds on max|T| and max|b_t|, which both
  paths read and update (the C loop is given them and returns them).
  With |g_j| <= 1 a step moves T by at most lr * max|O_u| and b_t by at
  most lr, so the bounds grow by that much. T or b_t is scanned only when
  its bound reaches 1e300 (both start at inf, so the first step scans),
  and the bound is then reset to the exact maximum;
- O_u is finite iff its dot product with a vector of 2**-60 is. Scaling
  by a power of two keeps +-inf and NaN, and the scaled entries are below
  2**964, so the sum of E < 2**60 of them cannot overflow. Unlike a plain
  sum of O_u, it needs no fallback scan and cannot warn of an overflow
  the step did not make. The C loop checks O_u entry by entry, which this
  proves equivalent.

None of this changes the arithmetic: a step with a workspace, on either
path, is bitwise-identical to one without, and NonFiniteUpdate fires at
the same step. train() runs the steps with numpy's overflow, invalid and
divide warnings off, so that NonFiniteUpdate is the only report of a
non-finite step.

train() also runs each epoch's steps with numpy's ufunc buffer at its
minimum, SGD_BUFSIZE elements, and restores the caller's size on every
exit. The numpy step's outer product O_u g^T broadcasts O_u and g with
stride 0, and while three or more rows of the E x N update fit in the
default 8,192-element buffer (N up to about 2,730) the buffered iterator
packs rows and copies both operands, which makes the outer product about
four times slower per element. A minimal buffer leaves nothing to pack.
Buffering only moves elements between memory and the buffer, so every
value is bitwise the same.
"""

import contextlib
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import _native
from .exceptions import CorruptFile, NonFiniteUpdate
from ._util import BinaryReader, write_binary

MAGIC = b"INFV1"


@dataclass
class ModelConfig:
    embed_dim: int = 50
    learning_rate: float = 0.1
    epochs: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class InfectorModel:
    O: np.ndarray  # I x E source embeddings
    T: np.ndarray  # E x N target embeddings
    b_t: np.ndarray  # N classification bias
    b_c: float  # regression bias
    C: np.ndarray  # E, all ones, never trained
    influencer_ids: list  # row u of O belongs to influencer_ids[u]
    node_ids: list  # column v of T belongs to node_ids[v]

    @property
    def n_influencers(self):
        return self.O.shape[0]

    @property
    def n_nodes(self):
        return self.T.shape[1]

    @property
    def embed_dim(self):
        return self.O.shape[1]


@dataclass
class TrainReport:
    """Per-epoch mean losses, step counts and wall times, filled in by train()."""

    classify_loss: list = field(default_factory=list)
    regress_loss: list = field(default_factory=list)
    classify_steps: list = field(default_factory=list)
    regress_steps: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)
    classify_kernel: str = "numpy"  # "c" when the C loop took every classify step
    # with the C loop, the clone of its T update: "avx512f", "avx2" or "baseline"
    classify_isa: str = None
    stream_draws: str = None  # the draws of epoch 0's stream: TrainingStream.draws


def _target_matrix(E, N):
    """An uninitialised E x N float64 array for T on a 64-byte boundary.
    For N >= 8 it is the first N columns of an E x ld buffer, ld N rounded
    up to a multiple of 8, so that every row starts on a 64-byte line and
    no pass over T splits a line between rows. Below 8 it is packed: there
    numpy's vector-matrix product takes other bits with padded rows (at N
    of 2 and 3, E >= 4, with OpenBLAS's SkylakeX kernels)."""
    ld = -(-N // 8) * 8 if N >= 8 else N
    buffer = np.empty(E * ld + 8)
    return buffer[(-buffer.ctypes.data % 64) // 8 :][: E * ld].reshape(E, ld)[:, :N]


def init_model(config, influencer_ids, node_ids):
    """Fresh model with one row of O per influencer id and one column of T
    per node id, uniform in [-0.5/E, 0.5/E], and zero biases.

    The init generator is seeded with (rng_seed, 0) so its draws stay
    distinct from the per-epoch context streams seeded with rng_seed+epoch.
    """
    if not influencer_ids or not node_ids:
        raise ValueError("model needs at least one influencer and one node")
    E, N = config.embed_dim, len(node_ids)
    rng = np.random.default_rng([config.rng_seed, 0])
    half = 0.5 / E
    O = rng.uniform(-half, half, size=(len(influencer_ids), E))
    T = _target_matrix(E, N)
    T[...] = rng.uniform(-half, half, size=(E, N))
    return InfectorModel(
        O=O,
        T=T,
        b_t=np.zeros(N),
        b_c=0.0,
        C=np.ones(E),
        influencer_ids=influencer_ids,
        node_ids=node_ids,
    )


def forward_classify(model, u, out=None):
    """Softmax over all nodes for influencer row u, max-stabilized.

    With ``out`` (a float64 N-vector) the result is computed in place there
    and no array is allocated.
    """
    z = np.matmul(model.O[u], model.T, out=out)
    z += model.b_t
    z -= np.maximum.reduce(z)
    np.exp(z, out=z)
    z /= np.add.reduce(z)
    return z


def forward_regress(model, u):
    """Sigmoid of the O_u coordinate sum (O_u dot ones) plus bias."""
    z = float(model.O[u] @ model.C) + model.b_c
    if z >= 0.0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return e / (1.0 + e)


# A bound on max|T| or max|b_t| below this proves the array finite; at or
# above it, or NaN, the step scans the array and resets the bound to its
# exact maximum. _native.c's BOUND_LIMIT is the same.
_BOUND_LIMIT = 1e300
_CLASSIFY_FAILED = "classification step produced a non-finite value"


class StepWorkspace:
    """Buffers and the max|T|, max|b_t| bounds that consecutive classify steps share.

    Valid only while T and b_t change through step_classify calls, or C
    loop runs, given this workspace. Both bounds start at inf, which makes
    the first step scan T and b_t; a step that raises NonFiniteUpdate sets
    them back to inf.
    """

    def __init__(self, model):
        E, N = model.T.shape
        self.phi = np.empty(N)
        self.grad = np.empty(E)
        self.scale = np.full(E, 2.0**-60)
        self.bound = math.inf
        self.bias_bound = math.inf
        # the T update's buffers, made when a numpy step first runs
        self.update = self.abs_O = None


def step_classify(model, u, y, lr, workspace=None):
    """One SGD step on pair (influencer u, context node y); returns the pre-update loss.

    The softmax/NLL gradient w.r.t. the logits collapses to phi - y, so the
    parameter gradients are T(phi - y) for O_u, the outer product
    O_u (phi - y)^T for T, and phi - y for b_t. Both matrix gradients use the
    pre-update O_u / T values (a single simultaneous step).

    Without a workspace the step allocates its own and scans all of T and
    b_t for non-finite values. With one shared across steps (as train()
    does), each is scanned only when the workspace's bound on its maximum
    magnitude reaches 1e300; the module docstring gives the proofs.
    """
    ws = StepWorkspace(model) if workspace is None else workspace
    T = model.T
    O_u = model.O[u]
    g = forward_classify(model, u, out=ws.phi)
    loss = -np.log(g[y])
    g[y] -= 1.0
    grad = np.matmul(T, g, out=ws.grad)
    # T -= (O_u g^T) * lr and b_t -= lr * g
    if ws.update is None:
        ws.update, ws.abs_O = np.empty_like(T), np.empty(T.shape[0])
    max_abs = float(np.maximum.reduce(np.abs(O_u, out=ws.abs_O)))  # NaN if O_u holds one
    np.multiply(O_u[:, None], g, out=ws.update)
    ws.update *= lr
    T -= ws.update
    model.b_t -= np.multiply(lr, g, out=ws.update[0])
    # once the loss is finite every |g_j| <= 1: an entry of T moves by at
    # most lr * max|O_u|, one of b_t by at most lr
    ws.bound += lr * max_abs
    ws.bias_bound += lr
    grad *= lr
    O_u -= grad
    if not ws.bound < _BOUND_LIMIT:
        # exact: max|T| is finite iff every entry is
        ws.bound = float(np.abs(T).max())
    if not ws.bias_bound < _BOUND_LIMIT:
        ws.bias_bound = float(np.abs(model.b_t).max())
    if not (
        math.isfinite(loss)
        and math.isfinite(np.dot(O_u, ws.scale))
        and math.isfinite(ws.bound)
        and math.isfinite(ws.bias_bound)
    ):
        ws.bound = ws.bias_bound = math.inf
        raise NonFiniteUpdate(_CLASSIFY_FAILED)
    return float(loss)


# train() takes the C loop only while model.step_classify is this function.
_OWN_STEP_CLASSIFY = step_classify

# The fixed (E, N) shapes of the loop's self-check. In the second, N = 79 =
# 9 * 8 + 4 + 3, so each row of T and b_t runs every part of every clone of
# the T update that gcc 12 builds: the 8-wide AVX-512 body, its 4-wide
# epilogue and a scalar tail; the 4-wide AVX2 body, its 2-wide epilogue
# and a scalar tail; and baseline x86-64's 2-wide body and scalar tail.
_SELF_CHECK_SHAPES = ((3, 13), (5, 79))


def _same_bits(a, b):
    """True if the float64 arrays are equal bit for bit, any NaN standing
    for any NaN."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and a[~nan].tobytes() == b[~nan].tobytes()
    )


def _take_pairs(lib, model, ws, u, context, lr, losses):
    """The C loop of ``lib`` on the pairs of influencer ``u`` and each of
    ``context``, with the arrays of ``model`` and ``ws``: len(context), or
    ~k if step k proved a value non-finite, with the workspace's bounds set
    to those its steps leave; None, having taken no pair, if the loop
    refuses the arrays, u or a context outside T's columns."""
    taken = lib.classify_pairs(model.O, model.T, model.b_t, ws.phi, ws.grad, losses, u, context,
                               lr, ws.bound, ws.bias_bound)
    if taken is None:
        return None
    stop, ws.bound, ws.bias_bound = taken
    return stop


def _loop_matches_step(lib, shapes=_SELF_CHECK_SHAPES):
    """True if the C loop of ``lib`` takes fixed pairs bit for bit as
    step_classify without a workspace does: each loss, O, T and b_t, where
    the loop stops and which step raises. The loop takes T in init_model's
    layout, the numpy step a packed T.

    Each (E, N) of ``shapes``, N at least 2, runs three models: random,
    one with a NaN in O's second row (whose first step raises), and one
    whose largest logits, 0, come from the +0 and -0 entries of b_t over
    zero columns of T, every other logit far below. Five classify pairs
    run as four cascades, of influencers 0, 1, 0 and 1, one call each.
    Their contexts are taken mod N.
    """
    rng = np.random.default_rng(2019)
    lr = 0.1
    for E, N in shapes:
        for case in ("random", "nan", "zero tie"):
            O, T, b_t = rng.normal(size=(2, E)), rng.normal(size=(E, N)), rng.normal(size=N)
            if case == "nan":
                O[1, E // 2] = np.nan
            elif case == "zero tie":
                T[:, :4] = 0.0
                b_t[:] = -1e3
                b_t[:4] = (0.0, -0.0, -0.0, 0.0)[:N]
            want = InfectorModel(O, T, b_t, 0.0, np.ones(E), [], [])
            got = InfectorModel(O.copy(), _target_matrix(E, N), b_t.copy(), 0.0, np.ones(E), [], [])
            got.T[...] = T
            ws = StepWorkspace(got)
            for u, context in ((0, [1, 0]), (1, [3 % N]), (0, [N - 1]), (1, [2 % N])):
                want_losses = []
                try:
                    for y in context:
                        want_losses.append(_OWN_STEP_CLASSIFY(want, u, y, lr))
                    want_stop = len(context)
                except NonFiniteUpdate:
                    want_stop = ~len(want_losses)
                got_losses = np.full(len(context), np.nan)
                stop = _take_pairs(lib, got, ws, u, np.array(context, dtype=np.int32), lr,
                                   got_losses)
                if not (
                    stop == want_stop  # not None, where the loop refuses the arrays
                    and _same_bits(got_losses[: len(want_losses)], want_losses)
                    and all(_same_bits(getattr(got, a), getattr(want, a)) for a in ("O", "T", "b_t"))
                ):
                    return False
                if stop < 0:
                    break
    return True


def _loop_matches_at(lib, E, N):
    """True if the loop's self-check passes on its fixed shapes and on
    (2, N) and (E, 2), for a model whose T is E x N. Run under
    _sgd_numpy()."""
    return _loop_matches_step(lib, (*_SELF_CHECK_SHAPES, (2, N), (E, 2)))


def _classify_loop(model):
    """The native library if train() may take its C loop for ``model``,
    else None: see the module docstring for the rule."""
    if step_classify is not _OWN_STEP_CLASSIFY:
        return None
    lib = _native.load()
    if lib is None:
        return None
    with _sgd_numpy():
        ok = _loop_matches_at(lib, *model.T.shape)
    return lib if ok else None


def step_regress(model, u, y_c, lr):
    """One SGD step on pair (influencer u, size target y_c); returns the pre-update loss.

    The gradient w.r.t. O_u is the scalar -2(y_c - phi_c) phi_c (1 - phi_c)
    broadcast across all E coordinates, because dz_c/dO_u = C = ones. T and
    C are untouched.
    """
    phi_c = forward_regress(model, u)
    loss = (y_c - phi_c) ** 2
    g = -2.0 * (y_c - phi_c) * phi_c * (1.0 - phi_c)
    model.O[u] -= lr * g
    model.b_c -= lr * g
    if not (np.isfinite(loss) and np.isfinite(model.O[u]).all() and np.isfinite(model.b_c)):
        raise NonFiniteUpdate("regression step produced a non-finite value")
    return float(loss)


# Smallest ufunc buffer numpy accepts; see the module docstring for why the
# SGD loop runs with it.
SGD_BUFSIZE = 16


@contextlib.contextmanager
def _sgd_numpy():
    """numpy's settings for SGD steps: the ufunc buffer at SGD_BUFSIZE, and
    no overflow, invalid or divide warning, since a step that overflows or
    whose loss is -log(0) raises NonFiniteUpdate. The caller's settings
    come back on every exit."""
    # try/finally, not np.errstate: numpy 1.x errstate does not scope bufsize
    old_bufsize = np.setbufsize(SGD_BUFSIZE)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            yield
    finally:
        np.setbufsize(old_bufsize)


def _run_epoch(model, stream, lr, workspace, lib, epoch):
    """Take every pair of ``stream`` in order; return the losses of its
    classify pairs and of its size pairs, each in stream order.

    With ``lib`` the C loop takes each cascade's context pairs, and each
    pair it does not take, or whose arrays it refuses, goes through
    step_classify, as every context pair does without it; step_regress
    takes each size pair. A non-finite step raises NonFiniteUpdate with
    ``epoch`` and the pair's index in the stream as its step.
    """
    context = stream.context
    classify, regress = np.empty(len(context)), np.empty(len(stream.influencer))
    offsets = stream.offsets.tolist()
    cascades = zip(stream.influencer.tolist(), stream.size_target.tolist(), offsets, offsets[1:])
    for i, (u, y_c, a, b) in enumerate(cascades):
        k = a
        if lib is not None:
            stop = _take_pairs(lib, model, workspace, u, context[a:b], lr, classify[a:b])
            if stop is not None:
                if stop < 0:
                    raise NonFiniteUpdate(_CLASSIFY_FAILED, epoch=epoch, step=a + i + ~stop)
                k += stop
        try:
            for k in range(k, b):
                classify[k] = step_classify(model, u, int(context[k]), lr, workspace)
            k = b
            regress[i] = step_regress(model, u, y_c, lr)
        except NonFiniteUpdate as exc:
            raise NonFiniteUpdate(str(exc), epoch=epoch, step=k + i) from None
    return classify, regress


def _check_stream(model, stream, epoch):
    """The stream with its context as the C loop takes it, C-contiguous
    int32.

    A ValueError naming ``epoch`` unless influencer, offsets and context
    hold integers, influencer and size_target hold one entry per cascade
    and offsets one more, and offsets run from 0, non-decreasing, to
    len(context); and one naming the first bad cascade or context unless
    every influencer is a row of O and every context a column of T. The C
    loop refuses an influencer or a context outside the model, but the
    numpy steps would index it from the end. The check reads the arrays as
    given, so a context past int32 is refused, not wrapped.
    """
    arrays = dict(influencer=np.asarray(stream.influencer), offsets=np.asarray(stream.offsets),
                  context=np.asarray(stream.context))
    for name, values in arrays.items():
        if not np.issubdtype(values.dtype, np.integer):
            raise ValueError(f"stream for epoch {epoch}: {name} holds {values.dtype} values, "
                             "not integers")
    influencer, offsets, context = arrays.values()
    lengths = len(influencer), len(stream.size_target), len(offsets)
    if lengths[1:] != (lengths[0], lengths[0] + 1):
        raise ValueError(f"stream for epoch {epoch}: influencer, size_target and offsets hold "
                         f"{lengths[0]}, {lengths[1]} and {lengths[2]} entries, not one per "
                         "cascade and one more offset")
    if offsets[0] != 0 or offsets[-1] != len(context) or (np.diff(offsets) < 0).any():
        raise ValueError(f"stream for epoch {epoch}: offsets do not run from 0, "
                         f"non-decreasing, to the {len(context)} contexts")
    for name, values, limit in (("influencer", influencer, model.n_influencers),
                                ("context", context, model.n_nodes)):
        bad = (values < 0) | (values >= limit)
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(f"stream for epoch {epoch}: {name} {k} ({values[k]}) is outside a "
                             f"model of {model.n_influencers} influencers and {model.n_nodes} "
                             "nodes")
    return replace(stream, context=np.ascontiguousarray(context, np.int32))


def train(model, stream_producer, config):
    """Alternating SGD over fresh streams, one per epoch.

    ``stream_producer(epoch)`` must return that epoch's TrainingStream
    (epoch counts from 0), whose pairs lie within the model: a stream
    that does not raises ValueError before its epoch takes a step. The
    model is updated in place; the report carries mean losses and step
    counts per head and wall time for each epoch.
    """
    report = TrainReport()
    lr = config.learning_rate
    workspace = StepWorkspace(model)
    lib = _classify_loop(model)
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        stream = stream_producer(epoch)
        if not stream:
            raise ValueError(f"stream for epoch {epoch} is empty")
        stream = _check_stream(model, stream, epoch)
        if epoch == 0:
            report.stream_draws = stream.draws
        with _sgd_numpy():
            classify_losses, regress_losses = _run_epoch(model, stream, lr, workspace, lib, epoch)
        report.classify_loss.append(
            float(np.mean(classify_losses)) if len(classify_losses) else 0.0
        )
        report.regress_loss.append(float(np.mean(regress_losses)))
        report.classify_steps.append(len(classify_losses))
        report.regress_steps.append(len(regress_losses))
        report.epoch_seconds.append(time.perf_counter() - t0)
    # the numpy step makes workspace.update on its first step: None means the loop took them all
    if lib is not None and workspace.update is None:
        report.classify_kernel, report.classify_isa = "c", lib.isa
    return model, report


def save_embeddings(model, path):
    """Write the INFV1 binary: magic, dims, O, T, b_t, b_c, then id tables.

    The id tables (influencers, then nodes) follow the fixed-layout prefix
    so downstream stages can name rows and columns without the original
    cascade file.
    """
    I, E = model.O.shape
    N = model.T.shape[1]
    sections = [np.asarray(a, dtype="<f8") for a in (model.O, model.T, model.b_t, model.b_c)]
    write_binary(path, MAGIC, (E, I, N), [*sections, model.influencer_ids, model.node_ids])


def load_embeddings(path):
    """Read an INFV1 file back into an InfectorModel (lossless round-trip).

    A file cut short anywhere, its id tables included, raises CorruptFile,
    as do a non-finite value in O, T, b_t or b_c, an id that a cascade log
    could not hold and an id that appears twice in its table: a trained
    model holds none of these.
    """
    with open(path, "rb") as fh:
        reader = BinaryReader(fh, MAGIC, 3, "an INFV1 embedding file")
        E, I, N = reader.dims
        if E < 1 or I < 1 or N < 1:
            raise CorruptFile(f"{path}: bad dimensions E={E} I={I} N={N}")
        O, T, b_t, b_c = (reader.array("<f8", *shape) for shape in ((I, E), (E, N), (N,), ()))
        for name, values in (("O", O), ("T", T), ("b_t", b_t), ("b_c", b_c)):
            if not np.isfinite([values.min(), values.max()]).all():  # NaN propagates
                raise CorruptFile(f"{path}: {name} holds a non-finite value")
        influencer_ids, node_ids = reader.ids(I), reader.ids(N)
    reader.end()
    if len(set(influencer_ids)) != I or len(set(node_ids)) != N:
        raise CorruptFile(f"{path}: an id appears more than once in its table")
    return InfectorModel(
        O=O,
        T=T,
        b_t=b_t,
        b_c=float(b_c),
        C=np.ones(E),
        influencer_ids=influencer_ids,
        node_ids=node_ids,
    )
