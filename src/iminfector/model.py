"""The INFECTOR network: a shared embedding layer feeding two output heads.

Source embeddings O (one row per influencer) and target embeddings T (one
column per node) are trained by plain SGD on an alternating stream: each
influencer-context pair takes a softmax/NLL step, each influencer-size pair
takes a sigmoid/squared-loss step through the untrainable all-ones vector C.
Everything is float64; gradient tolerances depend on it.

train() gives its classification steps one StepWorkspace: an N-vector for
the logits, softmax and gradient and two E-vectors, so a step allocates no
array data unless it rescans T or b_t (below). When the C kernel of
_native.py loads, the workspace updates T and b_t with it in one pass:
T[i,j] - ((O_u[i] * g[j]) * lr) and b_t[j] - lr * g[j], the same IEEE
operations in the same order as numpy's outer product, in-place scaling
and subtraction. Each element is one rounded product, a second rounded
product and one rounded difference, and neither numpy nor the kernel
(built with -ffp-contract=off, without -ffast-math) fuses or reorders
them, so T and b_t come out bitwise the same. That holds for each of the
kernel's vector clones (AVX-512F, AVX2, baseline x86-64, picked per CPU at
load time): a lane of a vector multiply or subtract rounds exactly as the
scalar operation does, nothing sets flush-to-zero or denormals-are-zero,
and -ffp-contract=off keeps the AVX-512F clone, whose instruction set
includes FMA, from fusing the multiply and subtract. The kernel also
returns max|O_u|, NaN if O_u holds one, as numpy's maximum.reduce does.
The workspace keeps the kernel only after a fixed self-check matches the
numpy update bit for bit, and only while the model holds the contiguous
float64 arrays it was checked against; otherwise it takes the numpy update
through an E x N buffer, made on its first use. The matrix-vector products
and the softmax stay in numpy, whose BLAS summation order and SIMD exp a C
loop cannot match bitwise.

A step proves the model finite instead of scanning it, and each proof is
exact:

- a finite loss -log(phi_y) proves the softmax gradient g finite. A NaN or
  +-inf logit makes the softmax denominator s NaN, and with it every
  phi_j. Otherwise every exp(z - max z) lies in [0, 1] and s >= 1, so
  every |g_j| <= 1;
- the workspace keeps upper bounds on max|T| and max|b_t|. With |g_j| <= 1
  a step moves T by at most lr * max|O_u| and b_t by at most lr, so the
  bounds grow by that much. T or b_t is scanned only when its bound
  reaches 1e300 (both start at inf, so the first step scans), and the
  bound is then reset to the exact maximum;
- O_u is finite iff its dot product with a vector of 2**-60 is. Scaling
  by a power of two keeps +-inf and NaN, and the scaled entries are below
  2**964, so the sum of E < 2**60 of them cannot overflow. Unlike a plain
  sum of O_u, it needs no fallback scan and cannot warn of an overflow
  the step did not make.

None of this changes the arithmetic: a step with a workspace, on either
update, is bitwise-identical to one without, and NonFiniteUpdate fires at
the same step. train() runs the steps with numpy's overflow, invalid and
divide warnings off, so that NonFiniteUpdate is the only report of a
non-finite step.

train() also runs each epoch's steps with numpy's ufunc buffer at its
minimum, SGD_BUFSIZE elements, and restores the caller's size on every
exit. The outer product O_u g^T broadcasts O_u and g with stride 0, and
while three or more rows of the E x N update fit in the default
8,192-element buffer (N up to about 2,730) the buffered iterator packs
rows and copies both operands, which makes the outer product about four
times slower per element. A minimal buffer leaves nothing to pack.
Buffering only moves elements between memory and the buffer, so every
value is bitwise the same.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _native
from .context import SIZE_PAIR
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
    classify_kernel: str = "numpy"  # "c" when the C kernel updated T and b_t
    classify_isa: str = None  # with the C kernel, its clone: "avx512f", "avx2" or "baseline"


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
    T = rng.uniform(-half, half, size=(E, N))
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
# exact maximum.
_BOUND_LIMIT = 1e300


def _numpy_update(T, O_u, g, b_t, lr, update, abs_O):
    """T -= (O_u g^T) * lr and b_t -= lr * g through the E x N buffer
    ``update``; returns max|O_u|, NaN if O_u holds a NaN."""
    max_abs = float(np.maximum.reduce(np.abs(O_u, out=abs_O)))
    np.multiply(O_u[:, None], g, out=update)
    update *= lr
    T -= update
    b_t -= np.multiply(lr, g, out=update[0])
    return max_abs


def _fits_kernel(model):
    """True if O, T and b_t are distinct, aligned, writable, C-contiguous
    float64 arrays of matching shapes, as the C kernel reads them."""
    O, T, b_t = model.O, model.T, model.b_t
    arrays = (O, T, b_t)
    return (
        all(
            isinstance(a, np.ndarray)
            and a.dtype == np.float64
            and a.flags.c_contiguous
            and a.flags.aligned
            and a.flags.writeable
            for a in arrays
        )
        and O.ndim == T.ndim == 2
        and O.shape[1] == T.shape[0]
        and b_t.shape == T.shape[1:]
        and not any(np.may_share_memory(a, b) for a, b in ((O, T), (O, b_t), (T, b_t)))
    )


# The (E, N) shapes of the self-check. In the second, N = 79 = 9 * 8 + 4 + 3,
# so each row of T and b_t runs every part of every clone's loop that
# gcc 12 builds: the 8-wide AVX-512 body, its 4-wide epilogue and a scalar
# tail; the 4-wide AVX2 body, its 2-wide epilogue and a scalar tail; and
# baseline x86-64's 2-wide body and scalar tail.
_SELF_CHECK_SHAPES = ((3, 13), (5, 79))


def _matches_numpy(kernel):
    """True if ``kernel`` updates fixed arrays bitwise as _numpy_update does
    and returns the same max|O_u|, NaN included."""
    rng = np.random.default_rng(2019)
    lr = 0.1
    for E, N in _SELF_CHECK_SHAPES:
        for O_u in (rng.normal(size=E), np.resize([0.5, np.nan, -2.0], E)):
            T, g, b_t = rng.normal(size=(E, N)), rng.normal(size=N), rng.normal(size=N)
            got_T, got_b_t = T.copy(), b_t.copy()
            want = _numpy_update(T, O_u, g, b_t, lr, np.empty_like(T), np.empty(E))
            got = kernel(
                got_T.ctypes.data, O_u.ctypes.data, g.ctypes.data, got_b_t.ctypes.data, lr, E, N
            )
            if not (
                np.array_equal(got_T, T, equal_nan=True)
                and np.array_equal(got_b_t, b_t)
                and (got == want or (math.isnan(got) and math.isnan(want)))
            ):
                return False
    return True


class StepWorkspace:
    """Buffers and the max|T|, max|b_t| bounds that consecutive classify steps share.

    Valid only while T and b_t change through step_classify calls given
    this workspace. Both bounds start at inf, which makes the first step
    scan T and b_t; a step that raises NonFiniteUpdate sets them back to inf.

    ``kernel`` is the C kernel from ``_native.step_kernel()``, or None. The
    workspace keeps it only if the model's arrays fit it and it passes a
    self-check against the numpy update; ``self.kernel`` is then the
    kernel, else None.
    """

    def __init__(self, model, kernel=None):
        E, N = model.T.shape
        self.phi = np.empty(N)
        self.grad = np.empty(E)
        self.scale = np.full(E, 2.0**-60)
        self.bound = math.inf
        self.bias_bound = math.inf
        # the numpy update's buffers, made when it first runs
        self.update = self.abs_O = None
        self.kernel = None
        if kernel is not None and _fits_kernel(model) and _matches_numpy(kernel):
            self.kernel = kernel
            # held, so that the arrays outlive every kernel call on their addresses
            self.O, self.T, self.b_t = model.O, model.T, model.b_t
            self.T_address, self.O_address = model.T.ctypes.data, model.O.ctypes.data
            self.g_address, self.b_t_address = self.phi.ctypes.data, model.b_t.ctypes.data
            self.row_bytes = model.O.strides[0]

    def update_t_and_b_t(self, model, u, lr):
        """T -= (O_u g^T) * lr and b_t -= lr * g for the gradient g in
        ``self.phi``; returns max|O_u|, NaN if O_u holds a NaN.

        The C kernel runs when the model still holds the arrays it was
        checked against and u is a row of O; otherwise the numpy update.
        """
        O, T, b_t = model.O, model.T, model.b_t
        if (
            self.kernel is not None
            and O is self.O
            and T is self.T
            and b_t is self.b_t
            and 0 <= u < len(O)
        ):
            E, N = T.shape
            O_u_address = self.O_address + u * self.row_bytes
            return self.kernel(
                self.T_address, O_u_address, self.g_address, self.b_t_address, lr, E, N
            )
        if self.update is None:
            self.update, self.abs_O = np.empty_like(T), np.empty(T.shape[0])
        return _numpy_update(T, O[u], self.phi, b_t, lr, self.update, self.abs_O)


def step_classify(model, u, y, lr, workspace=None):
    """One SGD step on pair (influencer u, context node y); returns the pre-update loss.

    The softmax/NLL gradient w.r.t. the logits collapses to phi - y, so the
    parameter gradients are T(phi - y) for O_u, the outer product
    O_u (phi - y)^T for T, and phi - y for b_t. Both matrix gradients use the
    pre-update O_u / T values (a single simultaneous step).

    Without a workspace the step allocates its own, takes the numpy update
    and scans all of T and b_t for non-finite values. With one shared
    across steps (as train() does), each is scanned only when the
    workspace's bound on its maximum magnitude reaches 1e300; the module
    docstring gives the proofs.
    """
    ws = StepWorkspace(model) if workspace is None else workspace
    T = model.T
    O_u = model.O[u]
    g = forward_classify(model, u, out=ws.phi)
    loss = -np.log(g[y])
    g[y] -= 1.0
    grad = np.matmul(T, g, out=ws.grad)
    # once the loss is finite every |g_j| <= 1: an entry of T moves by at
    # most lr * max|O_u|, one of b_t by at most lr
    ws.bound += lr * ws.update_t_and_b_t(model, u, lr)
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
        raise NonFiniteUpdate("classification step produced a non-finite value")
    return float(loss)


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


def train(model, stream_producer, config):
    """Alternating SGD over fresh streams, one per epoch.

    ``stream_producer(epoch)`` must return that epoch's TrainingStream
    (epoch counts from 0). The model is updated in place; the report
    carries mean losses and step counts per head and wall time for each
    epoch.
    """
    report = TrainReport()
    lr = config.learning_rate
    workspace = StepWorkspace(model, _native.step_kernel())
    if workspace.kernel is not None:
        report.classify_kernel = "c"
        report.classify_isa = workspace.kernel.isa
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        stream = stream_producer(epoch)
        if not stream:
            raise ValueError(f"stream for epoch {epoch} is empty")
        classify_losses = []
        regress_losses = []
        pairs = zip(
            stream.influencer.tolist(), stream.context.tolist(), stream.size_target.tolist()
        )
        # try/finally, not np.errstate: numpy 1.x errstate does not scope bufsize
        old_bufsize = np.setbufsize(SGD_BUFSIZE)
        try:
            # a step that overflows, or whose loss is -log(0), raises
            # NonFiniteUpdate, not a warning
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                for step, (u, v, y_c) in enumerate(pairs):
                    try:
                        if v == SIZE_PAIR:
                            regress_losses.append(step_regress(model, u, y_c, lr))
                        else:
                            classify_losses.append(step_classify(model, u, v, lr, workspace))
                    except NonFiniteUpdate as exc:
                        raise NonFiniteUpdate(str(exc), epoch=epoch, step=step) from None
        finally:
            np.setbufsize(old_bufsize)
        report.classify_loss.append(
            float(np.mean(classify_losses)) if classify_losses else 0.0
        )
        report.regress_loss.append(
            float(np.mean(regress_losses)) if regress_losses else 0.0
        )
        report.classify_steps.append(len(classify_losses))
        report.regress_steps.append(len(regress_losses))
        report.epoch_seconds.append(time.perf_counter() - t0)
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
    reader = BinaryReader(path, MAGIC, 3, "an INFV1 embedding file")
    E, I, N = reader.dims
    if E < 1 or I < 1 or N < 1:
        raise CorruptFile(f"{path}: bad dimensions E={E} I={I} N={N}")
    O, T, b_t, b_c = (reader.array("<f8", *shape) for shape in ((I, E), (E, N), (N,), ()))
    for name, values in (("O", O), ("T", T), ("b_t", b_t), ("b_c", b_c)):
        if not np.isfinite(values).all():
            raise CorruptFile(f"{path}: {name} holds a non-finite value")
    influencer_ids, node_ids = reader.ids(I), reader.ids(N)
    reader.close()
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
