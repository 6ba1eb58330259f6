"""Learnable fusion-weight network, trained from scratch.

A three-layer feed-forward net (20 -> 512 -> 16 -> 1, ReLU inside,
sigmoid on top) maps the top-10 probabilities of both sources to a single
blend weight in (0, 1). Training is plain SGD with early stopping on
validation loss; the loss is the negative log-likelihood of the fused
distribution at the gold token, with gradient flowing only through the
weight — both source distributions are treated as constants.

A training example is built from what one fused step consumes, its two
sparse top-k views, at one position of ``decoder.teacher_forced_steps``;
the loss is an entry of the step's own blend.

One forward, ``_forward_pass``, serves a fused step's weight, scoring,
``comb_loss``, ``comb_grad`` and ``comb_train``'s mini-batches: three
matmuls over the container's layout, which is the parameters' too, each
weight followed by its bias row and each row ending in a 1. Training's
bits differ from a per-example loop's only by summation order
(``tests/test_train_in_place.py``: within 1e-12); its buffers are built
once per run, and an epoch's losses are one numpy pass per aligned
length, with a one-example blend's bits.

Parameters round-trip through a little binary container (magic "CGCM")
documented field by field in ``comb_save``.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .core import DENSE_SUM_TOL, TokenDistribution, _pairwise_sum, top_k_project
from .decoder import teacher_forced_steps
from .errors import InvalidConfigError, InvalidInputError, ModelIOError
from .fusion import TOP_K, _align, blend, top_k_views
from .rng import Splitmix64

IN_DIM = 2 * TOP_K  # both sources' top-k probabilities
HIDDEN1 = 512
HIDDEN2 = 16
OUT_DIM = 1
# Every parameter tensor, in container and draw order: field name and shape.
_LAYOUT = (
    ("w1", (IN_DIM, HIDDEN1)),
    ("b1", (HIDDEN1,)),
    ("w2", (HIDDEN1, HIDDEN2)),
    ("b2", (HIDDEN2,)),
    ("w3", (HIDDEN2, OUT_DIM)),
    ("b3", (OUT_DIM,)),
)

_MAGIC = b"CGCM"
_VERSION = 1
_DIMS = (IN_DIM, HIDDEN1, HIDDEN2, OUT_DIM)
# The container header after the magic: version, dim count, dims, init seed.
_HEADER = struct.Struct("<HHIIIIQ")
_BODY_OFFSET = len(_MAGIC) + _HEADER.size
_PROB_FLOOR = 1e-12
_SIZE = sum(math.prod(shape) for _, shape in _LAYOUT)  # float64 entries in the container


@dataclass(frozen=True)
class CombModelParams:
    """The weight net's tensors, each shaped as ``_LAYOUT`` says, copied at
    construction into one read-only vector in the container's layout, whose
    views they become; ``_layers`` holds its ``_blocks``, which the forward runs."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    seed: int = 0

    def __post_init__(self) -> None:
        for name, want in _LAYOUT:
            arr = getattr(self, name)
            if arr.shape != want:
                raise InvalidInputError(f"{name} has shape {arr.shape}, expected {want}")
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"{name} contains non-finite entries")
        flat = np.concatenate(self.arrays(), axis=None, dtype=np.float64)
        flat.flags.writeable = False
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "_layers", _blocks(flat))
        for (name, _), view in zip(_LAYOUT, _views(self._layers)):
            object.__setattr__(self, name, view)

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3)

    def weight(self, pl_k: TokenDistribution, ps_k: TokenDistribution) -> float:
        """Blend weight from both sources' sparse top-k views: ``comb_forward``
        on the padded views, without the checks each view passed when built:
        the weight a learnable ``FusionStrategy`` blends with."""
        return _forward_pass(self._layers, _view_row(pl_k, ps_k))[0]


@dataclass(frozen=True)
class CombTrainConfig:
    learning_rate: float = 2e-3
    batch_size: int = 2
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 < self.learning_rate < math.inf):
            raise InvalidConfigError("learning_rate must be finite and > 0")
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise InvalidConfigError(f"{name} must be >= 1")


def _check_top10(name: str, vec) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.float64)
    if arr.shape != (TOP_K,):
        raise InvalidInputError(f"{name} must hold exactly {TOP_K} probabilities")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    if arr.min() < 0 or arr.max() > 1 + 1e-12:
        raise InvalidInputError(f"{name} entries must lie in [0, 1]")
    if (np.diff(arr) > 1e-12).any():
        raise InvalidInputError(f"{name} must be sorted in descending order")
    return arr


def _padded(probs: tuple[float, ...]) -> tuple[float, ...]:
    """A view's first ``TOP_K`` probabilities, zero-padded to that length."""
    return probs[:TOP_K] + (0.0,) * (TOP_K - len(probs))


def padded_top_probs(dist: TokenDistribution) -> tuple[float, ...]:
    """Descending top-``TOP_K`` probabilities padded with zeros to that length."""
    return _padded(top_k_project(dist, TOP_K).sparse_probs)


def comb_init(seed: int) -> CombModelParams:
    """Fan-balanced uniform init, U(-sqrt(6/(fan_in+fan_out)), +same);
    biases start at zero. Fully determined by the seed."""
    rng = Splitmix64(seed)
    views = _views(_blocks(np.zeros(_SIZE)))
    for weights in views[::2]:
        limit = math.sqrt(6.0 / sum(weights.shape))
        weights[:] = rng.uniforms(-limit, limit, weights.size).reshape(weights.shape)
    return CombModelParams(*views, seed=seed)


def _sigmoid(z: float) -> float:
    if z >= 0:
        out = 1.0 / (1.0 + math.exp(-z))
    else:
        e = math.exp(z)
        out = e / (1.0 + e)
    # float64 saturates to exactly 1.0 above z ~ 36.7; keep the open interval
    if out >= 1.0:
        out = math.nextafter(1.0, 0.0)
    elif out <= 0.0:
        out = math.nextafter(0.0, 1.0)
    return out


def _blocks(flat: np.ndarray) -> list[np.ndarray]:
    """``flat`` cut into the layers' ``[w; b]`` blocks, bias last."""
    blocks, start = [], 0
    for fan_in, fan_out in zip(_DIMS, _DIMS[1:]):
        blocks.append(flat[start : start + (fan_in + 1) * fan_out].reshape(fan_in + 1, fan_out))
        start += (fan_in + 1) * fan_out
    return blocks


def _views(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """``blocks`` cut into one view per tensor, as ``_LAYOUT`` says."""
    return [part for block in blocks for part in (block[:-1], block[-1])]


def _buffers(*rows: int) -> tuple[np.ndarray, ...]:
    """``_forward_pass``'s buffers for inputs shaped ``(*rows, IN_DIM + 1)``:
    each hidden layer's, ending in a 1 to add a bias, and it without the 1."""
    h1, h2 = np.empty((*rows, HIDDEN1 + 1)), np.empty((*rows, HIDDEN2 + 1))
    h1[..., -1] = h2[..., -1] = 1.0
    return h1, h1[..., :-1], h2, h2[..., :-1]


def _forward_pass(blocks, x: np.ndarray, buffers=None) -> list[float]:
    """The net's one forward: a weight per row of ``x``, each ending in a 1
    (one row may be 1-D, which numpy multiplies as a ``(1, IN_DIM + 1)``
    matrix, at less cost). Each matmul and ReLU fill the next ``_buffers``
    (made here when not given, so no caller shares scratch), whose 1 adds
    the bias; the ReLU over the whole buffer keeps that 1 and is faster
    than over the strided view of the matmul's columns."""
    l1, l2, l3 = blocks
    h1, z1, h2, z2 = _buffers(*x.shape[:-1]) if buffers is None else buffers
    np.matmul(x, l1, out=z1)
    np.maximum(h1, 0.0, out=h1)
    np.matmul(h1, l2, out=z2)
    np.maximum(h2, 0.0, out=h2)
    return [_sigmoid(z) for z in np.matmul(h2, l3).ravel().tolist()]


def comb_forward(params: CombModelParams, top10_l, top10_s) -> float:
    """Blend weight in (0, 1) from both sources' descending top-10 probs."""
    x = np.concatenate([_check_top10("top10_l", top10_l), _check_top10("top10_s", top10_s), [1.0]])
    return _forward_pass(params._layers, x)[0]


def _view_row(pl_k: TokenDistribution, ps_k: TokenDistribution) -> np.ndarray:
    """The net's input row from two sparse views, each ``_padded``, the
    large model's first, and its trailing 1. ``fromiter`` reads the tuple
    faster than ``np.array`` or slice assignments into a zeroed row do."""
    return np.fromiter(_padded(pl_k.sparse_probs) + _padded(ps_k.sparse_probs) + (1.0,), float, IN_DIM + 1)


class CombExample:
    """One supervised fused step, built from both sparse top-k views and
    the gold token. Training reads what is derived here, once: the net's
    input ``x`` (``_view_row`` without its 1), the views aligned as
    ``fusion.fuse_views`` aligns them (``a`` small, ``b`` large) with the
    gold token's slot ``y``, and each aligned list's mass (``np.sum``'s
    bits)."""

    __slots__ = ("target_id", "x", "a", "b", "y", "mass_a", "mass_b")

    def __init__(self, ps_k: TokenDistribution, pl_k: TokenDistribution, target_id: int) -> None:
        ids, self.a, self.b = _align(ps_k, pl_k)
        y = bisect_left(ids, target_id)
        if y == len(ids) or ids[y] != target_id:
            raise InvalidInputError("target_id is outside both views")
        self.target_id, self.y = target_id, y
        self.x = _view_row(pl_k, ps_k)[:IN_DIM]
        self.mass_a, self.mass_b = _pairwise_sum(self.a), _pairwise_sum(self.b)

    @property
    def top10_l(self) -> tuple[float, ...]:  # padded_top_probs(pl_k)
        return tuple(self.x[:TOP_K].tolist())

    @property
    def top10_s(self) -> tuple[float, ...]:  # padded_top_probs(ps_k)
        return tuple(self.x[TOP_K:].tolist())


def _loss_groups(examples: list[CombExample]) -> list[tuple]:
    """The examples by aligned length, one group per length: their indices,
    their ``a`` and ``b`` lists stacked, and each gold slot's index into
    the flattened stack."""
    by_length: dict[int, list[int]] = {}
    for i, ex in enumerate(examples):
        by_length.setdefault(len(ex.a), []).append(i)
    return [
        (np.array(idx), np.array([examples[i].a for i in idx]), np.array([examples[i].b for i in idx]),
         [k * length + examples[i].y for k, i in enumerate(idx)])
        for length, idx in by_length.items()
    ]


def _losses(groups, ws: np.ndarray, floored: set[int]) -> list[float]:
    """Each grouped example's loss at its weight ``ws[i]``, by index: the
    negative log of ``fusion.blend``'s entry at the gold slot, floored at
    1e-12, in one numpy pass per group. Elementwise products and a row
    ``sum`` give ``blend``'s bits, since a row sums in the pairwise
    order ``core._pairwise_sum`` copies; the log is ``math.log``, as
    numpy's SIMD log may differ. Adds each floored index to ``floored``."""
    losses = [0.0] * len(ws)
    for idx, a, b, gold in groups:
        w = ws[idx, None]
        vec = w * a + (1.0 - w) * b
        total = vec.sum(axis=1)
        if (total <= 0).any():
            raise InvalidInputError("fused distribution has no mass")
        total[abs(total - 1.0) <= DENSE_SUM_TOL] = 1.0
        p = vec.take(gold) / total
        low = p < _PROB_FLOOR
        p[low] = _PROB_FLOOR
        floored.update(idx[low].tolist())
        for i, q in zip(idx.tolist(), p.tolist()):
            losses[i] = -math.log(q)
    return losses


def comb_loss(params: CombModelParams, example: CombExample) -> float:
    """Negative log-likelihood of the fused distribution at the gold token,
    ``fusion.blend``'s entry at its slot: the bits of ``comb_train``'s
    grouped epoch loss.

    A fused probability of zero is floored at 1e-12 rather than crashing
    the run (``comb_train`` counts such examples).
    """
    w = _forward_pass(params._layers, np.append(example.x, 1.0))[0]
    return -math.log(max(blend(example.a, example.b, w)[example.y], _PROB_FLOOR))


@dataclass(frozen=True)
class CombGradients:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3)


def _logit_grad(example: CombExample, w: float) -> float:
    """The example's loss derivative with respect to the net's output
    logit: dL/dw through the sigmoid."""
    a_y, b_y = example.a[example.y], example.b[example.y]
    mass_a, mass_b = example.mass_a, example.mass_b
    u = w * a_y + (1.0 - w) * b_y
    s = w * mass_a + (1.0 - w) * mass_b
    if u <= 0.0 or u / s < _PROB_FLOOR:
        return 0.0  # clamped region of the loss is flat
    return (-(a_y - b_y) / u + (mass_a - mass_b) / s) * w * (1.0 - w)


def _batch_pass(blocks, grads, n: int, scale: float):
    """``_buffers(n)`` and a ``backward(x.T, examples, ws)`` that reads them
    once ``_forward_pass`` has filled them, over scratch built here once.
    ``backward`` writes ``scale`` times the summed gradient into ``grads``'
    blocks, one matmul each; ``np.sign`` of a ReLU output masks as its
    input would. Each product keeps its layouts: a contiguous
    ``l2[:-1].T`` is faster but moves bits."""
    _, l2, l3 = blocks
    d1, d2, d3 = grads
    buffers = h1, z1, h2, z2 = _buffers(n)
    h1_t, h2_t = h1.T, h2.T
    w3, l2_t = l3[:-1, 0], l2[:-1].T
    dz1, dz2, g = np.empty((n, HIDDEN1)), np.empty((n, HIDDEN2)), np.empty(n)
    m1, m2, g_col = np.empty_like(dz1), np.empty_like(dz2), g[:, None]
    matmul = np.matmul if n > 1 else _one_row_matmul

    def backward(x_t, examples, ws) -> None:
        g[:] = [_logit_grad(ex, w) * scale for ex, w in zip(examples, ws)]
        matmul(h2_t, g_col, out=d3)
        np.multiply(g_col, w3, out=dz2)
        np.multiply(dz2, np.sign(z2, out=m2), out=dz2)
        matmul(h1_t, dz2, out=d2)
        np.matmul(dz2, l2_t, out=dz1)
        np.multiply(dz1, np.sign(z1, out=m1), out=dz1)
        matmul(x_t, dz1, out=d1)

    return buffers, backward


def _one_row_matmul(a, b, out) -> None:
    """``np.matmul(a, b, out=out)`` over an inner dimension of 1, bit for
    bit: matmul sends that shape to its slow non-BLAS loop, and ``np.dot``
    to BLAS. Each entry is one product under any kernel; adding 0.0 turns
    -0.0 into 0.0, as matmul's sum from zero does."""
    np.dot(a, b, out=out)
    out += 0.0


def comb_grad(params: CombModelParams, example: CombExample) -> CombGradients:
    """Analytic gradient of ``comb_loss`` in the parameter shapes.

    The chain starts at the loss derivative with respect to the blend
    weight. With a = p_s, b = p_l over the aligned support, y the target
    slot, u = w*a_y + (1-w)*b_y the fused target mass and S the fused
    total mass, dL/dw = -(a_y - b_y)/u + (A - B)/S; the second term is the
    renormalization correction and vanishes on dense inputs where both
    masses are 1. ReLU uses subgradient 0 at 0. This is ``comb_train``'s
    batched pass on a batch of one.
    """
    grads = _blocks(np.empty_like(params._flat))
    buffers, backward = _batch_pass(params._layers, grads, 1, 1.0)
    x = np.append(example.x, 1.0)[None]
    backward(x.T, [example], _forward_pass(params._layers, x, buffers))
    return CombGradients(*_views(grads))


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = math.inf
    stopped_early: bool = False
    degenerate_examples: int = 0


def comb_train(
    train: list[CombExample],
    val: list[CombExample],
    config: CombTrainConfig = CombTrainConfig(),
) -> tuple[CombModelParams, TrainReport]:
    """Plain SGD over seeded-shuffle mini-batches with early stopping.

    After each epoch the mean validation loss is evaluated; the best
    parameters seen are kept and training stops once ``patience`` epochs
    pass without improvement (or at ``max_epochs``). Raises
    ``InvalidConfigError`` when no epoch gives a finite validation loss,
    which a learning rate that diverges causes.

    Each batch size gets one ``_batch_pass``, and validation its own
    ``_buffers`` with no backward scratch. Each epoch gathers its
    shuffled input rows into the buffer the batches slice. A batch writes
    ``learning_rate / len(batch)`` times its gradient, and one subtraction
    applies it. The epoch's losses take the weights its batches computed,
    summed in batch order. ``degenerate_examples`` counts the train
    examples whose loss was floored in any epoch.
    """
    if not train or not val:
        raise InvalidInputError("train and val splits must both be non-empty")
    theta = comb_init(config.seed)._flat.copy()
    grad = np.empty_like(theta)
    blocks, grads = _blocks(theta), _blocks(grad)
    x_all = np.ones((len(train) + len(val), IN_DIM + 1))
    x_all[:, :-1] = [ex.x for ex in train + val]
    x_train, x_val, x_epoch = x_all[: len(train)], x_all[len(train) :], np.empty((len(train), IN_DIM + 1))
    starts = range(0, len(train), config.batch_size)
    xs = [x_epoch[start : start + config.batch_size] for start in starts]
    passes = {n: _batch_pass(blocks, grads, n, config.learning_rate / n) for n in set(map(len, xs))}
    batches = [(start, start + len(x), x, x.T, *passes[len(x)]) for start, x in zip(starts, xs)]
    val_buffers = _buffers(len(val))
    train_groups, val_groups = _loss_groups(train), _loss_groups(val)
    w_train = np.empty(len(train))
    rng = Splitmix64(config.seed)
    floored: set[int] = set()
    report = TrainReport()
    best = theta.copy()
    bad_epochs = 0
    for epoch in range(1, config.max_epochs + 1):
        order = list(range(len(train)))
        rng.shuffle(order)
        # "raise", the default mode, would gather into a buffer and copy it over
        np.take(x_train, order, axis=0, out=x_epoch, mode="clip")
        shuffled = [train[i] for i in order]
        ws = []
        for start, stop, x, x_t, buffers, backward in batches:
            # One forward pass feeds both the epoch's losses and the gradient.
            batch_ws = _forward_pass(blocks, x, buffers)
            backward(x_t, shuffled[start:stop], batch_ws)
            theta -= grad
            ws += batch_ws
        w_train[order] = ws
        losses = _losses(train_groups, w_train, floored)
        train_loss = sum([losses[i] for i in order]) / len(order)
        val_loss = sum(_losses(val_groups, np.array(_forward_pass(blocks, x_val, val_buffers)), set())) / len(val)
        report.epochs.append(EpochStats(epoch=epoch, train_loss=train_loss, val_loss=val_loss))
        if val_loss < report.best_val_loss:
            report.best_val_loss = val_loss
            report.best_epoch = epoch
            best = theta.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                report.stopped_early = True
                break
    if report.best_epoch == 0:
        raise InvalidConfigError(
            "training diverged: no epoch gave a finite validation loss "
            f"(learning_rate {config.learning_rate!r})"
        )
    report.degenerate_examples = len(floored)
    return CombModelParams(*_views(_blocks(best)), seed=config.seed), report


def comb_save(params: CombModelParams, path) -> None:
    """Write the container: magic "CGCM", version u16, dim count u16,
    the four layer dims as u32, the init seed as u64 (all little-endian),
    then every tensor as little-endian float64 in row-major order."""
    header = _MAGIC + _HEADER.pack(_VERSION, len(_DIMS), *_DIMS, params.seed)
    with open(path, "wb") as fh:
        fh.write(header + params._flat.astype("<f8").tobytes())


def comb_load(path) -> CombModelParams:
    """Read a ``comb_save`` container; any failure, the file's, is a ``ModelIOError`` naming ``path``."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < _BODY_OFFSET or blob[: len(_MAGIC)] != _MAGIC:
            raise ModelIOError("not a weight-model container (bad magic)")
        version, ndims, *dims, seed = _HEADER.unpack_from(blob, len(_MAGIC))
        if version != _VERSION:
            raise ModelIOError(f"unsupported container version {version}")
        if (ndims, *dims) != (len(_DIMS), *_DIMS):
            raise ModelIOError(f"shape mismatch: container declares {tuple(dims)}, expected {_DIMS}")
        if len(blob) != _BODY_OFFSET + 8 * _SIZE:
            raise ModelIOError("container truncated or padded")
        flat = np.frombuffer(blob, dtype="<f8", offset=_BODY_OFFSET)
        return CombModelParams(*_views(_blocks(flat)), seed=seed)  # checks every entry is finite
    except (OSError, ModelIOError, InvalidInputError) as exc:
        raise ModelIOError(f"weight-model container {path}: {exc}") from exc


@dataclass
class HarvestStats:
    examples: int = 0
    skipped_missing_target: int = 0


def harvest_examples(slm, llm, records, tokenizer) -> tuple[list[CombExample], HarvestStats]:
    """Training examples from the records' references: each position of
    the decoder's teacher-forced walk, both sides read, becomes one
    ``CombExample`` of the top-k views a fused step reads. Steps whose
    gold token fell out of both views are skipped and counted."""
    examples: list[CombExample] = []
    stats = HarvestStats()
    for record in records:
        for target, p_s, p_l in teacher_forced_steps(slm, llm, record, tokenizer):
            ps_k, pl_k = top_k_views(p_s, p_l)
            try:
                examples.append(CombExample(ps_k, pl_k, int(target)))
            except InvalidInputError:  # the gold token is in neither view
                stats.skipped_missing_target += 1
    stats.examples = len(examples)
    return examples, stats
