"""Learnable fusion-weight network, trained from scratch.

A three-layer feed-forward net (20 -> 512 -> 16 -> 1, ReLU inside,
sigmoid on top) maps the top-10 probabilities of both sources to a single
blend weight in (0, 1). Training is plain SGD with early stopping on
validation loss; the loss is the negative log-likelihood of the fused
distribution at the gold token, with gradient flowing only through the
weight — both source distributions are treated as constants.

A training example is built from what one fused step consumes, its two
sparse top-k views, and the loss is an entry of the step's own blend.

``comb_train`` allocates its parameter and gradient buffers once per
call and updates them in place. It performs the same floating-point
operations in the same order as summing into fresh zeroed arrays and
applying ``w -= lr * (g / n)``, so the trained parameters are the same
bits; ``comb_train``'s docstring gives the one difference, which moves
no weight.

Parameters round-trip through a little binary container (magic "CGCM")
documented field by field in ``comb_save``.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .backends import open_cursor
from .core import TokenDistribution, top_k_project
from .errors import InvalidConfigError, InvalidInputError, ModelIOError
from .fusion import _align, _pairwise_sum, blend, top_k_views
from .rng import Splitmix64

# Size of each source's truncated view: the fused step's cut and the net's input.
TOP_K = 10
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


@dataclass(frozen=True)
class CombModelParams:
    """The weight net's tensors, each shaped as ``_LAYOUT`` says."""

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
            arr.flags.writeable = False

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3)


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


def padded_top_probs(dist: TokenDistribution) -> tuple[float, ...]:
    """Descending top-``TOP_K`` probabilities padded with zeros to that length."""
    if not dist.is_sparse:
        dist = top_k_project(dist, TOP_K)
    probs = [float(p) for p in dist.sparse_probs[:TOP_K]]
    probs.extend(0.0 for _ in range(TOP_K - len(probs)))
    return tuple(probs)


def comb_init(seed: int) -> CombModelParams:
    """Fan-balanced uniform init, U(-sqrt(6/(fan_in+fan_out)), +same);
    biases start at zero. Fully determined by the seed."""
    rng = Splitmix64(seed)
    arrays = {}
    for name, shape in _LAYOUT:
        if len(shape) == 1:
            arrays[name] = np.zeros(shape)
            continue
        fan_in, fan_out = shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        arrays[name] = rng.uniforms(-limit, limit, fan_in * fan_out).reshape(shape)
    return CombModelParams(**arrays, seed=seed)


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


def _forward(arrs, x: np.ndarray):
    w1, b1, w2, b2, w3, b3 = arrs
    z1 = x @ w1 + b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ w2 + b2
    h2 = np.maximum(z2, 0.0)
    z3 = float(h2 @ w3[:, 0]) + float(b3[0])
    return _sigmoid(z3), (x, z1, h1, z2, h2)


def comb_forward(params: CombModelParams, top10_l, top10_s) -> float:
    """Blend weight in (0, 1) from both sources' descending top-10 probs."""
    x = np.concatenate([_check_top10("top10_l", top10_l), _check_top10("top10_s", top10_s)])
    w, _ = _forward(params.arrays(), x)
    return w


def _view_input(pl_k: TokenDistribution, ps_k: TokenDistribution) -> np.ndarray:
    """The net's input from two sparse views: each view's first ``TOP_K``
    probabilities, zero-padded to that length, the large model's first."""
    x = np.zeros(IN_DIM)
    top_l, top_s = pl_k.sparse_probs[:TOP_K], ps_k.sparse_probs[:TOP_K]
    x[: top_l.size] = top_l
    x[TOP_K : TOP_K + top_s.size] = top_s
    return x


def view_weight(params: CombModelParams, pl_k: TokenDistribution, ps_k: TokenDistribution) -> float:
    """Blend weight from both sources' sparse top-k views.

    The same bits as ``comb_forward(params, padded_top_probs(pl_k),
    padded_top_probs(ps_k))``, without its checks: a sparse distribution
    was checked when it was built, and its entries are already
    descending.
    """
    w, _ = _forward(params.arrays(), _view_input(pl_k, ps_k))
    return w


class CombExample:
    """One supervised fused step, built from both sparse top-k views and
    the gold token. Training reads what is derived here, once: the net's
    input ``x``, the views aligned as ``fusion.fuse_views`` aligns them
    (``a`` small, ``b`` large) with the gold token's slot ``y``, and each
    aligned list's mass (``np.sum``'s bits)."""

    __slots__ = ("target_id", "x", "a", "b", "y", "mass_a", "mass_b")

    def __init__(self, ps_k: TokenDistribution, pl_k: TokenDistribution, target_id: int) -> None:
        ids, self.a, self.b = _align(ps_k, pl_k)
        y = bisect_left(ids, target_id)
        if y == len(ids) or ids[y] != target_id:
            raise InvalidInputError("target_id is outside both views")
        self.target_id, self.y = target_id, y
        self.x = _view_input(pl_k, ps_k)
        self.mass_a, self.mass_b = _pairwise_sum(self.a), _pairwise_sum(self.b)

    @property
    def top10_l(self) -> tuple[float, ...]:  # padded_top_probs(pl_k)
        return tuple(self.x[:TOP_K].tolist())

    @property
    def top10_s(self) -> tuple[float, ...]:  # padded_top_probs(ps_k)
        return tuple(self.x[TOP_K:].tolist())


@dataclass
class LossStats:
    degenerate: int = 0


def _loss_at(example: CombExample, w: float, stats: "LossStats | None") -> float:
    # The gold token's entry of the very blend a fused step samples from.
    p = blend(example.a, example.b, w)[example.y]
    if p < _PROB_FLOOR:
        p = _PROB_FLOOR
        if stats is not None:
            stats.degenerate += 1
    return -math.log(p)


def comb_loss(params: CombModelParams, example: CombExample, stats: LossStats | None = None) -> float:
    """Negative log-likelihood of the fused distribution at the gold token.

    A fused probability of zero is floored at 1e-12 (and counted) rather
    than crashing the run.
    """
    w, _ = _forward(params.arrays(), example.x)
    return _loss_at(example, w, stats)


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


def _views(flat: np.ndarray) -> list[np.ndarray]:
    """``flat`` cut into one view per parameter tensor, shaped and
    ordered as ``_LAYOUT`` says."""
    views, start = [], 0
    for _, shape in _LAYOUT:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


def _backward(arrs, example: CombExample, w: float, cache, out) -> None:
    """Write the example's gradient into ``out``, arrays shaped as the
    parameters."""
    w1, b1, w2, b2, w3, b3 = arrs
    x, z1, h1, z2, h2 = cache
    a_y, b_y = example.a[example.y], example.b[example.y]
    mass_a, mass_b = example.mass_a, example.mass_b
    u = w * a_y + (1.0 - w) * b_y
    s = w * mass_a + (1.0 - w) * mass_b
    if u <= 0.0 or u / s < _PROB_FLOOR:
        dl_dw = 0.0  # clamped region of the loss is flat
    else:
        dl_dw = -(a_y - b_y) / u + (mass_a - mass_b) / s

    g = dl_dw * w * (1.0 - w)  # through the sigmoid
    dw1, db1, dw2, db2, dw3, db3 = out
    dz2 = np.multiply(w3[:, 0] * g, z2 > 0, out=db2)
    dz1 = np.multiply(w2 @ dz2, z1 > 0, out=db1)
    np.multiply(x[:, None], dz1, out=dw1)
    np.multiply(h1[:, None], dz2, out=dw2)
    np.multiply(h2[:, None], g, out=dw3)
    db3[0] = g


def comb_grad(params: CombModelParams, example: CombExample) -> CombGradients:
    """Analytic gradient of ``comb_loss`` in the parameter shapes.

    The chain starts at the loss derivative with respect to the blend
    weight. With a = p_s, b = p_l over the aligned support, y the target
    slot, u = w*a_y + (1-w)*b_y the fused target mass and S the fused
    total mass, dL/dw = -(a_y - b_y)/u + (A - B)/S; the second term is the
    renormalization correction and vanishes on dense inputs where both
    masses are 1. ReLU uses subgradient 0 at 0.
    """
    arrs = params.arrays()
    w, cache = _forward(arrs, example.x)
    out = tuple(np.empty(shape) for _, shape in _LAYOUT)
    _backward(arrs, example, w, cache, out)
    return CombGradients(*out)


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


def _mean_loss(arrs, examples) -> float:
    return sum(_loss_at(ex, _forward(arrs, ex.x)[0], None) for ex in examples) / len(examples)


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

    The parameters, a batch's gradient sum and one scratch gradient each
    live in a flat buffer allocated once per call and viewed in the
    parameter shapes. A batch's first example writes its gradient into
    the sum; each later one writes its own into the scratch, which is
    added in. The sum is then divided by the batch size, scaled by the
    learning rate and subtracted from the parameters, all in place.
    Every floating-point operation is the one, in the order, that
    ``w -= lr * (g / n)`` over a sum started from zeros performs, so the
    trained bits are the same. The one difference is the sign of an
    exactly-zero gradient entry, which moves no weight: subtracting
    either zero leaves a nonzero weight as it is, and leaves a zero
    weight +0.0.
    """
    if not train or not val:
        raise InvalidInputError("train and val splits must both be non-empty")
    theta = np.concatenate([a.ravel() for a in comb_init(config.seed).arrays()])
    grad, scratch = np.empty_like(theta), np.empty_like(theta)
    current, grads, scratches = _views(theta), _views(grad), _views(scratch)
    rng = Splitmix64(config.seed)
    stats = LossStats()
    report = TrainReport()
    best = theta.copy()
    bad_epochs = 0
    for epoch in range(1, config.max_epochs + 1):
        order = list(range(len(train)))
        rng.shuffle(order)
        batch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = [train[i] for i in order[start : start + config.batch_size]]
            for j, ex in enumerate(batch):
                # One forward pass feeds both the reported loss and the gradient.
                w, cache = _forward(current, ex.x)
                batch_losses.append(_loss_at(ex, w, stats))
                if j == 0:
                    _backward(current, ex, w, cache, grads)
                else:
                    _backward(current, ex, w, cache, scratches)
                    grad += scratch
            grad /= len(batch)
            grad *= config.learning_rate
            theta -= grad
        val_loss = _mean_loss(current, val)
        report.epochs.append(
            EpochStats(epoch=epoch, train_loss=sum(batch_losses) / len(batch_losses), val_loss=val_loss)
        )
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
    report.degenerate_examples = stats.degenerate
    return CombModelParams(*_views(best), seed=config.seed), report


def comb_save(params: CombModelParams, path) -> None:
    """Write the container: magic "CGCM", version u16, dim count u16,
    the four layer dims as u32, the init seed as u64 (all little-endian),
    then every tensor as little-endian float64 in row-major order."""
    header = _MAGIC + _HEADER.pack(_VERSION, len(_DIMS), *_DIMS, params.seed)
    body = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in params.arrays())
    with open(path, "wb") as fh:
        fh.write(header + body)


def comb_load(path) -> CombModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _BODY_OFFSET or blob[: len(_MAGIC)] != _MAGIC:
        raise ModelIOError("not a weight-model container (bad magic)")
    version, ndims, *dims, seed = _HEADER.unpack_from(blob, len(_MAGIC))
    if version != _VERSION:
        raise ModelIOError(f"unsupported container version {version}")
    if (ndims, *dims) != (len(_DIMS), *_DIMS):
        raise ModelIOError(f"shape mismatch: container declares {tuple(dims)}, expected {_DIMS}")
    if len(blob) != _BODY_OFFSET + 8 * sum(math.prod(shape) for _, shape in _LAYOUT):
        raise ModelIOError("container truncated or padded")
    flat = np.frombuffer(blob, dtype="<f8", offset=_BODY_OFFSET).astype(np.float64)
    return CombModelParams(*_views(flat), seed=seed)


@dataclass
class HarvestStats:
    examples: int = 0
    skipped_missing_target: int = 0


def teacher_forced_steps(slm, llm, record, tokenizer, fused_limit: int | None = None):
    """Walk the record's reference plus the closing EOS, teacher-forced.

    Yields ``(target, p_s, p_l)`` per position. The small backend gets the
    personal task and the record's context; the large backend gets the
    context-free task variant and no context, and is queried (after the
    small one) only at the first ``fused_limit`` positions, or at every
    position when that is None. Past the limit ``p_l`` is None.
    """
    ids = tokenizer.tokenize(record.reference) + [tokenizer.vocab.eos_id]
    small = open_cursor(slm, record.task, record.context_bundle())
    large = None if fused_limit == 0 else open_cursor(llm, record.llm_task)
    for i, target in enumerate(ids):
        p_s = small.distribution()
        p_l = None
        if fused_limit is None or i < fused_limit:
            p_l = large.distribution()
            large.push(target)
        small.push(target)
        yield target, p_s, p_l


def harvest_examples(slm, llm, records, tokenizer) -> tuple[list[CombExample], HarvestStats]:
    """Teacher-forced training examples from reference outputs.

    For each position in a record's reference plus the closing EOS, both
    backends are queried with the true prefix and cut to the top-k views
    a fused step reads; each step becomes one ``CombExample`` of those
    views. Steps whose gold token fell out of both views are skipped and
    counted rather than trained on.
    """
    examples: list[CombExample] = []
    stats = HarvestStats()
    for record in records:
        for target, p_s, p_l in teacher_forced_steps(slm, llm, record, tokenizer):
            ps_k, pl_k = top_k_views(p_s, p_l, TOP_K)
            try:
                examples.append(CombExample(ps_k, pl_k, int(target)))
            except InvalidInputError:  # the gold token is in neither view
                stats.skipped_missing_target += 1
    stats.examples = len(examples)
    return examples, stats
