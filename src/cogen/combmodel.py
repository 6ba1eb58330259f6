"""Learnable fusion-weight network, trained from scratch.

A three-layer feed-forward net (20 -> 512 -> 16 -> 1, ReLU inside,
sigmoid on top) maps the top-10 probabilities of both sources to a single
blend weight in (0, 1). Training is plain SGD with early stopping on
validation loss; the loss is the negative log-likelihood of the fused
distribution at the gold token, with gradient flowing only through the
weight — both source distributions are treated as constants.

Parameters round-trip through a little binary container (magic "CGCM")
documented field by field in ``comb_save``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .backends import ConditioningInput
from .core import TokenDistribution, top_k_project
from .errors import InvalidConfigError, InvalidInputError, ModelIOError
from .fusion import AlignedPair, FusionStrategy, align_supports, fuse
from .rng import Splitmix64

IN_DIM = 20
HIDDEN1 = 512
HIDDEN2 = 16
OUT_DIM = 1
TOP_K = 10

_MAGIC = b"CGCM"
_VERSION = 1
_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class CombModelParams:
    w1: np.ndarray  # (20, 512)
    b1: np.ndarray  # (512,)
    w2: np.ndarray  # (512, 16)
    b2: np.ndarray  # (16,)
    w3: np.ndarray  # (16, 1)
    b3: np.ndarray  # (1,)
    seed: int = 0

    def __post_init__(self) -> None:
        shapes = {
            "w1": (IN_DIM, HIDDEN1),
            "b1": (HIDDEN1,),
            "w2": (HIDDEN1, HIDDEN2),
            "b2": (HIDDEN2,),
            "w3": (HIDDEN2, OUT_DIM),
            "b3": (OUT_DIM,),
        }
        for name, want in shapes.items():
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
        if not (self.learning_rate > 0):
            raise InvalidConfigError("learning_rate must be > 0")
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


@dataclass(frozen=True)
class CombExample:
    """One supervised step: both sources' top-10 views plus the gold token."""

    top10_l: tuple[float, ...]
    top10_s: tuple[float, ...]
    aligned: AlignedPair
    target_id: int

    def __post_init__(self) -> None:
        _check_top10("top10_l", self.top10_l)
        _check_top10("top10_s", self.top10_s)
        if self.target_index() is None:
            raise InvalidInputError("target_id is outside the aligned support")

    def target_index(self) -> int | None:
        support = self.aligned.support
        pos = int(np.searchsorted(support, self.target_id))
        if pos < support.size and support[pos] == self.target_id:
            return pos
        return None


def padded_top_probs(dist: TokenDistribution, k: int = TOP_K) -> tuple[float, ...]:
    """Descending top-k probabilities padded with zeros to length k."""
    if not dist.is_sparse:
        dist = top_k_project(dist, k)
    probs = [float(p) for p in dist.sparse_probs[:k]]
    probs.extend(0.0 for _ in range(k - len(probs)))
    return tuple(probs)


def comb_init(seed: int) -> CombModelParams:
    """Fan-balanced uniform init, U(-sqrt(6/(fan_in+fan_out)), +same);
    biases start at zero. Fully determined by the seed."""
    rng = Splitmix64(seed)

    def layer(fan_in: int, fan_out: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniforms(-limit, limit, fan_in * fan_out).reshape(fan_in, fan_out)

    return CombModelParams(
        w1=layer(IN_DIM, HIDDEN1),
        b1=np.zeros(HIDDEN1),
        w2=layer(HIDDEN1, HIDDEN2),
        b2=np.zeros(HIDDEN2),
        w3=layer(HIDDEN2, OUT_DIM),
        b3=np.zeros(OUT_DIM),
        seed=seed,
    )


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


def _example_x(example: "CombExample") -> np.ndarray:
    return np.concatenate([np.asarray(example.top10_l), np.asarray(example.top10_s)])


def comb_forward(params: CombModelParams, top10_l, top10_s) -> float:
    """Blend weight in (0, 1) from both sources' descending top-10 probs."""
    x = np.concatenate([_check_top10("top10_l", top10_l), _check_top10("top10_s", top10_s)])
    w, _ = _forward(params.arrays(), x)
    return w


@dataclass
class LossStats:
    degenerate: int = 0


def _fused_target_prob(example: CombExample, w: float) -> float:
    dist, _ = fuse(example.aligned, FusionStrategy.fixed(w))
    return dist.prob_of(example.target_id)


def _loss_arrays(arrs, example: CombExample, stats: "LossStats | None" = None) -> float:
    w, _ = _forward(arrs, _example_x(example))
    p = _fused_target_prob(example, w)
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
    return _loss_arrays(params.arrays(), example, stats)


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


def _grad_arrays(arrs, example: CombExample) -> tuple[np.ndarray, ...]:
    w1, b1, w2, b2, w3, b3 = arrs
    w, (x, z1, h1, z2, h2) = _forward(arrs, _example_x(example))

    y = example.target_index()
    a = example.aligned.p_s
    b = example.aligned.p_l
    a_y, b_y = float(a[y]), float(b[y])
    mass_a, mass_b = float(a.sum()), float(b.sum())
    u = w * a_y + (1.0 - w) * b_y
    s = w * mass_a + (1.0 - w) * mass_b
    if u <= 0.0 or u / s < _PROB_FLOOR:
        dl_dw = 0.0  # clamped region of the loss is flat
    else:
        dl_dw = -(a_y - b_y) / u + (mass_a - mass_b) / s

    g = dl_dw * w * (1.0 - w)  # through the sigmoid
    dw3 = h2[:, None] * g
    db3 = np.array([g])
    dh2 = w3[:, 0] * g
    dz2 = dh2 * (z2 > 0)
    dw2 = np.outer(h1, dz2)
    db2 = dz2
    dh1 = w2 @ dz2
    dz1 = dh1 * (z1 > 0)
    dw1 = np.outer(x, dz1)
    db1 = dz1
    return dw1, db1, dw2, db2, dw3, db3


def comb_grad(params: CombModelParams, example: CombExample) -> CombGradients:
    """Analytic gradient of ``comb_loss`` in the parameter shapes.

    The chain starts at the loss derivative with respect to the blend
    weight. With a = p_s, b = p_l over the aligned support, y the target
    slot, u = w*a_y + (1-w)*b_y the fused target mass and S the fused
    total mass, dL/dw = -(a_y - b_y)/u + (A - B)/S; the second term is the
    renormalization correction and vanishes on dense inputs where both
    masses are 1. ReLU uses subgradient 0 at 0.
    """
    dw1, db1, dw2, db2, dw3, db3 = _grad_arrays(params.arrays(), example)
    return CombGradients(w1=dw1, b1=db1, w2=dw2, b2=db2, w3=dw3, b3=db3)


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


def _mean_loss(arrs, examples, stats: LossStats | None = None) -> float:
    return sum(_loss_arrays(arrs, ex, stats) for ex in examples) / len(examples)


def comb_train(
    train: list[CombExample],
    val: list[CombExample],
    config: CombTrainConfig = CombTrainConfig(),
) -> tuple[CombModelParams, TrainReport]:
    """Plain SGD over seeded-shuffle mini-batches with early stopping.

    After each epoch the mean validation loss is evaluated; the best
    parameters seen are kept and training stops once ``patience`` epochs
    pass without improvement (or at ``max_epochs``).
    """
    if not train or not val:
        raise InvalidInputError("train and val splits must both be non-empty")
    current = [np.array(a) for a in comb_init(config.seed).arrays()]
    rng = Splitmix64(config.seed)
    stats = LossStats()
    report = TrainReport()
    best = [a.copy() for a in current]

    def as_params(arrays) -> CombModelParams:
        w1, b1, w2, b2, w3, b3 = (a.copy() for a in arrays)
        return CombModelParams(w1=w1, b1=b1, w2=w2, b2=b2, w3=w3, b3=b3, seed=config.seed)

    bad_epochs = 0
    for epoch in range(1, config.max_epochs + 1):
        order = list(range(len(train)))
        rng.shuffle(order)
        batch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = [train[i] for i in order[start : start + config.batch_size]]
            batch_losses.extend(_loss_arrays(current, ex, stats) for ex in batch)
            grads = [np.zeros_like(a) for a in current]
            for ex in batch:
                for acc, g in zip(grads, _grad_arrays(current, ex)):
                    acc += g
            for arr, g in zip(current, grads):
                arr -= config.learning_rate * (g / len(batch))
        val_loss = _mean_loss(current, val)
        report.epochs.append(
            EpochStats(epoch=epoch, train_loss=sum(batch_losses) / len(batch_losses), val_loss=val_loss)
        )
        if val_loss < report.best_val_loss:
            report.best_val_loss = val_loss
            report.best_epoch = epoch
            best = [a.copy() for a in current]
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                report.stopped_early = True
                break
    report.degenerate_examples = stats.degenerate
    return as_params(best), report


def comb_save(params: CombModelParams, path) -> None:
    """Write the container: magic "CGCM", version u16, dim count u16,
    the four layer dims as u32, the init seed as u64 (all little-endian),
    then every tensor as little-endian float64 in row-major order."""
    header = _MAGIC + struct.pack(
        "<HHIIIIQ", _VERSION, 4, IN_DIM, HIDDEN1, HIDDEN2, OUT_DIM, params.seed
    )
    body = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in params.arrays())
    with open(path, "wb") as fh:
        fh.write(header + body)


def comb_load(path) -> CombModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 32 or blob[:4] != _MAGIC:
        raise ModelIOError("not a weight-model container (bad magic)")
    version, ndims, d0, d1, d2, d3, seed = struct.unpack("<HHIIIIQ", blob[4:32])
    if version != _VERSION:
        raise ModelIOError(f"unsupported container version {version}")
    if (ndims, d0, d1, d2, d3) != (4, IN_DIM, HIDDEN1, HIDDEN2, OUT_DIM):
        raise ModelIOError(
            f"shape mismatch: container declares {(d0, d1, d2, d3)}, "
            f"expected {(IN_DIM, HIDDEN1, HIDDEN2, OUT_DIM)}"
        )
    counts = [
        IN_DIM * HIDDEN1,
        HIDDEN1,
        HIDDEN1 * HIDDEN2,
        HIDDEN2,
        HIDDEN2 * OUT_DIM,
        OUT_DIM,
    ]
    if len(blob) != 32 + 8 * sum(counts):
        raise ModelIOError("container truncated or padded")
    flat = np.frombuffer(blob, dtype="<f8", offset=32)
    arrays, cursor = [], 0
    for count in counts:
        arrays.append(np.array(flat[cursor : cursor + count], dtype=np.float64))
        cursor += count
    return CombModelParams(
        w1=arrays[0].reshape(IN_DIM, HIDDEN1),
        b1=arrays[1],
        w2=arrays[2].reshape(HIDDEN1, HIDDEN2),
        b2=arrays[3],
        w3=arrays[4].reshape(HIDDEN2, OUT_DIM),
        b3=arrays[5],
        seed=seed,
    )


@dataclass
class HarvestStats:
    examples: int = 0
    skipped_missing_target: int = 0


def harvest_examples(
    slm,
    llm,
    records,
    tokenizer,
    top_k: int = TOP_K,
    include_eos: bool = True,
) -> tuple[list[CombExample], HarvestStats]:
    """Teacher-forced training examples from reference outputs.

    For each position in a record's reference, both backends are queried
    with the true prefix, truncated to their top-k views, and aligned.
    Steps whose gold token fell out of both top-k supports are skipped and
    counted rather than trained on.
    """
    examples: list[CombExample] = []
    stats = HarvestStats()
    for record in records:
        ref_ids = tokenizer.tokenize(record.reference)
        if include_eos:
            ref_ids = ref_ids + [tokenizer.vocab.eos_id]
        context = record.context_bundle()
        llm_instruction = record.general_task or record.task
        for i, target in enumerate(ref_ids):
            prefix = tuple(ref_ids[:i])
            p_s = slm.next_distribution(
                ConditioningInput(record.task, prefix, context, slm.role)
            )
            p_l = llm.next_distribution(
                ConditioningInput(llm_instruction, prefix, None, llm.role)
            )
            ps_k = p_s if p_s.is_sparse else top_k_project(p_s, top_k)
            pl_k = p_l if p_l.is_sparse else top_k_project(p_l, top_k)
            pair = align_supports(ps_k, pl_k)
            if not np.isin(target, pair.support):
                stats.skipped_missing_target += 1
                continue
            examples.append(
                CombExample(
                    top10_l=padded_top_probs(pl_k, top_k),
                    top10_s=padded_top_probs(ps_k, top_k),
                    aligned=pair,
                    target_id=int(target),
                )
            )
            stats.examples += 1
    return examples, stats
