"""Shared vocabulary, token distributions, and sampling primitives.

Everything here is immutable after construction and safe for concurrent
reads. Sampling takes an explicit RNG stream so callers own sequencing.
The only mutable pieces are a distribution's four caches: its last
sampling nucleus, its last top-k view, its top-1 entry and, on a large
model's top-k view, the fused steps it took part in. Each holds pure
functions of immutable inputs, stored as immutable tuples in one
assignment each, so threads that race on a cache can only compute the
same value twice. The nucleus slot serves the single-backend modes, whose
dense distributions a backend memoizes and sampling reads again. A fused
step (``fusion.blend_step``) samples its own union of top-k entries;
the ``FusedDistribution`` it returns keeps its own nucleus slot, and
the step memoizes it on the large view (``_fused``), so a step whose
two views recur reuses the blend and its nucleus.

Probabilities are 64-bit floats end to end. All tie-breaks (top-k cuts,
nucleus cuts, argmax) resolve toward the lowest token id so that runs are
reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    InvalidConfigError,
    InvalidDistributionError,
    InvalidInputError,
)
from .rng import Splitmix64

DENSE_SUM_TOL = 1e-9
SPARSE_MASS_TOL = 1e-9


@dataclass(frozen=True)
class Vocab:
    """Ordered token inventory shared by every backend in a fused session."""

    tokens: tuple[str, ...]
    eos_id: int
    unk_id: int
    _index: dict = field(init=False, repr=False, compare=False)
    _digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.tokens) < 2:
            raise InvalidInputError("vocab needs at least 2 tokens")
        index = {}
        for i, tok in enumerate(self.tokens):
            if tok in index:
                raise InvalidInputError(f"duplicate token {tok!r}")
            index[tok] = i
        for name, idx in (("eos_id", self.eos_id), ("unk_id", self.unk_id)):
            if not 0 <= idx < len(self.tokens):
                raise InvalidInputError(f"{name} {idx} out of range")
        object.__setattr__(self, "_index", index)
        h = hashlib.sha256()
        for tok in self.tokens:
            h.update(tok.encode("utf-8"))
            h.update(b"\x00")
        h.update(f"\x01{self.eos_id}\x01{self.unk_id}".encode("ascii"))
        object.__setattr__(self, "_digest", h.digest()[:8].hex())

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        """Token id, falling back to the unknown id for OOV strings."""
        return self._index.get(token, self.unk_id)

    def token(self, token_id: int) -> str:
        return self.tokens[token_id]

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def digest(self) -> str:
        """16-hex-char identity used in handshakes and config checks,
        computed once at construction."""
        return self._digest


@dataclass(frozen=True)
class SamplingConfig:
    """Decoding knobs; the defaults mirror the engine's standard setup."""

    temperature: float = 0.7
    top_p: float = 0.9
    max_new_tokens: int = 1024
    seed: int = 0
    greedy: bool = False

    def __post_init__(self) -> None:
        if not (self.temperature > 0):
            raise InvalidConfigError("temperature must be > 0")
        if not (0 < self.top_p <= 1):
            raise InvalidConfigError("top_p must be in (0, 1]")
        if self.max_new_tokens < 1:
            raise InvalidConfigError("max_new_tokens must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise InvalidConfigError("seed must fit in 64 unsigned bits")


# The JSON type of each sampling field read from outside, a config file or
# a wire frame: its default's type.
SAMPLING_TYPES = {f.name: type(f.default) for f in fields(SamplingConfig)}


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TokenDistribution:
    """Probability mass over token ids, in dense or sparse (top-K) form.

    Dense form carries one probability per vocab index and must sum to 1.
    Sparse form carries (id, probability) entries sorted by descending
    probability (ties by ascending id) with total mass at most 1; it is
    what survives a top-K cut and is never renormalized by the cut itself.

    Three cache slots follow one pattern. ``_nucleus`` caches
    ``sample_top_p``'s deterministic part for the last ``(temperature,
    top_p)`` it was sampled with; ``_top_k`` caches ``top_k_project``'s
    view for the last ``k``; ``_top1`` caches ``top1()``, which has no key.
    Each is one slot, overwritten when its key changes, so a distribution
    never holds more than one nucleus and one view however many configs or
    cuts read it. Concurrent readers may race on a slot; each entry is an
    immutable tuple stored in one assignment and checked against its key
    on read, so a lost race only computes the entry again.

    The fourth cache, ``_fused``, is a dict that ``fusion.blend_step``
    fills on a large model's top-k view: one entry per small view and
    strategy it was blended with (see there). It lives and dies with the
    view, and stays None on every distribution no fused step read as its
    large side.
    """

    vocab_size: int
    dense_probs: np.ndarray | None = None
    sparse_ids: np.ndarray | None = None
    sparse_probs: np.ndarray | None = None
    _nucleus: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _top_k: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _top1: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _fused: dict | None = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def dense(cls, probs) -> "TokenDistribution":
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise InvalidDistributionError("dense distribution must be a non-empty vector")
        if not np.isfinite(probs).all():
            raise InvalidDistributionError("probabilities must be finite")
        if probs.min() < 0 or probs.max() > 1 + 1e-12:
            raise InvalidDistributionError("probabilities must lie in [0, 1]")
        mass = float(probs.sum())
        if abs(mass - 1.0) > DENSE_SUM_TOL:
            raise InvalidDistributionError(f"dense mass {mass!r} not within {DENSE_SUM_TOL} of 1")
        return cls(vocab_size=probs.size, dense_probs=_readonly(probs))

    @classmethod
    def sparse(cls, ids, probs, vocab_size: int) -> "TokenDistribution":
        ids = np.asarray(ids, dtype=np.int64)
        probs = np.asarray(probs, dtype=np.float64)
        if ids.ndim != 1 or probs.shape != ids.shape or ids.size == 0:
            raise InvalidDistributionError("sparse ids/probs must be matching non-empty vectors")
        if not np.all(np.isfinite(probs)):
            raise InvalidDistributionError("probabilities must be finite")
        if np.any(probs < 0) or np.any(probs > 1 + 1e-12):
            raise InvalidDistributionError("probabilities must lie in [0, 1]")
        if np.any(ids < 0) or np.any(ids >= vocab_size):
            raise InvalidDistributionError("sparse id out of vocab range")
        if len(set(ids.tolist())) != ids.size:
            raise InvalidDistributionError("sparse ids must be unique")
        if np.any(np.diff(probs) > 0):
            raise InvalidDistributionError("sparse entries must be sorted by descending probability")
        mass = float(probs.sum())
        if mass > 1 + SPARSE_MASS_TOL:
            raise InvalidDistributionError(f"sparse mass {mass!r} exceeds 1")
        return cls(vocab_size=vocab_size, sparse_ids=ids.copy(), sparse_probs=_readonly(probs))

    def __post_init__(self) -> None:
        # The arrays are frozen in place: a caller that built them fresh
        # hands them over without a copy.
        for arr in (self.dense_probs, self.sparse_ids, self.sparse_probs):
            if arr is not None:
                arr.flags.writeable = False

    @property
    def is_dense(self) -> bool:
        return self.dense_probs is not None

    @property
    def is_sparse(self) -> bool:
        return self.sparse_probs is not None

    @property
    def mass(self) -> float:
        if self.is_dense:
            return float(self.dense_probs.sum())
        return float(self.sparse_probs.sum())

    def prob_of(self, token_id: int) -> float:
        if self.is_dense:
            return float(self.dense_probs[token_id])
        hits = np.nonzero(self.sparse_ids == token_id)[0]
        return float(self.sparse_probs[hits[0]]) if hits.size else 0.0

    def top1(self) -> tuple[int, float]:
        """Highest-probability (id, p); ties resolve to the lowest id."""
        top = self._top1
        if top is None:
            if self.is_dense:
                i = int(np.argmax(self.dense_probs))
                top = i, float(self.dense_probs[i])
            else:
                top = int(self.sparse_ids[0]), float(self.sparse_probs[0])
            object.__setattr__(self, "_top1", top)
        return top

    def pick(self, config: SamplingConfig, rng: Splitmix64) -> int:
        """The greedy choice, or one ``sample_top_p`` draw."""
        return argmax_token(self) if config.greedy else sample_top_p(self, config, rng)

    def to_dense_array(self) -> np.ndarray:
        """Full-vocab probability vector (zeros off the sparse support)."""
        if self.is_dense:
            return np.array(self.dense_probs, dtype=np.float64)
        out = np.zeros(self.vocab_size, dtype=np.float64)
        out[self.sparse_ids] = self.sparse_probs
        return out


def _descending_order(probs: np.ndarray) -> np.ndarray:
    """Indices sorted by descending probability, ties by ascending id."""
    return np.argsort(-probs, kind="stable")


def _temper_probs(probs: np.ndarray, temperature: float) -> np.ndarray:
    """Probability-space temperature: p**(1/T), renormalized.

    Equivalent to dividing log-probabilities by T; zeros stay zero. Done
    through logs so extreme temperatures neither overflow nor underflow.
    """
    if temperature == 1.0:
        return probs
    positive = probs > 0
    scaled = np.full(probs.size, -np.inf)
    with np.errstate(over="ignore"):  # a tiny T sends log(p) < 0 to -inf
        scaled[positive] = np.log(probs[positive]) / temperature
    finite = scaled[np.isfinite(scaled)]
    if finite.size == 0:
        raise InvalidDistributionError("distribution has no support")
    out = np.exp(scaled - finite.max())
    out[~np.isfinite(out)] = 0.0
    # The largest finite entry adds exp(0) = 1, so the total is at least 1.
    return out / out.sum()


def _nucleus(dist: TokenDistribution, temperature: float, top_p: float):
    """Token ids of the top-p nucleus after tempering, most probable first,
    and the cumulative sum of their renormalized probabilities, both as
    Python lists. The nucleus never reaches past the entries of positive
    probability: where those sum to just under a ``top_p`` of 1, a draw
    above that sum would otherwise pick an id of probability zero."""
    key = (temperature, top_p)
    slot = dist._nucleus
    if slot is not None and slot[0] == key:
        return slot[1], slot[2]
    if not dist.is_dense:
        raise InvalidDistributionError("sample_top_p requires a dense distribution")
    if abs(dist.mass - 1.0) > DENSE_SUM_TOL:
        raise InvalidDistributionError("sample_top_p requires a normalized distribution")
    probs = _temper_probs(np.asarray(dist.dense_probs), temperature)
    order = _descending_order(probs)
    sorted_probs = probs[order]
    cum = np.cumsum(sorted_probs)
    cut = int(np.searchsorted(cum, top_p, side="left")) + 1
    cut = min(cut, int(np.count_nonzero(probs)))
    nucleus = sorted_probs[:cut]
    ids, cum = order[:cut].tolist(), np.cumsum(nucleus / nucleus.sum()).tolist()
    object.__setattr__(dist, "_nucleus", (key, ids, cum))
    return ids, cum


def sample_top_p(dist: TokenDistribution, config: SamplingConfig, rng: Splitmix64) -> int:
    """Nucleus sampling after temperature scaling.

    Sorts by descending probability (ties toward lower ids), keeps the
    smallest prefix whose cumulative mass reaches ``top_p``, renormalizes
    it, and draws one token using exactly one RNG float. The nucleus of the
    last ``(temperature, top_p)`` is cached on the distribution.
    """
    order, cum = _nucleus(dist, config.temperature, config.top_p)
    u = rng.next_float()
    return order[min(bisect_right(cum, u), len(cum) - 1)]


def argmax_token(dist: TokenDistribution) -> int:
    """Greedy choice; ties resolve to the lowest token id."""
    return dist.top1()[0]


def top_k_project(dist: TokenDistribution, k: int) -> TokenDistribution:
    """Keep the k highest-probability entries without renormalizing.

    A dense distribution is ordered, ties at the cut going to lower token
    ids; projecting a normalized one with k >= vocab size keeps mass 1. A
    sparse distribution already descends with ties toward the lower id,
    so its first k entries are its top k, and one with at most k entries
    is its own view. The view for the last ``k`` is cached on the
    distribution and returned again.
    """
    if k < 1:
        raise InvalidConfigError("k must be >= 1")
    if dist.is_sparse and dist.sparse_probs.size <= k:
        return dist
    slot = dist._top_k
    if slot is not None and slot[0] == k:
        return slot[1]
    if dist.is_dense:
        probs = np.asarray(dist.dense_probs)
        # A copy, so the cache does not keep the whole vocabulary's order alive.
        ids = np.array(_descending_order(probs)[: min(k, probs.size)], dtype=np.int64)
        probs = probs[ids]
    else:
        ids, probs = dist.sparse_ids[:k], dist.sparse_probs[:k]
    view = TokenDistribution(vocab_size=dist.vocab_size, sparse_ids=ids, sparse_probs=probs)
    object.__setattr__(dist, "_top_k", (k, view))
    return view
