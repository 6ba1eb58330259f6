"""Shared vocabulary, token distributions, and sampling primitives.

Everything here is immutable after construction and safe for concurrent
reads. Sampling takes an explicit RNG stream so callers own sequencing.
The only mutable pieces are a distribution's three caches: its last
sampling nucleus, its last top-k view and, on a large model's
distribution, the fused steps it took part in. Each holds pure
functions of immutable inputs, stored as immutable tuples in one
assignment each, so threads that race on a cache can only compute the
same value twice. The nucleus slot serves the single-backend modes, whose
dense distributions a backend memoizes and sampling reads again. A fused
step (``fusion.blend_step``) samples its own union of top-k entries;
the ``FusedDistribution`` it returns keeps its own nucleus slot, and
the step memoizes it and its weight on the large side's distribution
(``_fused``), so a step whose two distributions recur reuses the blend
and its nucleus without cutting a view again. README's "What a run
caches" gives the figure each cache buys.

Probabilities are 64-bit floats end to end: a dense distribution holds
a numpy vector, a top-k view tuples of Python ints and floats. All
tie-breaks (top-k cuts, nucleus cuts, argmax) resolve toward the lowest
token id so that runs are reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields, replace

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


def _pairwise_sum(values) -> float:
    """``np.sum`` of a float64 vector, to the bit, in Python floats.

    numpy adds fewer than 8 entries in one loop; up to 128 in 8 strided
    accumulators, combined as a tree before the entries past the last
    full block of 8 are added; and more by halving at a multiple of 8.
    """
    size = len(values)
    if size < 8:
        total = 0.0
        for x in values:
            total += x
        return total
    if size > 128:
        half = size // 2
        half -= half % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    end = size - size % 8
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    for i in range(8, end, 8):
        a0, a1, a2, a3, a4, a5, a6, a7 = values[i : i + 8]
        r0, r1, r2, r3 = r0 + a0, r1 + a1, r2 + a2, r3 + a3
        r4, r5, r6, r7 = r4 + a4, r5 + a5, r6 + a6, r7 + a7
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for x in values[end:]:
        total += x
    # numpy adds the sum to its identity 0.0, which turns -0.0 into 0.0.
    return total + 0.0


@dataclass(frozen=True)
class TokenDistribution:
    """Probability mass over token ids, in dense or sparse (top-K) form.

    Dense form is a read-only numpy vector, one probability per vocab
    index, summing to 1. Sparse form is a top-k view, as a cut, a service
    reply, the external adapter and ``fusion.fuse`` build it: a tuple of
    int ids and a tuple of float probabilities, sorted by descending
    probability (ties by ascending id), mass at most 1, never renormalized.

    Two cache slots follow one pattern. ``_nucleus`` caches a top-p
    draw's deterministic part for the last ``(temperature, top_p)`` it
    was sampled with, which ``pick`` reads in place; ``_top_k`` caches
    ``top_k_project``'s view for the last ``k``. Each is one slot, overwritten when its key
    changes, so a distribution never holds more than one nucleus and one
    view however many configs or cuts read it. Concurrent readers may
    race on a slot; each entry is an immutable tuple stored in one
    assignment and checked against its key on read, so a lost race only
    computes the entry again. ``top1()`` is computed on every read: only
    greedy picks and trace rows call it.

    The third cache, ``_fused``, is a dict that ``fusion.blend_step``
    fills on a large model's distribution: one entry per small
    distribution and strategy it was blended with (see there). It lives
    and dies with the distribution, and stays None on every distribution
    no fused step read as its large side, and on one that is its own
    top-k view.
    """

    vocab_size: int
    dense_probs: np.ndarray | None = None
    sparse_ids: tuple[int, ...] | None = None
    sparse_probs: tuple[float, ...] | None = None
    _nucleus: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _top_k: tuple | None = field(default=None, init=False, compare=False, repr=False)
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
        return cls(vocab_size=probs.size, dense_probs=probs.copy())

    @classmethod
    def sparse(cls, ids, probs, vocab_size: int) -> "TokenDistribution":
        try:
            ids, probs = tuple(map(int, ids)), tuple(map(float, probs))
        except (TypeError, ValueError):
            ids = probs = ()
        if not ids or len(probs) != len(ids):
            raise InvalidDistributionError("sparse ids/probs must be matching non-empty vectors")
        if not all(map(math.isfinite, probs)):
            raise InvalidDistributionError("probabilities must be finite")
        if min(probs) < 0 or max(probs) > 1 + 1e-12:
            raise InvalidDistributionError("probabilities must lie in [0, 1]")
        if min(ids) < 0 or max(ids) >= vocab_size:
            raise InvalidDistributionError("sparse id out of vocab range")
        if len(set(ids)) != len(ids):
            raise InvalidDistributionError("sparse ids must be unique")
        if any(p < q for p, q in zip(probs, probs[1:])):
            raise InvalidDistributionError("sparse entries must be sorted by descending probability")
        mass = _pairwise_sum(probs)
        if mass > 1 + SPARSE_MASS_TOL:
            raise InvalidDistributionError(f"sparse mass {mass!r} exceeds 1")
        return cls(vocab_size=vocab_size, sparse_ids=ids, sparse_probs=probs)

    def __post_init__(self) -> None:
        # Frozen in place: a caller hands a vector it built over uncopied.
        if self.dense_probs is not None:
            self.dense_probs.flags.writeable = False

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
        return _pairwise_sum(self.sparse_probs)

    def prob_of(self, token_id: int) -> float:
        if self.is_dense:
            return float(self.dense_probs[token_id])
        ids = self.sparse_ids
        return self.sparse_probs[ids.index(token_id)] if token_id in ids else 0.0

    def top1(self) -> tuple[int, float]:
        """Highest-probability (id, p); ties resolve to the lowest id."""
        if self.is_dense:
            i = int(np.argmax(self.dense_probs))
            return i, float(self.dense_probs[i])
        return self.sparse_ids[0], self.sparse_probs[0]

    def pick(self, config: SamplingConfig, rng: Splitmix64) -> int:
        """The greedy choice, or one top-p draw using exactly one RNG
        float (``sample_top_p``'s rules).

        A draw whose ``(temperature, top_p)`` keys the nucleus slot reads
        the ids and cumulative sums from the slot and bisects once; any
        other draw builds the slot first (``_nucleus``).
        """
        if config.greedy:
            return argmax_token(self)
        slot = self._nucleus
        if slot is not None and slot[0] == (config.temperature, config.top_p):
            ids, cum = slot[1], slot[2]
        else:
            ids, cum = _nucleus(self, config.temperature, config.top_p)
        return ids[min(bisect_right(cum, rng.next_float()), len(cum) - 1)]

    def to_dense_array(self) -> np.ndarray:
        """Full-vocab probability vector (zeros off the sparse support)."""
        if self.is_dense:
            return np.array(self.dense_probs, dtype=np.float64)
        out = np.zeros(self.vocab_size, dtype=np.float64)
        out[list(self.sparse_ids)] = self.sparse_probs
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
    Python lists, built afresh and stored in the nucleus slot, where
    ``TokenDistribution.pick`` reads them; callers must not change them.
    The nucleus never reaches past the entries of positive probability:
    where those sum to just under a ``top_p`` of 1, a draw above that sum
    would otherwise pick an id of probability zero."""
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
    object.__setattr__(dist, "_nucleus", ((temperature, top_p), ids, cum))
    return ids, cum


def sample_top_p(dist: TokenDistribution, config: SamplingConfig, rng: Splitmix64) -> int:
    """Nucleus sampling after temperature scaling, whatever
    ``config.greedy`` says.

    Sorts by descending probability (ties toward lower ids), keeps the
    smallest prefix whose cumulative mass reaches ``top_p``, renormalizes
    it, and draws one token using exactly one RNG float. The draw is
    ``dist.pick``'s, which caches the nucleus of the last ``(temperature,
    top_p)`` on the distribution.
    """
    if config.greedy:
        config = replace(config, greedy=False)
    return dist.pick(config, rng)


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
    if dist.is_sparse and len(dist.sparse_probs) <= k:
        return dist
    slot = dist._top_k
    if slot is not None and slot[0] == k:
        return slot[1]
    if dist.is_dense:
        order = _descending_order(dist.dense_probs)[:k]
        ids, probs = tuple(order.tolist()), tuple(dist.dense_probs[order].tolist())
    else:
        ids, probs = dist.sparse_ids[:k], dist.sparse_probs[:k]
    view = TokenDistribution(vocab_size=dist.vocab_size, sparse_ids=ids, sparse_probs=probs)
    object.__setattr__(dist, "_top_k", (k, view))
    return view
