"""Combining two next-token distributions into one.

Four strategies: a fixed convex weight, mean pooling (weight 0.5), max
pooling (elementwise maximum), and a learnable weight that the
strategy's trained weight network computes from the step's two top-k
views. Convex combination happens over the union
support of the two inputs; whenever truncation has shaved mass off, the
result is renormalized so downstream sampling always sees a proper
distribution. Dense, already-normalized inputs pass through untouched,
which keeps the weight-1 and weight-0 endpoints exact to the bit.

``blend_step`` is the fused step that decoding and teacher-forced
scoring take: it cuts both sources to their top-k views, weighs and
blends them with ``fuse_views``, and memoizes the result on the large
side's distribution, where a later step finds it before cutting any
view. The step works in Python floats, not numpy arrays: its inputs are
two top-k views of at most ``TOP_K`` entries each, and at that size a
numpy pipeline costs its count of calls, not its length.
``fuse_views`` aligns the views on the union of their ids with a dict
and blends them; the ``FusedDistribution`` it returns tempers, orders
and cuts the union and draws from it. ``blend`` is the one blend: the
fused step, teacher-forced scoring, the weight net's loss and ``fuse``
all read it. The blend's sums copy numpy's float64 summation order
(``_pairwise_sum``), so each blended probability is the one the dense
numpy path computed. The sampler's three sums (the blend's mass, the
tempered mass and the nucleus mass) are ``math.fsum``, which is
correctly rounded and so needs no order; they may differ from numpy's
in the last bit, which moves a pick only for a draw that falls between
the two cumulative sums.

``align_supports`` and ``fuse`` keep the numpy form, an ``AlignedPair``
and a ``TokenDistribution``, for sparse inputs and the fixed, mean and
max strategies. Neither fused steps nor training examples use them: they
serve the benchmark's per-layer tracer and test oracles.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import DENSE_SUM_TOL, SamplingConfig, TokenDistribution, top_k_project
from .errors import (
    IncompatibleVocabError,
    InvalidConfigError,
    InvalidDistributionError,
    InvalidInputError,
)
from .rng import Splitmix64

# Size of each source's top-k view: the fused step's cut, the weight net's
# input and the number of entries a logits request asks the service for.
TOP_K = 10
# Entries one large distribution's fused-step memo holds at most. The
# benchmark's local-mix workload peaks at 43 (seeds 0-3) and long-context
# at 11; a small side that returned new distributions at every call would
# otherwise grow a long-lived large distribution's memo without bound.
FUSED_MEMO_CAP = 64


@dataclass(frozen=True)
class FusionStrategy:
    kind: str  # fixed | mean | max | learnable
    w: float | None = None
    model: object | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "mean", "max", "learnable"):
            raise InvalidConfigError(f"unknown fusion strategy {self.kind!r}")
        if self.kind == "fixed":
            if self.w is None or not (0.0 <= self.w <= 1.0):
                raise InvalidConfigError("fixed fusion weight must lie in [0, 1]")
        if self.kind == "learnable" and self.model is None:
            raise InvalidConfigError("learnable fusion needs a loaded weight model")

    @classmethod
    def fixed(cls, w: float) -> "FusionStrategy":
        return cls(kind="fixed", w=float(w))

    @classmethod
    def mean(cls) -> "FusionStrategy":
        return cls(kind="mean")

    @classmethod
    def max_pool(cls) -> "FusionStrategy":
        return cls(kind="max")

    @classmethod
    def learnable(cls, model) -> "FusionStrategy":
        """A strategy whose ``model`` weighs each step: it must provide
        ``weight(pl_k, ps_k)``, the blend weight in [0, 1] from the large
        and the small top-k view, and never change (the fused-step memo
        keeps its answers). ``combmodel.CombModelParams`` is such a model."""
        return cls(kind="learnable", model=model)

    def label(self) -> str:
        if self.kind == "fixed":
            return f"fixed({self.w:g})"
        return self.kind


@dataclass(frozen=True)
class AlignedPair:
    """Both inputs expressed over the sorted union of their supports."""

    support: np.ndarray  # sorted token ids
    p_s: np.ndarray
    p_l: np.ndarray
    vocab_size: int

    def __post_init__(self) -> None:
        for name in ("support", "p_s", "p_l"):
            getattr(self, name).flags.writeable = False


def _shared_vocab_size(p_s: TokenDistribution, p_l: TokenDistribution) -> int:
    if p_s.vocab_size != p_l.vocab_size:
        raise IncompatibleVocabError(
            f"vocab sizes differ: {p_s.vocab_size} vs {p_l.vocab_size}"
        )
    return p_s.vocab_size


def _align(ps_k: TokenDistribution, pl_k: TokenDistribution):
    """The ascending union of two sparse views' ids and each view's
    probability at every one of them, 0.0 where it has none, as lists."""
    a = dict(zip(ps_k.sparse_ids.tolist(), ps_k.sparse_probs.tolist()))
    b = dict(zip(pl_k.sparse_ids.tolist(), pl_k.sparse_probs.tolist()))
    ids = sorted(a.keys() | b.keys())
    return ids, [a.get(i, 0.0) for i in ids], [b.get(i, 0.0) for i in ids]


def align_supports(p_s: TokenDistribution, p_l: TokenDistribution) -> AlignedPair:
    """Express two sparse distributions over their union support; entries
    a source never mentioned are exactly zero."""
    size = _shared_vocab_size(p_s, p_l)
    ids, a, b = _align(p_s, p_l)
    return AlignedPair(np.array(ids, dtype=np.int64), np.array(a), np.array(b), size)


def top_k_views(
    p_s: TokenDistribution, p_l: TokenDistribution
) -> tuple[TokenDistribution, TokenDistribution]:
    """Both sources' top-k views: ``top_k_project`` of each at ``TOP_K``."""
    return top_k_project(p_s, TOP_K), top_k_project(p_l, TOP_K)


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


def _mixture(a, b, w: float | None) -> tuple[list[float], float]:
    """``blend``'s values before normalization and the divisor that
    normalizes them: their mass, or 1.0 where ``blend`` skips the
    division. Dividing one entry by it gives that entry of the blend."""
    if w is None:
        vec = [x if x >= y else y for x, y in zip(a, b)]
    else:
        v = 1.0 - w
        vec = [w * x + v * y for x, y in zip(a, b)]
    total = _pairwise_sum(vec)
    if total <= 0:
        raise InvalidInputError("fused distribution has no mass")
    if abs(total - 1.0) <= DENSE_SUM_TOL:
        return vec, 1.0
    return vec, total


def blend(a, b, w: float | None) -> list[float]:
    """w*a + (1-w)*b over one aligned support, or the elementwise maximum
    when ``w`` is None, normalized: the values every fused step samples
    from, teacher-forced scoring reads and the weight net's loss takes.

    The division is skipped when the mass already lies within the
    dense-validation tolerance of 1, which keeps convex combinations of
    clean dense inputs bit-exact (a weight of 1 really returns the first
    operand unchanged).
    """
    vec, total = _mixture(a, b, w)
    if total == 1.0:
        return vec
    return [x / total for x in vec]


def _weight(strategy: FusionStrategy, ps_k, pl_k) -> float | None:
    """The blend weight ``strategy`` uses on the two top-k views, None for
    max pooling."""
    if strategy.kind == "max":
        return None
    if strategy.kind == "mean":
        w = 0.5
    elif strategy.kind == "fixed":
        # A weight of -0.0 blends as 0.0, and is reported so: the fused
        # step's memo treats the two as one key.
        w = float(strategy.w) + 0.0
    else:  # learnable: the strategy's net reads both views
        w = float(strategy.model.weight(pl_k, ps_k))
    if not (0.0 <= w <= 1.0):
        raise InvalidInputError(f"fusion weight {w} outside [0, 1]")
    return w


def _to_distribution(pair: AlignedPair, vec: np.ndarray) -> TokenDistribution:
    if pair.support.size == pair.vocab_size:
        return TokenDistribution(vocab_size=pair.vocab_size, dense_probs=vec)
    # The support is sorted, so a stable sort breaks ties toward the lower id.
    order = np.argsort(-vec, kind="stable")
    return TokenDistribution(
        vocab_size=pair.vocab_size,
        sparse_ids=np.asarray(pair.support[order], dtype=np.int64),
        sparse_probs=vec[order],
    )


def fuse(pair: AlignedPair, strategy: FusionStrategy) -> tuple[TokenDistribution, float]:
    """Blend the aligned pair and report the weight that was used.

    Convex strategies compute w*p_s + (1-w)*p_l; max pooling takes the
    elementwise maximum. Max pooling has no single blend weight, so its
    recorded weight is the neutral 0.5. A learnable strategy is refused:
    its net reads the top-k views, which ``fuse_views`` takes.
    """
    if strategy.kind == "learnable":
        raise InvalidInputError("fuse takes no learnable strategy; use fuse_views on the top-k views")
    w = _weight(strategy, None, None)
    vec = np.array(blend(pair.p_s.tolist(), pair.p_l.tolist(), w))
    return _to_distribution(pair, vec), 0.5 if w is None else w


def _temper(probs: list[float], temperature: float) -> list[float]:
    """``probs`` raised to ``1 / temperature`` and renormalized, through
    logs as ``core._temper_probs`` does, in Python floats with an
    ``fsum`` mass. Each entry is at most 1 (``FusedDistribution._sampled``),
    so no scaled entry is ``+inf`` and the top one adds ``exp(0) = 1`` to
    the mass."""
    log, exp, inf = math.log, math.exp, math.inf
    scaled = [log(p) / temperature if p > 0 else -inf for p in probs]
    top = max(scaled)
    if top == -inf:
        raise InvalidDistributionError("distribution has no support")
    out = [exp(s - top) for s in scaled]
    total = math.fsum(out)
    return [x / total for x in out]


class FusedDistribution:
    """One fused step's blend over the union of two top-k views.

    ``ids`` ascend and ``probs`` holds the blend at each of them; every
    other id of the vocabulary has probability zero. Neither changes
    after construction. ``blend_step`` memoizes a step's
    distribution for as long as its large side lives, so one instance may
    serve many steps, sessions and threads. Its one cache slot follows
    ``core.TokenDistribution``'s pattern: ``_nucleus_slot`` keeps the
    nucleus of the last ``(temperature, top_p)`` it was sampled with, as
    one immutable tuple checked against that key on read.
    """

    __slots__ = ("ids", "probs", "_nucleus_slot")

    def __init__(self, ids: list[int], probs: list[float]) -> None:
        self.ids = ids
        self.probs = probs
        self._nucleus_slot = None

    def prob_of(self, token_id: int) -> float:
        i = bisect_left(self.ids, token_id)
        return self.probs[i] if i < len(self.ids) and self.ids[i] == token_id else 0.0

    def _sampled(self) -> list[float]:
        """The blend divided by its ``fsum`` mass, the values the sampler
        draws from; none exceeds 1, since the mass is at least each entry."""
        mass = math.fsum(self.probs)
        return [p / mass for p in self.probs]

    def _nucleus(self, temperature: float, top_p: float) -> tuple[list[int], list[float]]:
        """The ids of the top-p nucleus after tempering, most probable
        first, and the cumulative sum of their renormalized probabilities,
        cut as ``core._nucleus`` cuts, except that the nucleus never
        reaches past the entries of positive probability. Where those sum
        to just under a ``top_p`` of 1, the dense path took every
        zero-probability id into the nucleus, and a draw above that sum
        picked one of them. The result for the last ``(temperature,
        top_p)`` is cached; callers must not change it."""
        key = (temperature, top_p)
        slot = self._nucleus_slot
        if slot is not None and slot[0] == key:
            return slot[1], slot[2]
        ids, probs = self.ids, self._sampled()
        if temperature != 1.0:
            probs = _temper(probs, temperature)
        # Descending, ties toward the lower id (``ids`` ascend, and a
        # reversed sort stays stable); zeros sort last.
        order = sorted(range(len(probs)), key=probs.__getitem__, reverse=True)
        ranked = [probs[j] for j in order]
        kept = len(ranked) - probs.count(0.0)
        cut = min(bisect_left(list(accumulate(ranked)), top_p) + 1, kept)
        nucleus = ranked[:cut]
        total = math.fsum(nucleus)
        kept_ids = [ids[j] for j in order[:cut]]
        cum = list(accumulate([p / total for p in nucleus]))
        self._nucleus_slot = (key, kept_ids, cum)
        return kept_ids, cum

    def pick(self, config: SamplingConfig, rng: Splitmix64) -> int:
        """The greedy choice (ties toward the lower id), or one top-p draw
        using exactly one RNG float, by ``TokenDistribution.pick``'s rules."""
        if config.greedy:
            probs = self._sampled()
            return self.ids[probs.index(max(probs))]
        ids, cum = self._nucleus(config.temperature, config.top_p)
        return ids[min(bisect_right(cum, rng.next_float()), len(cum) - 1)]


def fuse_views(
    ps_k: TokenDistribution, pl_k: TokenDistribution, strategy: FusionStrategy
) -> tuple[FusedDistribution, float]:
    """``fuse`` of two sparse top-k views, in Python floats: the same
    blend, the same ids and the same weight, with no arrays built; a
    learnable strategy's net weighs the two views."""
    _shared_vocab_size(ps_k, pl_k)
    w = _weight(strategy, ps_k, pl_k)
    ids, a, b = _align(ps_k, pl_k)
    return FusedDistribution(ids, blend(a, b, w)), 0.5 if w is None else w


def blend_step(
    p_s: TokenDistribution, p_l: TokenDistribution, strategy: FusionStrategy
) -> tuple[FusedDistribution, float, TokenDistribution, TokenDistribution]:
    """One fused step: both sources' top-k views, weighed and blended by
    ``fuse_views``. Returns the fused distribution, the weight used, and
    the small and large top-k views.

    The step is memoized on the large side's distribution, keyed by the
    strategy's kind and weight and the small side's identity, and read
    before any view is cut. The entry holds the small side, so no other
    distribution takes that id while the entry lives, the strategy's net,
    whose identity a hit must match, and the step's answer with both
    views. The distributions and the net never change, so a hit returns
    the bits the step would compute. A local backend's distributions live
    in its memo, so a recurring pair of histories reuses one blend and its
    cached nucleus. A large side that is its own top-k view, as a remote
    reply is, gets no memo: its entry would hold the side itself, which
    is new at every call, so no step would read it. A large side holds at
    most one entry per small side and strategy it was blended with, and
    at most ``FUSED_MEMO_CAP`` in all: a miss on a full memo stores
    nothing.
    """
    memo = p_l._fused
    key = (strategy.kind, strategy.w, id(p_s))
    if memo is not None:
        hit = memo.get(key)
        if hit is not None and hit[1] is strategy.model:
            return hit[2]
    ps_k, pl_k = top_k_views(p_s, p_l)
    fused, w = fuse_views(ps_k, pl_k, strategy)
    step = fused, w, ps_k, pl_k
    if pl_k is not p_l:
        if memo is None:
            memo = {}
            object.__setattr__(p_l, "_fused", memo)
        if len(memo) < FUSED_MEMO_CAP:
            memo[key] = (p_s, strategy.model, step)
    return step
