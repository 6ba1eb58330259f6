"""Combining two next-token distributions into one.

Four strategies: a fixed convex weight, mean pooling (weight 0.5), max
pooling (elementwise maximum), and a learnable weight supplied per step
by the trained weight network. Convex combination happens over the union
support of the two inputs; whenever truncation has shaved mass off, the
result is renormalized so downstream sampling always sees a proper
distribution. Dense, already-normalized inputs pass through untouched,
which keeps the weight-1 and weight-0 endpoints exact to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DENSE_SUM_TOL, TokenDistribution, top_k_project
from .errors import IncompatibleVocabError, InvalidConfigError, InvalidInputError


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


def align_supports(p_s: TokenDistribution, p_l: TokenDistribution) -> AlignedPair:
    """Express two distributions over their union support.

    Entries a source never mentioned are exactly zero. Dense inputs pass
    through losslessly (the union is then the whole vocabulary).
    """
    if p_s.vocab_size != p_l.vocab_size:
        raise IncompatibleVocabError(
            f"vocab sizes differ: {p_s.vocab_size} vs {p_l.vocab_size}"
        )
    size = p_s.vocab_size
    if p_s.is_dense and p_l.is_dense:
        support = np.arange(size, dtype=np.int64)
        return AlignedPair(support, np.array(p_s.dense_probs), np.array(p_l.dense_probs), size)
    if p_s.is_dense or p_l.is_dense:
        support = np.arange(size, dtype=np.int64)
        return AlignedPair(support, p_s.to_dense_array(), p_l.to_dense_array(), size)
    ids = np.union1d(p_s.sparse_ids, p_l.sparse_ids)
    out_s = np.zeros(ids.size, dtype=np.float64)
    out_l = np.zeros(ids.size, dtype=np.float64)
    out_s[np.searchsorted(ids, p_s.sparse_ids)] = p_s.sparse_probs
    out_l[np.searchsorted(ids, p_l.sparse_ids)] = p_l.sparse_probs
    return AlignedPair(ids.astype(np.int64), out_s, out_l, size)


def top_k_pair(
    p_s: TokenDistribution, p_l: TokenDistribution, k: int
) -> tuple[TokenDistribution, TokenDistribution, AlignedPair]:
    """Both sources' top-k views and their alignment.

    A sparse input already is a truncated view and passes through
    unchanged; a dense one is cut to its k highest entries.
    """
    ps_k = p_s if p_s.is_sparse else top_k_project(p_s, k)
    pl_k = p_l if p_l.is_sparse else top_k_project(p_l, k)
    return ps_k, pl_k, align_supports(ps_k, pl_k)


def _normalize(vec: np.ndarray) -> np.ndarray:
    """Renormalize unless the mass already counts as normalized.

    Skipping the division when the mass is within the dense-validation
    tolerance keeps convex combinations of clean dense inputs bit-exact
    (a weight of 1 really returns the first operand unchanged).
    """
    total = vec.sum()
    if total <= 0:
        raise InvalidInputError("fused distribution has no mass")
    if abs(total - 1.0) <= DENSE_SUM_TOL:
        return vec
    return vec / total


def blend(pair: AlignedPair, w: float) -> np.ndarray:
    """w*p_s + (1-w)*p_l over the pair's support, normalized: the vector
    every convex fusion samples from and the weight net's loss reads."""
    return _normalize(w * pair.p_s + (1.0 - w) * pair.p_l)


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


def fuse(
    pair: AlignedPair,
    strategy: FusionStrategy,
    w_override: float | None = None,
) -> tuple[TokenDistribution, float]:
    """Blend the aligned pair and report the weight that was used.

    Convex strategies compute w*p_s + (1-w)*p_l; max pooling takes the
    elementwise maximum. Max pooling has no single blend weight, so its
    recorded weight is the neutral 0.5.
    """
    if pair.support.size == 0:
        raise InvalidInputError("cannot fuse over an empty support")
    if strategy.kind == "max":
        fused = np.maximum(pair.p_s, pair.p_l)
        return _to_distribution(pair, _normalize(fused)), 0.5
    if strategy.kind == "mean":
        w = 0.5
    elif strategy.kind == "fixed":
        w = float(strategy.w)
    else:  # learnable: the weight network ran upstream
        if w_override is None:
            raise InvalidInputError("learnable fusion requires w_override from the weight model")
        w = float(w_override)
    if not (0.0 <= w <= 1.0):
        raise InvalidInputError(f"fusion weight {w} outside [0, 1]")
    return _to_distribution(pair, blend(pair, w)), w
