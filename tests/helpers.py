"""Test-only data builders shared across modules."""

from __future__ import annotations

import numpy as np

from cogen.combmodel import CombExample
from cogen.core import DENSE_SUM_TOL, TokenDistribution, top_k_project
from cogen.errors import InvalidInputError
from cogen.rng import Splitmix64


def one_sided_examples(seed: int, count: int, vocab: int = 12, mirrored: bool = False):
    """Supervision where the target always follows the peaked source.

    The small side is a random peaked distribution whose argmax is the
    gold token; the large side is uniform. ``mirrored`` swaps the roles.
    Each view holds the whole vocabulary, so the example aligns over all
    of it.
    """
    rng = Splitmix64(seed)
    out = []
    for _ in range(count):
        raw = np.array([rng.next_float() for _ in range(vocab)])
        peaked = raw**4
        peaked /= peaked.sum()
        uniform = np.full(vocab, 1.0 / vocab)
        target = int(np.argmax(peaked))
        p_peaked = TokenDistribution.dense(peaked)
        p_uniform = TokenDistribution.dense(uniform)
        p_s, p_l = (p_uniform, p_peaked) if mirrored else (p_peaked, p_uniform)
        out.append(CombExample(top_k_project(p_s, vocab), top_k_project(p_l, vocab), target))
    return out


def random_comb_example(rng: np.random.Generator, vocab: int = 30, k: int = 6) -> CombExample:
    """An example of two random sparse views with a positive-mass target."""
    ids_s = np.sort(rng.choice(vocab, size=k, replace=False))
    ids_l = np.sort(rng.choice(vocab, size=k, replace=False))
    ps = rng.random(k)
    ps = ps / ps.sum() * rng.uniform(0.6, 1.0)
    pl = rng.random(k)
    pl = pl / pl.sum() * rng.uniform(0.6, 1.0)
    order_s, order_l = np.argsort(-ps), np.argsort(-pl)
    dist_s = TokenDistribution(vocab_size=vocab, sparse_ids=ids_s[order_s], sparse_probs=ps[order_s])
    dist_l = TokenDistribution(vocab_size=vocab, sparse_ids=ids_l[order_l], sparse_probs=pl[order_l])
    support = np.union1d(ids_s, ids_l)
    mass = np.zeros(vocab)
    mass[ids_s] += ps
    mass[ids_l] += pl
    candidates = support[mass[support] > 1e-6]
    target = int(candidates[rng.integers(len(candidates))])
    return CombExample(dist_s, dist_l, target)


def perturbed_params(params, rng: np.random.Generator, scale: float = 0.05):
    """Fresh parameters jittered around ``params`` for gradient checking."""
    from cogen.combmodel import CombModelParams

    arrays = [np.array(a) + rng.normal(0, scale, a.shape) for a in params.arrays()]
    return CombModelParams(
        w1=arrays[0], b1=arrays[1], w2=arrays[2], b2=arrays[3], w3=arrays[4], b3=arrays[5],
        seed=params.seed,
    )


def numpy_fused_chain(ps_k: TokenDistribution, pl_k: TokenDistribution, w: float | None):
    """The fused step as numpy arrays, the reference for the scalar path.

    It aligns two sparse views on the union of their ids, blends them
    (``w`` None takes the elementwise maximum) and normalizes, orders the
    result by descending probability with ties toward the lower id, and
    spreads it over the vocabulary divided by its mass. Returns the fused
    distribution (sparse unless the union is the whole vocabulary) and
    the dense one that ``core._nucleus`` and ``argmax_token`` read.
    """
    size = ps_k.vocab_size
    ids = np.union1d(ps_k.sparse_ids, pl_k.sparse_ids)
    a = np.zeros(ids.size)
    b = np.zeros(ids.size)
    a[np.searchsorted(ids, ps_k.sparse_ids)] = ps_k.sparse_probs
    b[np.searchsorted(ids, pl_k.sparse_ids)] = pl_k.sparse_probs
    vec = np.maximum(a, b) if w is None else w * a + (1.0 - w) * b
    total = vec.sum()
    if total <= 0:
        raise InvalidInputError("fused distribution has no mass")
    if abs(total - 1.0) > DENSE_SUM_TOL:
        vec = vec / total
    if ids.size == size:
        fused = TokenDistribution(vocab_size=size, dense_probs=vec)
        return fused, fused
    order = np.argsort(-vec, kind="stable")
    fused = TokenDistribution(
        vocab_size=size, sparse_ids=ids[order].astype(np.int64), sparse_probs=vec[order]
    )
    dense = TokenDistribution(vocab_size=size, dense_probs=fused.to_dense_array() / fused.mass)
    return fused, dense
