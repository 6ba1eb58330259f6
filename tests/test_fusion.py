"""Blending two distributions: alignment, the four strategies, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogen.core import DENSE_SUM_TOL, TokenDistribution, softmax, top_k_project
from cogen.errors import IncompatibleVocabError, InvalidConfigError, InvalidInputError
from cogen.fusion import AlignedPair, FusionStrategy, align_supports, fuse


def dense_pair(p_s, p_l):
    return align_supports(TokenDistribution.dense(p_s), TokenDistribution.dense(p_l))


random_dense = st.lists(
    st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=24
).map(lambda ws: (np.array(ws) / np.sum(ws)).tolist())


class TestAlignSupports:
    def test_dense_passthrough_is_lossless(self):
        a = softmax([1.0, 2.0, 3.0])
        b = softmax([3.0, 2.0, 1.0])
        pair = align_supports(a, b)
        assert pair.support.tolist() == [0, 1, 2]
        assert np.array_equal(pair.p_s, a.dense_probs)
        assert np.array_equal(pair.p_l, b.dense_probs)

    def test_disjoint_sparse_union(self):
        a = TokenDistribution.sparse([0], [0.9], vocab_size=4)
        b = TokenDistribution.sparse([1], [0.8], vocab_size=4)
        pair = align_supports(a, b)
        assert pair.support.tolist() == [0, 1]
        assert pair.p_s.tolist() == [0.9, 0.0]
        assert pair.p_l.tolist() == [0.0, 0.8]

    def test_overlapping_supports_union_once(self):
        a = TokenDistribution.sparse([2, 0], [0.5, 0.3], vocab_size=5)
        b = TokenDistribution.sparse([2, 4], [0.6, 0.2], vocab_size=5)
        pair = align_supports(a, b)
        assert pair.support.tolist() == [0, 2, 4]
        assert pair.p_s.tolist() == [0.3, 0.5, 0.0]
        assert pair.p_l.tolist() == [0.0, 0.6, 0.2]

    def test_vocab_mismatch_rejected(self):
        a = TokenDistribution.dense([0.5, 0.5])
        b = TokenDistribution.dense([0.4, 0.3, 0.3])
        with pytest.raises(IncompatibleVocabError):
            align_supports(a, b)


class TestFusionStrategy:
    def test_fixed_weight_bounds(self):
        with pytest.raises(InvalidConfigError):
            FusionStrategy.fixed(1.5)
        with pytest.raises(InvalidConfigError):
            FusionStrategy.fixed(-0.1)

    def test_learnable_needs_model(self):
        with pytest.raises(InvalidConfigError):
            FusionStrategy(kind="learnable")


class TestFuse:
    def test_endpoint_one_is_small_model_bitwise(self):
        a = softmax([0.3, 1.7, -2.0, 0.4])
        b = softmax([1.0, -1.0, 0.5, 0.2])
        fused, w = fuse(align_supports(a, b), FusionStrategy.fixed(1.0))
        assert w == 1.0
        assert np.array_equal(fused.dense_probs, a.dense_probs)

    def test_endpoint_zero_is_large_model_bitwise(self):
        a = softmax([0.3, 1.7, -2.0, 0.4])
        b = softmax([1.0, -1.0, 0.5, 0.2])
        fused, w = fuse(align_supports(a, b), FusionStrategy.fixed(0.0))
        assert w == 0.0
        assert np.array_equal(fused.dense_probs, b.dense_probs)

    def test_forced_arithmetic_at_half(self):
        fused, w = fuse(dense_pair([0.6, 0.4], [0.2, 0.8]), FusionStrategy.fixed(0.5))
        assert w == 0.5
        assert fused.dense_probs.tolist() == pytest.approx([0.4, 0.6], abs=1e-15)

    def test_max_rule_forced_arithmetic(self):
        fused, _ = fuse(dense_pair([0.6, 0.4], [0.2, 0.8]), FusionStrategy.max_pool())
        assert fused.dense_probs.tolist() == pytest.approx([3 / 7, 4 / 7], abs=1e-12)

    def test_mean_equals_fixed_half_exactly(self):
        pair = dense_pair([0.1, 0.7, 0.2], [0.5, 0.25, 0.25])
        a, _ = fuse(pair, FusionStrategy.mean())
        b, _ = fuse(pair, FusionStrategy.fixed(0.5))
        assert np.array_equal(a.dense_probs, b.dense_probs)

    def test_sparse_fusion_renormalizes_over_union(self):
        a = TokenDistribution.sparse([0], [0.6], vocab_size=4)
        b = TokenDistribution.sparse([1], [0.2], vocab_size=4)
        fused, _ = fuse(align_supports(a, b), FusionStrategy.fixed(0.5))
        assert fused.mass == pytest.approx(1.0, abs=1e-12)
        assert fused.prob_of(0) == pytest.approx(0.75)
        assert fused.prob_of(1) == pytest.approx(0.25)

    def test_learnable_requires_override(self):
        pair = dense_pair([0.5, 0.5], [0.5, 0.5])
        strategy = FusionStrategy.learnable(model=object())
        with pytest.raises(InvalidInputError):
            fuse(pair, strategy)
        fused, w = fuse(pair, strategy, w_override=0.25)
        assert w == 0.25

    def test_empty_support_rejected(self):
        pair = AlignedPair(
            support=np.array([], dtype=np.int64),
            p_s=np.array([]),
            p_l=np.array([]),
            vocab_size=4,
        )
        with pytest.raises(InvalidInputError):
            fuse(pair, FusionStrategy.mean())

    @given(random_dense, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_normalization_and_convexity(self, probs, w):
        rng = np.random.default_rng(0)
        other = rng.random(len(probs))
        other /= other.sum()
        pair = dense_pair(probs, other.tolist())
        fused, _ = fuse(pair, FusionStrategy.fixed(w))
        assert abs(fused.mass - 1.0) < 1e-9
        lo = np.minimum(pair.p_s, pair.p_l) - 1e-12
        hi = np.maximum(pair.p_s, pair.p_l) + 1e-12
        assert np.all(fused.dense_probs >= lo) and np.all(fused.dense_probs <= hi)

    @given(random_dense)
    @settings(max_examples=200, deadline=None)
    def test_max_dominates_both(self, probs):
        rng = np.random.default_rng(1)
        other = rng.random(len(probs))
        other /= other.sum()
        pair = dense_pair(probs, other.tolist())
        pre = np.maximum(pair.p_s, pair.p_l).sum()
        assert pre >= max(pair.p_s.sum(), pair.p_l.sum()) - 1e-12
        fused, w = fuse(pair, FusionStrategy.max_pool())
        assert w == 0.5
        assert abs(fused.mass - 1.0) < 1e-9


# Repeated weights make ties; zeros put unmentioned ids inside a top-k cut.
TIED_WEIGHTS = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(min_value=0.01, max_value=1.0))


@st.composite
def source_distribution(draw, vocab_size, form):
    """A normalized dense distribution, or a sparse top-k cut of one whose
    kept mass may be scaled down further."""
    weights = np.array(draw(st.lists(TIED_WEIGHTS, min_size=vocab_size, max_size=vocab_size)))
    if not weights.any():
        weights[draw(st.integers(0, vocab_size - 1))] = 1.0
    dense = TokenDistribution.dense(weights / weights.sum())
    if form == "dense":
        return dense
    view = top_k_project(dense, draw(st.integers(1, vocab_size)))
    scale = draw(st.sampled_from([1.0, 0.9, 0.3]))
    return TokenDistribution.sparse(view.sparse_ids, view.sparse_probs * scale, vocab_size)


@st.composite
def fusion_pairs(draw, forms=st.sampled_from(["dense", "sparse"])):
    vocab_size = draw(st.integers(2, 30))
    return (
        draw(source_distribution(vocab_size, draw(forms))),
        draw(source_distribution(vocab_size, draw(forms))),
    )


STRATEGIES = st.one_of(
    st.floats(min_value=0.0, max_value=1.0).map(FusionStrategy.fixed),
    st.just(FusionStrategy.mean()),
    st.just(FusionStrategy.max_pool()),
    st.just(FusionStrategy.learnable(model=object())),
)


@given(fusion_pairs(), STRATEGIES, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_fuse_normalizes_and_orders_any_pair(pair, strategy, w):
    """Over random sparse and dense pairs and every strategy, the fused
    mass is 1, entries are non-negative, and a sparse result lists its
    union support by descending probability, ties toward the lower id."""
    aligned = align_supports(*pair)
    fused, _ = fuse(aligned, strategy, w_override=w)
    assert abs(fused.mass - 1.0) <= DENSE_SUM_TOL
    if fused.is_dense:
        assert fused.vocab_size == aligned.vocab_size == aligned.support.size
        assert (fused.dense_probs >= 0).all()
        return
    assert (fused.sparse_probs >= 0).all()
    assert sorted(fused.sparse_ids.tolist()) == aligned.support.tolist()
    keys = [(-p, i) for p, i in zip(fused.sparse_probs.tolist(), fused.sparse_ids.tolist())]
    assert keys == sorted(keys)


@given(fusion_pairs(forms=st.just("dense")))
@settings(max_examples=200, deadline=None)
def test_fuse_endpoints_return_a_dense_input_bitwise(pair):
    p_s, p_l = pair
    aligned = align_supports(p_s, p_l)
    learnable = FusionStrategy.learnable(model=object())
    for w, chosen in ((1.0, p_s), (0.0, p_l)):
        for strategy in (FusionStrategy.fixed(w), learnable):
            fused, used = fuse(aligned, strategy, w_override=w)
            assert used == w
            assert fused.dense_probs.tobytes() == chosen.dense_probs.tobytes()
