"""Blending two distributions in the fused step: the union of the two
views, the four strategies, invariants.

Every test but one runs ``fuse_views``, the blend decode samples from;
that one checks that ``fuse`` refuses a learnable strategy. A dense
input enters as its full-length view, ``top_k_project(p, size)``, so the
union is the whole vocabulary and the blend can be read id by id.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogen.core import DENSE_SUM_TOL, SamplingConfig, TokenDistribution, top_k_project
from cogen.errors import (
    IncompatibleVocabError,
    InvalidConfigError,
    InvalidDistributionError,
    InvalidInputError,
)
from cogen.fusion import FusionStrategy, align_supports, blend, fuse, fuse_views
from cogen.rng import Splitmix64
from helpers import ConstantNet, softmax


def full_view(dist: TokenDistribution) -> TokenDistribution:
    """A dense distribution's view over its whole vocabulary; a sparse
    one as it is."""
    return top_k_project(dist, dist.vocab_size) if dist.is_dense else dist


def fuse_dense(p_s, p_l, strategy):
    a, b = TokenDistribution.dense(p_s), TokenDistribution.dense(p_l)
    return fuse_views(full_view(a), full_view(b), strategy)


random_dense = st.lists(
    st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=24
).map(lambda ws: (np.array(ws) / np.sum(ws)).tolist())


class TestAlignSupports:
    def test_dense_passthrough_is_lossless(self):
        a = softmax([1.0, 2.0, 3.0])
        b = softmax([3.0, 2.0, 1.0])
        for w, chosen in ((1.0, a), (0.0, b)):
            fused, _ = fuse_views(full_view(a), full_view(b), FusionStrategy.fixed(w))
            assert fused.ids == [0, 1, 2]
            assert np.array(fused.probs).tobytes() == chosen.dense_probs.tobytes()

    def test_disjoint_sparse_union(self):
        a = TokenDistribution.sparse([0], [0.9], vocab_size=4)
        b = TokenDistribution.sparse([1], [0.8], vocab_size=4)
        fused, _ = fuse_views(a, b, FusionStrategy.fixed(0.5))
        assert fused.ids == [0, 1]
        assert fused.probs == blend([0.9, 0.0], [0.0, 0.8], 0.5)

    def test_overlapping_supports_union_once(self):
        a = TokenDistribution.sparse([2, 0], [0.5, 0.3], vocab_size=5)
        b = TokenDistribution.sparse([2, 4], [0.6, 0.2], vocab_size=5)
        fused, _ = fuse_views(a, b, FusionStrategy.fixed(0.5))
        assert fused.ids == [0, 2, 4]
        assert fused.probs == blend([0.3, 0.5, 0.0], [0.0, 0.6, 0.2], 0.5)

    def test_vocab_mismatch_rejected(self):
        a = full_view(TokenDistribution.dense([0.5, 0.5]))
        b = full_view(TokenDistribution.dense([0.4, 0.3, 0.3]))
        with pytest.raises(IncompatibleVocabError):
            fuse_views(a, b, FusionStrategy.mean())


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
        fused, w = fuse_views(full_view(a), full_view(b), FusionStrategy.fixed(1.0))
        assert w == 1.0
        assert np.array(fused.probs).tobytes() == a.dense_probs.tobytes()

    def test_endpoint_zero_is_large_model_bitwise(self):
        a = softmax([0.3, 1.7, -2.0, 0.4])
        b = softmax([1.0, -1.0, 0.5, 0.2])
        fused, w = fuse_views(full_view(a), full_view(b), FusionStrategy.fixed(0.0))
        assert w == 0.0
        assert np.array(fused.probs).tobytes() == b.dense_probs.tobytes()

    def test_forced_arithmetic_at_half(self):
        fused, w = fuse_dense([0.6, 0.4], [0.2, 0.8], FusionStrategy.fixed(0.5))
        assert w == 0.5
        assert fused.probs == pytest.approx([0.4, 0.6], abs=1e-15)

    def test_max_rule_forced_arithmetic(self):
        fused, _ = fuse_dense([0.6, 0.4], [0.2, 0.8], FusionStrategy.max_pool())
        assert fused.probs == pytest.approx([3 / 7, 4 / 7], abs=1e-12)

    def test_mean_equals_fixed_half_exactly(self):
        pair = ([0.1, 0.7, 0.2], [0.5, 0.25, 0.25])
        a, _ = fuse_dense(*pair, FusionStrategy.mean())
        b, _ = fuse_dense(*pair, FusionStrategy.fixed(0.5))
        assert a.probs == b.probs

    def test_sparse_fusion_renormalizes_over_union(self):
        a = TokenDistribution.sparse([0], [0.6], vocab_size=4)
        b = TokenDistribution.sparse([1], [0.2], vocab_size=4)
        fused, _ = fuse_views(a, b, FusionStrategy.fixed(0.5))
        assert math.fsum(fused.probs) == pytest.approx(1.0, abs=1e-12)
        assert fused.prob_of(0) == pytest.approx(0.75)
        assert fused.prob_of(1) == pytest.approx(0.25)

    def test_a_learnable_strategy_blends_with_its_nets_weight(self):
        fused, w = fuse_dense([0.5, 0.5], [0.5, 0.5], FusionStrategy.learnable(ConstantNet(0.25)))
        assert w == 0.25

    def test_fuse_refuses_a_learnable_strategy(self):
        # The net reads the top-k views, which an aligned pair no longer holds.
        a = TokenDistribution.sparse([0], [0.9], vocab_size=4)
        b = TokenDistribution.sparse([1], [0.8], vocab_size=4)
        with pytest.raises(InvalidInputError, match="^fuse takes no learnable strategy"):
            fuse(align_supports(a, b), FusionStrategy.learnable(ConstantNet(0.5)))

    @pytest.mark.parametrize("w", [1.5, math.nan])
    def test_a_learnable_weight_outside_the_unit_interval_is_rejected(self, w):
        strategy = FusionStrategy.learnable(ConstantNet(w))
        with pytest.raises(InvalidInputError, match=re.escape(f"fusion weight {w} outside [0, 1]")):
            fuse_dense([0.5, 0.5], [0.5, 0.5], strategy)

    def test_a_vanishing_temperature_leaves_no_support(self):
        # At 1e-310 every log-probability below 0 divides to -inf, and the
        # fused pick raises what the dense pick raises.
        config = SamplingConfig(temperature=1e-310, top_p=0.9)
        fused, _ = fuse_dense([0.5, 0.5], [0.5, 0.5], FusionStrategy.mean())
        for dist in (fused, TokenDistribution.dense([0.5, 0.5])):
            with pytest.raises(InvalidDistributionError, match="^distribution has no support$"):
                dist.pick(config, Splitmix64(0))

    def test_empty_support_rejected(self):
        # A union that holds no mass leaves nothing to sample.
        a = TokenDistribution.sparse([0], [0.0], vocab_size=4)
        b = TokenDistribution.sparse([1], [0.0], vocab_size=4)
        with pytest.raises(InvalidInputError, match="no mass"):
            fuse_views(a, b, FusionStrategy.mean())

    @given(random_dense, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_normalization_and_convexity(self, probs, w):
        rng = np.random.default_rng(0)
        other = rng.random(len(probs))
        other /= other.sum()
        fused, _ = fuse_dense(probs, other.tolist(), FusionStrategy.fixed(w))
        assert abs(math.fsum(fused.probs) - 1.0) < 1e-9
        got = np.array(fused.probs)
        assert np.all(got >= np.minimum(probs, other) - 1e-12)
        assert np.all(got <= np.maximum(probs, other) + 1e-12)

    @given(random_dense)
    @settings(max_examples=200, deadline=None)
    def test_max_dominates_both(self, probs):
        rng = np.random.default_rng(1)
        other = rng.random(len(probs))
        other /= other.sum()
        pre = np.maximum(probs, other).sum()
        assert pre >= max(np.sum(probs), other.sum()) - 1e-12
        fused, w = fuse_dense(probs, other.tolist(), FusionStrategy.max_pool())
        assert w == 0.5
        assert abs(math.fsum(fused.probs) - 1.0) < 1e-9


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
    return TokenDistribution.sparse(view.sparse_ids, [p * scale for p in view.sparse_probs], vocab_size)


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
    st.floats(min_value=0.0, max_value=1.0).map(lambda w: FusionStrategy.learnable(ConstantNet(w))),
)


@given(fusion_pairs(), STRATEGIES)
@settings(max_examples=300, deadline=None)
def test_fuse_normalizes_and_orders_any_pair(pair, strategy):
    """Over random sparse and dense pairs and every strategy, the fused
    mass is 1, entries are non-negative, the ids are the ascending union
    of both views', and the greedy pick is the most probable id, ties
    toward the lower one."""
    ps_k, pl_k = map(full_view, pair)
    fused, _ = fuse_views(ps_k, pl_k, strategy)
    assert abs(math.fsum(fused.probs) - 1.0) <= DENSE_SUM_TOL
    assert all(p >= 0 for p in fused.probs)
    union = set(ps_k.sparse_ids) | set(pl_k.sparse_ids)
    assert fused.ids == sorted(union) and len(fused.probs) == len(union)
    top = max(fused.probs)
    want = min(i for i, p in zip(fused.ids, fused.probs) if p == top)
    assert fused.pick(SamplingConfig(greedy=True), Splitmix64(0)) == want


@given(fusion_pairs(forms=st.just("dense")))
@settings(max_examples=200, deadline=None)
def test_fuse_endpoints_return_a_dense_input_bitwise(pair):
    p_s, p_l = pair
    for w, chosen in ((1.0, p_s), (0.0, p_l)):
        for strategy in (FusionStrategy.fixed(w), FusionStrategy.learnable(ConstantNet(w))):
            fused, used = fuse_views(full_view(p_s), full_view(p_l), strategy)
            assert used == w
            assert np.array(fused.probs).tobytes() == chosen.dense_probs.tobytes()
