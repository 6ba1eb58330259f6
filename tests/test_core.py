"""Sampling primitives: softmax, temperature, nucleus cut, top-k cut."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogen.core import (
    SamplingConfig,
    TokenDistribution,
    Vocab,
    argmax_token,
    sample_top_p,
    top_k_project,
)
from cogen.errors import (
    InvalidConfigError,
    InvalidDistributionError,
    InvalidInputError,
)
from cogen.rng import Splitmix64
from helpers import FixedDraw, softmax

finite_logits = st.lists(
    st.floats(min_value=-60, max_value=60, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0, 0]).dense_probs, [0.5, 0.5])

    def test_shift_invariance(self):
        low = softmax([5, 5, 5]).dense_probs
        high = softmax([105, 105, 105]).dense_probs
        assert np.array_equal(low, high)

    def test_reference_values(self):
        # expected values computed independently with exp()/sum at high precision
        probs = softmax([1, 2, 3]).dense_probs
        assert probs == pytest.approx([0.09003057317038046, 0.24472847105479767, 0.6652409557748219], abs=1e-12)

    def test_overflow_safety(self):
        probs = softmax([1000.0, 999.0]).dense_probs
        assert np.isfinite(probs).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            softmax([1.0, float("nan")])
        with pytest.raises(InvalidInputError):
            softmax([1.0, float("inf")])
        with pytest.raises(InvalidInputError):
            softmax([])

    @given(finite_logits)
    @settings(max_examples=200, deadline=None)
    def test_always_normalized(self, logits):
        dist = softmax(logits)
        assert abs(float(np.sum(dist.dense_probs)) - 1.0) < 1e-12
        assert np.all(dist.dense_probs >= 0)

    @given(finite_logits)
    @settings(max_examples=100, deadline=None)
    def test_order_preserving(self, logits):
        # monotone along the logit order (underflow can merge the far tail
        # into equal probabilities, so strictness only holds pairwise where
        # the outputs stay distinguishable)
        arr = np.asarray(logits, dtype=np.float64)
        probs = softmax(logits).dense_probs
        order = np.argsort(-arr, kind="stable")
        assert np.all(np.diff(probs[order]) <= 0)

    def test_order_strict_when_distinguishable(self):
        probs = softmax([3.0, 1.0, 2.0]).dense_probs
        assert probs[0] > probs[2] > probs[1]


    def test_low_temperature_sharpens_to_argmax(self):
        dist = softmax(np.array([1.0, 2.0, 3.0]) / 1e-3)
        assert dist.dense_probs[2] > 0.999999


class TestSamplingConfig:
    def test_defaults(self):
        cfg = SamplingConfig()
        assert cfg.temperature == 0.7
        assert cfg.top_p == 0.9
        assert cfg.max_new_tokens == 1024

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": 0.0},
            {"temperature": -1.0},
            {"top_p": 0.0},
            {"top_p": 1.2},
            {"max_new_tokens": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfigError):
            SamplingConfig(**kwargs)


class TestSampleTopP:
    def test_support_restricted_to_nucleus(self):
        dist = TokenDistribution.dense([0.5, 0.3, 0.2])
        cfg = SamplingConfig(temperature=1.0, top_p=0.7, seed=1)
        rng = Splitmix64(1)
        picks = {sample_top_p(dist, cfg, rng) for _ in range(500)}
        assert picks <= {0, 1}

    def test_degenerate_low_temperature_is_argmax(self):
        dist = TokenDistribution.dense([0.2, 0.5, 0.3])
        cfg = SamplingConfig(temperature=1e-4, top_p=1.0, seed=3)
        rng = Splitmix64(3)
        assert all(sample_top_p(dist, cfg, rng) == 1 for _ in range(50))

    def test_monte_carlo_matches_renormalized_nucleus(self):
        # independent oracle: the stated rule gives nucleus {0, 1} with
        # renormalized masses 0.625 / 0.375
        dist = TokenDistribution.dense([0.5, 0.3, 0.2])
        cfg = SamplingConfig(temperature=1.0, top_p=0.7, seed=42)
        rng = Splitmix64(42)
        counts = Counter(sample_top_p(dist, cfg, rng) for _ in range(10_000))
        assert counts[2] == 0
        assert counts[0] / 10_000 == pytest.approx(0.625, abs=0.02)
        assert counts[1] / 10_000 == pytest.approx(0.375, abs=0.02)

    def test_deterministic_given_rng_state(self):
        dist = TokenDistribution.dense([0.4, 0.3, 0.2, 0.1])
        cfg = SamplingConfig(seed=9)
        a = [sample_top_p(dist, cfg, Splitmix64(i)) for i in range(30)]
        b = [sample_top_p(dist, cfg, Splitmix64(i)) for i in range(30)]
        assert a == b

    def test_tie_break_prefers_lower_id(self):
        dist = TokenDistribution.dense([0.25, 0.25, 0.25, 0.25])
        cfg = SamplingConfig(temperature=1.0, top_p=0.5, seed=0)
        picks = {sample_top_p(dist, cfg, Splitmix64(i)) for i in range(200)}
        assert picks <= {0, 1}

    def test_top_p_one_never_picks_a_zero_probability_id(self):
        # The ten positive entries sum to 1 - 2**-53, just under a top_p of
        # 1, so a cut by top_p alone reached the zeros; Splitmix64 can draw
        # 1 - 2**-53, which then picked id 15, of probability 0.
        dist = TokenDistribution.dense([0.1] * 10 + [0.0] * 6)
        cfg = SamplingConfig(temperature=1.0, top_p=1.0)
        assert sample_top_p(dist, cfg, FixedDraw(math.nextafter(1.0, 0.0))) == 9
        assert sample_top_p(dist, cfg, FixedDraw(0.0)) == 0

    def test_rejects_sparse_and_unnormalized(self):
        sparse = TokenDistribution.sparse([0], [0.5], vocab_size=3)
        cfg = SamplingConfig()
        with pytest.raises(InvalidDistributionError):
            sample_top_p(sparse, cfg, Splitmix64(0))

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=16),
        st.floats(min_value=0.05, max_value=1.0),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_never_leaves_nucleus(self, weights, top_p, seed):
        probs = np.array(weights) / np.sum(weights)
        dist = TokenDistribution.dense(probs)
        cfg = SamplingConfig(temperature=1.0, top_p=top_p, seed=seed)
        token = sample_top_p(dist, cfg, Splitmix64(seed))
        order = np.lexsort((np.arange(probs.size), -probs))
        cut = int(np.searchsorted(np.cumsum(probs[order]), top_p, side="left")) + 1
        assert token in set(order[: min(cut, probs.size)].tolist())


class TestTopKProject:
    def test_no_truncation_when_k_covers_vocab(self):
        dist = TokenDistribution.dense([0.5, 0.3, 0.2])
        sparse = top_k_project(dist, 10)
        assert len(sparse.sparse_ids) == 3
        assert sparse.mass == pytest.approx(1.0, abs=1e-12)

    def test_forced_selection(self):
        sparse = top_k_project(TokenDistribution.dense([0.5, 0.3, 0.2]), 2)
        assert sparse.sparse_ids == (0, 1)
        assert sparse.sparse_probs == (0.5, 0.3)
        assert sparse.mass == pytest.approx(0.8)

    def test_tie_break_takes_lowest_id(self):
        sparse = top_k_project(TokenDistribution.dense([0.25] * 4), 1)
        assert sparse.sparse_ids == (0,)
        assert sparse.sparse_probs == (0.25,)

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidConfigError):
            top_k_project(TokenDistribution.dense([1.0, 0.0]), 0)

    def test_views_hold_python_ints_and_floats(self):
        dense = TokenDistribution.dense(np.array([0.1, 0.4, 0.2, 0.3]))
        sparse = TokenDistribution.sparse(np.array([3, 1, 0]), np.array([0.4, 0.3, 0.2]), vocab_size=4)
        for view in (top_k_project(dense, 2), top_k_project(sparse, 2), sparse):
            assert type(view.sparse_ids) is tuple and type(view.sparse_probs) is tuple
            assert {type(i) for i in view.sparse_ids} == {int}
            assert {type(p) for p in view.sparse_probs} == {float}
        assert top_k_project(dense, 2).sparse_ids == (1, 3)

    @given(finite_logits, st.integers(min_value=1, max_value=50))
    @settings(max_examples=150, deadline=None)
    def test_mass_monotone_in_k(self, logits, k):
        dist = softmax(logits)
        bigger = top_k_project(dist, k + 1).mass
        smaller = top_k_project(dist, k).mass
        assert smaller <= bigger + 1e-15
        assert top_k_project(dist, len(logits)).mass == pytest.approx(1.0, abs=1e-9)


class TestVocabDigest:
    @pytest.mark.parametrize(
        "tokens, eos_id, unk_id, digest",
        [
            (("A", "B", "C", "D", "</s>", "<unk>"), 4, 5, "8e0d3544bae54764"),
            (("A", "B", "C", "D", "</s>", "<unk>"), 5, 4, "3b57b871a6c4d4ed"),
            (("\u00e9", "B"), 0, 1, "8ed0900f3571ebd9"),
        ],
    )
    def test_digest_is_pinned(self, tokens, eos_id, unk_id, digest):
        # Handshakes compare these strings across processes and versions.
        vocab = Vocab(tokens=tokens, eos_id=eos_id, unk_id=unk_id)
        assert vocab.digest() == digest
        assert vocab.digest() is vocab.digest()


class TestArgmax:
    def test_lowest_id_wins_ties(self):
        assert argmax_token(TokenDistribution.dense([0.3, 0.3, 0.4])) == 2
        assert argmax_token(TokenDistribution.dense([0.4, 0.4, 0.2])) == 0


class TestTokenDistribution:
    def test_dense_validation(self):
        with pytest.raises(InvalidDistributionError):
            TokenDistribution.dense([0.5, 0.6])
        with pytest.raises(InvalidDistributionError):
            TokenDistribution.dense([1.5, -0.5])

    def test_sparse_validation(self):
        for ids, probs, message in [
            ([], [], "must be matching non-empty vectors"),
            ([0, 1], [0.5], "must be matching non-empty vectors"),
            ([[0, 1]], [[0.5, 0.4]], "must be matching non-empty vectors"),
            ([0], [math.nan], "must be finite"),
            ([0], [-0.25], r"must lie in \[0, 1\]"),
            ([0], [1.5], r"must lie in \[0, 1\]"),
            ([5], [0.5], "out of vocab range"),
            ([-1], [0.5], "out of vocab range"),
            ([0, 0], [0.5, 0.4], "must be unique"),
            ([0, 1], [0.3, 0.5], "sorted by descending probability"),
            ([0, 1], [0.6, 0.5], r"sparse mass 1\.1 exceeds 1"),
        ]:
            with pytest.raises(InvalidDistributionError, match=message):
                TokenDistribution.sparse(ids, probs, vocab_size=3)

    def test_prob_lookup_and_top1(self):
        sparse = TokenDistribution.sparse([3, 1], [0.6, 0.2], vocab_size=5)
        assert sparse.prob_of(3) == 0.6
        assert sparse.prob_of(0) == 0.0
        assert sparse.top1() == (3, 0.6)
        assert math.isclose(sparse.mass, 0.8)

    def test_to_dense_array(self):
        sparse = TokenDistribution.sparse([2, 0], [0.5, 0.25], vocab_size=4)
        assert sparse.to_dense_array().tolist() == [0.25, 0.0, 0.5, 0.0]
