"""The fused step in Python floats against the numpy chain it replaced.

``tests.helpers.numpy_fused_chain`` keeps that chain: align the two
top-k views, blend, order, and spread the result over the vocabulary for
``core._nucleus``. The scalar step must give the same ids, the same
blend bits and the same greedy pick. Its sampler takes its three sums
with ``math.fsum`` where the chain took numpy's, so the sampled values,
the nucleus's cumulative sums and every pick are held bit for bit to
``tests.helpers.fsum_sampler``, and the picks to the chain's wherever a
draw is not one of the chain's own cumulative sums. Tempering is the
other place the two may part: the scalar step calls
``math.log``/``math.exp``, and numpy's vectorized ones can differ from
those in the last bit on some CPUs, so the nucleus is compared with the
chain's wherever both give the same values.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cogen import core, fusion
from cogen.core import SamplingConfig, TokenDistribution, argmax_token, sample_top_p
from cogen.errors import InvalidInputError
from cogen.fusion import FusionStrategy, fuse_views
from helpers import ConstantNet, FixedDraw, fsum_pick, fsum_sampler, numpy_fused_chain, outcome

JUST_UNDER_ONE = math.nextafter(1.0, 0.0)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


# --- the pairwise sum --------------------------------------------------------

SUMMANDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 1e-300, 7.0, -3.5]),
    st.floats(min_value=-1e250, max_value=1e250, allow_nan=False),
)


@st.composite
def summand_lists(draw, size=None):
    """Probabilities of many scales, whose sums round differently under
    another grouping, with a few of hypothesis' own floats mixed in; of
    ``size`` entries, or of 0 to 300."""
    n = draw(st.integers(0, 300)) if size is None else size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = (rng.random(n) ** rng.integers(1, 8)).tolist()
    for _ in range(draw(st.integers(0, 4)) if n else 0):
        values[draw(st.integers(0, n - 1))] = draw(SUMMANDS)
    return values


@settings(max_examples=200, deadline=None)
@given(summand_lists())
@example([-0.0] * 9)
def test_pairwise_sum_matches_numpy(values):
    """Every length from 0 to 300 crosses the plain loop (under 8), the
    8 accumulators (up to 128) and the halving above that."""
    assert bits(core._pairwise_sum(values)) == bits(np.sum(np.array(values, dtype=np.float64)))


# --- the fused step ----------------------------------------------------------

# Ties and exact zeros are where orderings can part; the floats cover the rest.
WEIGHTS = st.one_of(
    st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, 7.0, 1e-300, 1e-12]),
    st.floats(min_value=1e-3, max_value=1.0),
)


@st.composite
def sparse_view(draw, vocab_size):
    """A top-k style view: unique ids, descending probabilities, mass <= 1."""
    size = draw(st.integers(1, min(vocab_size, 10)))
    ids = draw(st.permutations(range(vocab_size)))[:size]
    weights = np.array(draw(st.lists(WEIGHTS, min_size=size, max_size=size)))
    if weights.sum() > 0:
        weights = weights / weights.sum() * draw(st.sampled_from([1.0, 0.9, 0.5, 1e-3]))
    return TokenDistribution.sparse(ids, np.sort(weights)[::-1], vocab_size)


@st.composite
def view_pairs(draw):
    vocab_size = draw(st.integers(2, 40))
    return draw(sparse_view(vocab_size)), draw(sparse_view(vocab_size))


BLEND_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, math.nextafter(0.0, 1.0), JUST_UNDER_ONE]),
    st.floats(min_value=0.0, max_value=1.0),
)
KINDS = st.sampled_from(["fixed", "mean", "max", "learnable"])
TEMPERATURES = st.one_of(
    st.sampled_from([1e-3, 0.7, 1.0, 1.0, 1e3]),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
TOP_PS = st.sampled_from([0.05, 0.5, 0.9, 1.0])
DRAWS = st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=6)


def strategy_and_weight(kind: str, w: float):
    """The strategy and the weight the reference chain blends with (None
    for max pooling)."""
    if kind == "fixed":
        return FusionStrategy.fixed(w), w
    if kind == "mean":
        return FusionStrategy.mean(), 0.5
    if kind == "max":
        return FusionStrategy.max_pool(), None
    return FusionStrategy.learnable(ConstantNet(w)), w


def transcendentals_agree(probs: np.ndarray, temperature: float) -> bool:
    """Whether ``core._temper_probs``'s numpy log and exp give the bits
    ``math.log`` and ``math.exp`` give on the inputs it feeds them."""
    if temperature == 1.0:
        return True
    positive = probs > 0
    logs = np.log(probs[positive])
    if any(bits(x) != bits(math.log(p)) for x, p in zip(logs, probs[positive])):
        return False
    scaled = np.full(probs.size, -np.inf)
    scaled[positive] = logs / temperature
    shifted = scaled - scaled[np.isfinite(scaled)].max()
    return all(bits(x) == bits(math.exp(s)) for x, s in zip(np.exp(shifted), shifted))


EDGE_PAIR = (
    TokenDistribution.sparse([6, 0, 10], np.array([7.0, 7.0, 1.0]) / 15, 12),
    TokenDistribution.sparse([3, 6, 0], np.array([2.0, 2.0, 1.0]) / 5, 12),
)

# The mean of these views has an fsum mass of 1 - 2**-53 and a descending
# pairwise mass of 1.0. Divided by the fsum mass, its five largest entries
# run to just over a top_p of 0.9; in the chain they run to just under it,
# and the chain's nucleus takes a sixth.
MASS_EDGE_PAIR = (
    TokenDistribution.sparse([0, 1, 2, 3], np.array([1.0, 1.0, 1.0, 1.0]) / 4, 12),
    TokenDistribution.sparse([4, 5, 6, 7], np.array([7.0, 1.0, 1.0, 1.0]) / 10 * 0.5, 12),
)


@settings(max_examples=300, deadline=None)
@given(
    pair=view_pairs(),
    kind=KINDS,
    w=BLEND_WEIGHTS,
    temperature=TEMPERATURES,
    top_p=TOP_PS,
    draws=DRAWS,
)
@example(pair=EDGE_PAIR, kind="mean", w=0.5, temperature=1.0, top_p=1.0, draws=[])
@example(pair=MASS_EDGE_PAIR, kind="mean", w=0.5, temperature=1.0, top_p=0.9, draws=[])
def test_scalar_step_matches_numpy_chain(pair, kind, w, temperature, top_p, draws):
    ps_k, pl_k = pair
    strategy, chain_w = strategy_and_weight(kind, w)
    got = outcome(fuse_views, ps_k, pl_k, strategy)
    want = outcome(numpy_fused_chain, ps_k, pl_k, chain_w)
    assert got[1] == want[1]
    if want[1] is not None:
        return
    (fused, used), (ref, ref_dense) = got[0], want[0]
    assert used == (0.5 if chain_w is None else chain_w)

    # The blend: the same ids, the same bits.
    if ref.is_dense:
        ref_ids, ref_probs = np.arange(ref.vocab_size), ref.dense_probs
    else:
        by_id = np.argsort(ref.sparse_ids)
        ref_ids, ref_probs = np.array(ref.sparse_ids)[by_id], np.array(ref.sparse_probs)[by_id]
    assert fused.ids == ref_ids.tolist()
    assert np.array(fused.probs).tobytes() == ref_probs.tobytes()
    fsum_ref = outcome(fsum_sampler, fused.ids, fused.probs, temperature, top_p)
    if fsum_ref[1] is None:
        assert np.array(fused._sampled()).tobytes() == np.array(fsum_ref[0][0]).tobytes()
    for token_id in range(ref.vocab_size):
        assert bits(fused.prob_of(token_id)) == bits(ref.prob_of(token_id))

    greedy = SamplingConfig(greedy=True)
    assert fused.pick(greedy, FixedDraw(0.5)) == argmax_token(ref_dense)

    # The nucleus and the picks.
    config = SamplingConfig(temperature=temperature, top_p=top_p)
    nucleus = outcome(fused._nucleus, temperature, top_p)
    ref_nucleus = outcome(core._nucleus, ref_dense, temperature, top_p)
    assert nucleus[1] == ref_nucleus[1]
    assert nucleus[1] == fsum_ref[1]
    if ref_nucleus[1] is not None:
        return
    (ids, cum), (want_ids, want_cum) = nucleus[0], ref_nucleus[0]
    _, fsum_tempered, fsum_ids, fsum_cum = fsum_ref[0]
    assert ids == fsum_ids
    assert np.array(cum).tobytes() == np.array(fsum_cum).tobytes()
    exact = transcendentals_agree(ref_dense.dense_probs, temperature)
    tempered = core._temper_probs(ref_dense.dense_probs, temperature)
    if exact and tempered[fused.ids].tobytes() == np.array(fsum_tempered).tobytes():
        # Where the chain's mass and the fsum mass round apart, the
        # ranked values differ in the last bit, and a running sum may
        # reach top_p on one side only.
        assert ids == want_ids
    for u in draws + [0.0, JUST_UNDER_ONE] + want_cum:
        token = fused.pick(config, FixedDraw(u))
        assert token in ids and fused.prob_of(token) > 0
        assert token == fsum_pick(fsum_ids, fsum_cum, u)
        # A draw that falls between the chain's and the fsum cumulative
        # sum at some rank, one of the chain's own sums included, may
        # land on either side.
        splits = any((a <= u) != (b <= u) for a, b in zip(want_cum, cum))
        if ids == want_ids and not splits:
            assert token == sample_top_p(ref_dense, config, FixedDraw(u))


def test_top_p_one_never_picks_past_the_fused_support():
    """At top_p = 1 the tempered support of this blend sums to just under
    1 in the dense order. Both nuclei stop at the support, so a draw
    above that sum picks the support's least probable entry on both
    paths, never a zero-probability id."""
    fused, _ = fuse_views(*EDGE_PAIR, FusionStrategy.mean())
    _, ref_dense = numpy_fused_chain(*EDGE_PAIR, 0.5)
    config = SamplingConfig(temperature=1.0, top_p=1.0)
    ref_ids, ref_cum = core._nucleus(ref_dense, 1.0, 1.0)
    assert ref_cum[len(fused.ids) - 1] < 1.0 and len(ref_ids) == 4

    dense_pick = sample_top_p(ref_dense, config, FixedDraw(JUST_UNDER_ONE))
    assert ref_dense.prob_of(dense_pick) > 0.0
    assert dense_pick == fused.pick(config, FixedDraw(JUST_UNDER_ONE)) == 10
    assert fused._nucleus(1.0, 1.0)[0] == [6, 0, 3, 10]


@settings(max_examples=150, deadline=None)
@given(pair=view_pairs(), kind=KINDS, w=BLEND_WEIGHTS, temperature=TEMPERATURES)
def test_top_p_one_draw_just_under_one_stays_in_the_support(pair, kind, w, temperature):
    strategy, _ = strategy_and_weight(kind, w)
    try:
        fused, _ = fuse_views(*pair, strategy)
    except InvalidInputError:
        return  # a blend with no mass
    config = SamplingConfig(temperature=temperature, top_p=1.0)
    token = fused.pick(config, FixedDraw(JUST_UNDER_ONE))
    assert fused.prob_of(token) > 0
