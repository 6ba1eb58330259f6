"""The per-step primitives agree with reference copies of their first form.

Each ``ref_*`` function below is the original, plainer implementation of
a hot-path primitive (lexsort orderings, ``np.errstate`` guarded logs,
per-id range checks, full re-tokenization of the conditioning, a whole
fused distribution built to read one probability, a re-validated dense
copy, an n-gram conditional, a nucleus, a top-k view and an argmax
rebuilt on every call, a nucleus searched as arrays, a weight net
fed through its checked entry point, and a fused step and its nucleus
computed afresh at every call). The
faster forms in ``cogen`` must return the same bits and raise the same
error class with the same message on every input.
"""

from __future__ import annotations

import gc
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cogen import combmodel, core, decoder, fusion
from cogen.backends import ConditioningInput, ContextBundle, NGramBackend, Role, train_ngram
from cogen.core import DENSE_SUM_TOL, SamplingConfig, TokenDistribution, sample_top_p, top_k_project
from cogen.errors import (
    InvalidConfigError,
    InvalidDistributionError,
    InvalidInputError,
    PrivacyContractError,
)
from cogen.fusion import AlignedPair, FusionStrategy, blend, fuse, fuse_views
from cogen.rng import Splitmix64
from cogen.synthetic import build_world, large_backend, small_backends
from cogen.tokenizer import Tokenizer
from helpers import CountedDraws, fsum_pick, fsum_sampler, perturbed_params, reference_forward

# --- reference implementations -------------------------------------------


def ref_descending_order(probs):
    return np.lexsort((np.arange(probs.size), -probs))


def ref_temper_probs(probs, temperature):
    if temperature == 1.0:
        return probs
    with np.errstate(divide="ignore"):
        logp = np.log(probs)
    scaled = logp / temperature
    finite = scaled[np.isfinite(scaled)]
    if finite.size == 0:
        raise InvalidDistributionError("distribution has no support")
    shifted = scaled - finite.max()
    with np.errstate(invalid="ignore"):
        out = np.exp(shifted)
    out[~np.isfinite(out)] = 0.0
    total = out.sum()
    if total <= 0:
        raise InvalidDistributionError("temperature scaling annihilated all mass")
    return out / total


def ref_sample_top_p(dist, config, rng):
    probs = ref_temper_probs(np.asarray(dist.dense_probs), config.temperature)
    order = ref_descending_order(probs)
    sorted_probs = probs[order]
    cum = np.cumsum(sorted_probs)
    cut = int(np.searchsorted(cum, config.top_p, side="left")) + 1
    cut = min(cut, int(np.count_nonzero(probs)))
    nucleus = sorted_probs[:cut]
    nucleus = nucleus / nucleus.sum()
    u = rng.next_float()
    pick = int(np.searchsorted(np.cumsum(nucleus), u, side="right"))
    pick = min(pick, cut - 1)
    return int(order[pick])


def ref_top1(dist):
    if dist.is_dense:
        i = int(np.argmax(dist.dense_probs))
        return i, float(dist.dense_probs[i])
    return int(dist.sparse_ids[0]), float(dist.sparse_probs[0])


def ref_top_k_project(dist, k):
    probs = np.asarray(dist.dense_probs)
    order = ref_descending_order(probs)[: min(k, probs.size)]
    return np.asarray(order, dtype=np.int64), probs[order]


def ref_to_distribution_order(support, vec):
    return np.lexsort((support, -vec))


def ref_dense_check(probs):
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size == 0:
        raise InvalidDistributionError("dense distribution must be a non-empty vector")
    if not np.all(np.isfinite(probs)):
        raise InvalidDistributionError("probabilities must be finite")
    if np.any(probs < 0) or np.any(probs > 1 + 1e-12):
        raise InvalidDistributionError("probabilities must lie in [0, 1]")
    mass = float(probs.sum())
    if abs(mass - 1.0) > DENSE_SUM_TOL:
        raise InvalidDistributionError(f"dense mass {mass!r} not within {DENSE_SUM_TOL} of 1")
    return probs


def ref_check_top10(name, vec):
    arr = np.asarray(vec, dtype=np.float64)
    if arr.shape != (10,):
        raise InvalidInputError(f"{name} must hold exactly 10 probabilities")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    if np.any(arr < 0) or np.any(arr > 1 + 1e-12):
        raise InvalidInputError(f"{name} entries must lie in [0, 1]")
    if np.any(np.diff(arr) > 1e-12):
        raise InvalidInputError(f"{name} must be sorted in descending order")
    return arr


def ref_fused_target_prob(pair, target_id, w):
    dist, _ = fuse(pair, FusionStrategy.fixed(w))
    return dist.prob_of(target_id)


def ref_dense_from_sparse(dist):
    return TokenDistribution.dense(dist.to_dense_array() / dist.mass)


def ref_backend_check(backend, request):
    if (
        backend.role == Role.LARGE_CLOUD
        and request.context
        and not request.context_upload_waiver
    ):
        raise PrivacyContractError("large_cloud backend given context")
    for tid in request.prefix_ids:
        if not 0 <= tid < backend.vocab.size:
            raise InvalidInputError(f"token id {tid} outside vocab of size {backend.vocab.size}")


def ref_conditional(model, history_ids):
    h = tuple(history_ids[-(model.n - 1):]) if model.n > 1 else ()
    vec = np.full(model.vocab.size, model.alpha, dtype=np.float64)
    for tid, c in model.counts.get(h, {}).items():
        vec[tid] += c
    return vec / (model.totals.get(h, 0) + model.alpha * model.vocab.size)


def ref_ngram_distribution(backend, request):
    tok = Tokenizer(backend.model.vocab)
    stream = tok.tokenize(request.instruction)
    if request.context:
        stream += tok.tokenize(request.context.as_text())
    stream += list(request.prefix_ids)
    return TokenDistribution.dense(ref_conditional(backend.model, stream)).dense_probs


# --- helpers ---------------------------------------------------------------


def outcome(fn, *args):
    """(value, None) or (None, (error class, message)) for one call."""
    try:
        return fn(*args), None
    except Exception as exc:  # the comparison is over the exception itself
        return None, (type(exc), str(exc))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Ties and exact zeros are the cases where an ordering can differ.
WEIGHTS = st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 7.0, 1e-300, 1e-12, 0.5])


@st.composite
def prob_vectors(draw, min_size=1, max_size=40):
    weights = draw(st.lists(WEIGHTS, min_size=min_size, max_size=max_size))
    if not any(w > 0 for w in weights):
        weights[draw(st.integers(0, len(weights) - 1))] = 1.0
    vec = np.array(weights, dtype=np.float64)
    return vec / vec.sum()


TEMPERATURES = st.one_of(
    st.sampled_from([1e-3, 0.7, 1.0, 1e3]),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)


# --- ordering, top-k and sampling -------------------------------------------


@settings(max_examples=300, deadline=None)
@given(probs=prob_vectors(), temperature=TEMPERATURES)
def test_descending_order_and_tempering_match(probs, temperature):
    assert same_bits(core._descending_order(probs), ref_descending_order(probs))
    got, want = outcome(core._temper_probs, probs, temperature), outcome(
        ref_temper_probs, probs, temperature
    )
    assert got[1] == want[1]
    if want[1] is None:
        assert same_bits(got[0], want[0])
        assert same_bits(core._descending_order(got[0]), ref_descending_order(want[0]))


@settings(max_examples=200, deadline=None)
@given(probs=prob_vectors(), k=st.integers(1, 45))
def test_top_k_project_matches(probs, k):
    got = top_k_project(TokenDistribution.dense(probs), k)
    ids, values = ref_top_k_project(TokenDistribution.dense(probs), k)
    assert same_bits(got.sparse_ids, ids)
    assert same_bits(got.sparse_probs, values)


@settings(max_examples=300, deadline=None)
@given(
    probs=prob_vectors(),
    temperature=TEMPERATURES,
    top_p=st.sampled_from([0.05, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**64 - 1),
)
def test_sample_top_p_matches(probs, temperature, top_p, seed):
    """``sample_top_p`` samples, also under a greedy config."""
    dist = TokenDistribution.dense(probs)
    got, want = Splitmix64(seed), Splitmix64(seed)
    for greedy in (False, False, True):
        config = SamplingConfig(temperature=temperature, top_p=top_p, seed=seed, greedy=greedy)
        assert outcome(sample_top_p, dist, config, got) == outcome(
            ref_sample_top_p, dist, config, want
        )


class FixedDraw:
    """An RNG whose every float is ``u``."""

    def __init__(self, u):
        self.u = u

    def next_float(self):
        return self.u


@settings(max_examples=300, deadline=None)
@given(
    probs=prob_vectors(),
    temperature=TEMPERATURES,
    top_p=st.sampled_from([0.05, 0.5, 0.9, 1.0]),
    draws=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8),
)
def test_list_nucleus_and_top1_match_array_code(probs, temperature, top_p, draws):
    """The nucleus kept as lists and searched with ``bisect`` picks the
    token the array search picks for every draw, the cumulative sums
    themselves included, and greedy reads the argmax with ties toward the
    lower id, from a dense distribution and from its top-k view. A
    ``TOP_K`` view's top-1 is its source's, to the bit and ties included,
    for a dense source and for a sparse one longer than ``TOP_K``: a trace
    row reads it from the source, where the fused step cuts the view."""
    dist = TokenDistribution.dense(probs)
    config = SamplingConfig(temperature=temperature, top_p=top_p)
    ok, error = outcome(core._nucleus, dist, temperature, top_p)
    if error is None:
        draws = draws + [0.0] + ok[1]
    for u in draws:
        assert outcome(sample_top_p, dist, config, FixedDraw(u)) == outcome(
            ref_sample_top_p, dist, config, FixedDraw(u)
        )
    view = top_k_project(dist, 3)
    for d in (dist, view, dist):
        assert d.top1() == ref_top1(d)
        assert core.argmax_token(d) == ref_top1(d)[0]
        assert type(d.top1()[0]) is int and type(d.top1()[1]) is float
    for source in (dist, top_k_project(dist, dist.vocab_size)):
        top = top_k_project(source, fusion.TOP_K).top1()
        assert top[0] == source.top1()[0]
        assert same_bits(np.float64(top[1]), np.float64(source.top1()[1]))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_extreme_temperature_edges_match():
    cases = [
        np.array([1.0, 0.0, 0.0]),
        np.array([0.5, 0.5, 0.0, 0.0]),
        np.array([1.0 - 1e-300, 1e-300]),
        np.array([5e-324, 1.0]),
    ]
    for probs in cases:
        for temperature in (1e-310, 1e-3, 1e3, 1e308):
            assert repr(outcome(core._temper_probs, probs, temperature)) == repr(
                outcome(ref_temper_probs, probs, temperature)
            )


@settings(max_examples=200, deadline=None)
@given(probs=prob_vectors(), ks=st.lists(st.integers(1, 45), min_size=2, max_size=12))
@example(probs=np.array([0.5, 0.25, 0.25]), ks=[1, 2, 2, 1, 3, 1])
def test_cached_top_k_matches_uncached(probs, ks):
    """One distribution cut at interleaved k, as the service's clients
    may ask, gives the uncached view at every call."""
    dist = TokenDistribution.dense(probs)
    for k in ks:
        got = top_k_project(dist, k)
        ids, values = ref_top_k_project(dist, k)
        assert same_bits(got.sparse_ids, ids)
        assert same_bits(got.sparse_probs, values)
        assert got.vocab_size == dist.vocab_size


def test_top_k_cache_keeps_the_error_paths():
    dense = TokenDistribution.dense(np.array([0.5, 0.3, 0.2]))
    for _ in range(2):
        with pytest.raises(InvalidConfigError):
            top_k_project(dense, 0)
    assert dense._top_k is None
    # A cached view does not mask a bad k.
    view = top_k_project(dense, 2)
    with pytest.raises(InvalidConfigError):
        top_k_project(dense, 0)
    assert dense._top_k == (2, view)


def test_sparse_top_k_is_its_first_k_entries_and_cached():
    """A sparse distribution already descends with ties toward the lower
    id: its top k are its first k entries, and with at most k entries it
    is its own view."""
    sparse = TokenDistribution.sparse([4, 0, 2, 3, 1], [0.3, 0.2, 0.2, 0.1, 0.1], 6)
    view = top_k_project(sparse, 3)
    assert view.sparse_ids == (4, 0, 2)
    assert same_bits(view.sparse_probs, sparse.sparse_probs[:3])
    assert view.vocab_size == 6
    assert sparse._top_k == (3, view)
    assert top_k_project(sparse, 3) is view
    for k in (5, 6):
        assert top_k_project(sparse, k) is sparse
    assert sparse._top_k == (3, view)
    with pytest.raises(InvalidConfigError):
        top_k_project(sparse, 0)


def test_top_k_cache_holds_one_view_per_distribution():
    """The service cuts a long-lived backend distribution at whatever
    ``top_k`` each client asks. However many distinct cuts read it, the
    distribution keeps one view, and that view's ids are not a slice of
    the whole vocabulary's order."""
    dist = TokenDistribution.dense(np.full(123, 1 / 123))
    top_k_project(dist, 500)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(1, 501):
            view = top_k_project(dist, k)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert dist._top_k == (500, view)
    assert type(view.sparse_ids) is tuple and type(view.sparse_probs) is tuple
    # One full-vocabulary view is about 2 KB; one per k would be 1 MB.
    assert grown < 16 * 1024


# --- the sparse order of a fused distribution -------------------------------


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    vocab_size=st.integers(2, 60),
)
def test_to_distribution_order_matches(data, vocab_size):
    size = data.draw(st.integers(1, vocab_size))
    support = np.array(
        sorted(data.draw(st.sets(st.integers(0, vocab_size - 1), min_size=size, max_size=size))),
        dtype=np.int64,
    )
    vec = np.array(
        data.draw(st.lists(WEIGHTS, min_size=support.size, max_size=support.size)),
        dtype=np.float64,
    ) / 10.0
    zeros = np.zeros(support.size)
    pair = AlignedPair(support, zeros.copy(), zeros.copy(), vocab_size)
    dist = fusion._to_distribution(pair, vec)
    if support.size == vocab_size:
        assert same_bits(dist.dense_probs, vec)
        return
    order = ref_to_distribution_order(support, vec)
    assert same_bits(dist.sparse_ids, support[order])
    assert same_bits(dist.sparse_probs, vec[order])


@st.composite
def sparse_distributions(draw, vocab_size):
    """Valid top-k style distributions: descending, unique ids, mass <= 1."""
    size = draw(st.integers(1, vocab_size))
    ids = draw(st.permutations(range(vocab_size)))[:size]
    probs = np.sort(draw(prob_vectors(min_size=size, max_size=size)))[::-1]
    probs = probs * draw(st.sampled_from([1.0, 0.9, 0.5, 1e-3]))
    return TokenDistribution.sparse(ids, probs, vocab_size)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), vocab_size=st.integers(2, 40))
def test_dense_from_sparse_matches(data, vocab_size):
    dist = data.draw(sparse_distributions(vocab_size))
    got = decoder._dense(dist)
    want = ref_dense_from_sparse(dist)
    assert same_bits(got.dense_probs, want.dense_probs)
    assert got.vocab_size == want.vocab_size


# Mass kinds: normalized (no division), truncated (renormalized), empty.
SIDES = st.sampled_from(["normalized", "truncated", "zero"])
BLEND_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)]),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def aligned_targets(draw):
    """An aligned pair over a sparse or full-vocabulary support, plus a target slot."""
    vocab_size = draw(st.integers(2, 40))
    if draw(st.booleans()):
        support = np.arange(vocab_size, dtype=np.int64)
    else:
        size = draw(st.integers(1, vocab_size))
        support = np.array(sorted(draw(st.permutations(range(vocab_size)))[:size]), dtype=np.int64)

    def side():
        kind = draw(SIDES)
        if kind == "zero":
            return np.zeros(support.size)
        vec = draw(prob_vectors(min_size=support.size, max_size=support.size))
        if kind == "truncated":
            vec = vec * draw(st.floats(min_value=1e-3, max_value=0.99))
        return vec

    pair = AlignedPair(support, side(), side(), vocab_size)
    return pair, draw(st.integers(0, support.size - 1))


def _view(pair, probs):
    """A sparse view of every support id, descending with ties toward the lower id."""
    order = np.argsort(-probs, kind="stable")
    return TokenDistribution.sparse(pair.support[order], probs[order], pair.vocab_size)


NO_MASS = (AlignedPair(np.arange(3, dtype=np.int64), np.zeros(3), np.zeros(3), 3), 1)


@settings(max_examples=500, deadline=None)
@given(target=aligned_targets(), w=BLEND_WEIGHTS)
@example(target=NO_MASS, w=0.5)
def test_fused_target_prob_matches_fuse(target, w):
    """The loss's blend entry of an example built from views that cover
    the pair's support is ``fuse``'s probability at the target."""
    pair, y = target
    target_id = int(pair.support[y])
    ex = combmodel.CombExample(_view(pair, pair.p_s), _view(pair, pair.p_l), target_id)
    got = outcome(lambda: blend(ex.a, ex.b, w)[ex.y])
    want = outcome(ref_fused_target_prob, pair, target_id, w)
    assert got[1] == want[1]
    if want[1] is None:
        assert same_bits(np.float64(got[0]), np.float64(want[0]))


# --- input checks: same error class, same message ---------------------------

BAD_VALUES = [math.nan, math.inf, -math.inf, -0.5, -1e-300, 1.5, 1 + 1e-9]


@st.composite
def checked_vectors(draw, size):
    vec = list(draw(prob_vectors(min_size=size, max_size=size)))
    for _ in range(draw(st.integers(0, 3))):
        vec[draw(st.integers(0, size - 1))] = draw(st.sampled_from(BAD_VALUES))
    return vec


@settings(max_examples=300, deadline=None)
@given(vec=st.one_of(st.integers(1, 12).flatmap(checked_vectors), st.just([])))
def test_dense_checks_match(vec):
    got = outcome(TokenDistribution.dense, vec)
    want = outcome(ref_dense_check, vec)
    assert got[1] == want[1]
    if want[1] is None:
        assert same_bits(got[0].dense_probs, want[0])


@settings(max_examples=300, deadline=None)
@given(
    vec=st.one_of(
        checked_vectors(10).map(lambda v: sorted(v, reverse=True)),
        checked_vectors(10),
        checked_vectors(9),
        checked_vectors(11),
    )
)
def test_check_top10_matches(vec):
    got = outcome(combmodel._check_top10, "top10_s", vec)
    want = outcome(ref_check_top10, "top10_s", vec)
    assert got[1] == want[1]
    if want[1] is None:
        assert same_bits(got[0], want[0])


@st.composite
def top_k_views(draw, vocab_size=None):
    """A sparse view as the fused step sees one: a dense distribution's
    top-k cut, or a sparse distribution passed through, either of which
    may be shorter or longer than the weight net's 10 inputs."""
    if vocab_size is None:
        vocab_size = draw(st.integers(2, 30))
    if draw(st.booleans()):
        return draw(sparse_distributions(vocab_size))
    probs = draw(prob_vectors(min_size=vocab_size, max_size=vocab_size))
    return top_k_project(TokenDistribution.dense(probs), draw(st.integers(1, 12)))


@pytest.fixture(scope="module")
def weight_nets():
    return [combmodel.comb_init(seed) for seed in (0, 1, 2**64 - 1)]


@st.composite
def view_pairs(draw):
    """Two sparse views over one vocabulary and a target id in their union."""
    vocab_size = draw(st.integers(2, 30))
    ps_k, pl_k = draw(top_k_views(vocab_size)), draw(top_k_views(vocab_size))
    union = sorted(set(ps_k.sparse_ids) | set(pl_k.sparse_ids))
    return ps_k, pl_k, draw(st.sampled_from(union))


@settings(max_examples=300, deadline=None)
@given(views=view_pairs(), w=BLEND_WEIGHTS, which=st.integers(0, 2))
def test_example_holds_the_fused_steps_inputs(weight_nets, views, w, which):
    """A training example reads what a fused step reads, bit for bit: the
    weight net's input, the blend at the target and the padded views; and
    its loss is the floored log of that blend entry."""
    ps_k, pl_k, target = views
    params = weight_nets[which]
    ex = combmodel.CombExample(ps_k, pl_k, target)
    got = combmodel._row_weight(params.arrays(), ex.x)
    assert same_bits(np.float64(got), np.float64(params.weight(pl_k, ps_k)))
    got = outcome(lambda: blend(ex.a, ex.b, w)[ex.y])
    want = outcome(lambda: fuse_views(ps_k, pl_k, FusionStrategy.fixed(w))[0].prob_of(target))
    assert got[1] == want[1]
    loss = outcome(lambda: combmodel._losses(combmodel._loss_groups([ex]), np.array([w]), set())[0])
    assert loss[1] == want[1]
    if want[1] is None:
        assert type(got[0]) is float
        assert same_bits(np.float64(got[0]), np.float64(want[0]))
        assert same_bits(np.float64(loss[0]), np.float64(-math.log(max(want[0], combmodel._PROB_FLOOR))))
    assert ex.top10_l == combmodel.padded_top_probs(pl_k)
    assert ex.top10_s == combmodel.padded_top_probs(ps_k)
    assert repr(ex.top10_l) == repr(combmodel.padded_top_probs(pl_k))


@settings(max_examples=300, deadline=None)
@given(
    pl_k=top_k_views(),
    ps_k=top_k_views(),
    which=st.integers(0, 2),
    jitter=st.sampled_from([0.0, 0.05, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_net_weight_matches_checked_forward(weight_nets, pl_k, ps_k, which, jitter, seed):
    """The fused step's unchecked weight is the checked weight on the
    padded views, large model first, and the unfolded one-row forward of
    ``helpers.reference_forward`` (``x @ w1 + b1``), bit for bit, on
    initial and perturbed parameters, biases included."""
    params = perturbed_params(weight_nets[which], np.random.default_rng(seed), scale=jitter)
    got = params.weight(pl_k, ps_k)
    top10_l, top10_s = combmodel.padded_top_probs(pl_k), combmodel.padded_top_probs(ps_k)
    want = combmodel.comb_forward(params, top10_l, top10_s)
    assert type(got) is float
    assert same_bits(np.float64(got), np.float64(want))
    reference, _ = reference_forward(params.arrays(), np.array(top10_l + top10_s))
    assert same_bits(np.float64(got), np.float64(reference))


# --- backend request checks and n-gram conditioning -------------------------


NGRAM_TEXTS = ["a b c d", "x b d a", "c c a b x"]


@pytest.fixture(scope="module")
def ngram_pair():
    small = NGramBackend(train_ngram(NGRAM_TEXTS, n=2, alpha=0.1), Role.SMALL_DEVICE)
    large = NGramBackend(train_ngram(NGRAM_TEXTS, n=3, alpha=0.1), Role.LARGE_CLOUD)
    return small, large


PREFIXES = st.lists(st.integers(-3, 10), max_size=6)


@settings(max_examples=300, deadline=None)
@given(prefix=PREFIXES, use_large=st.booleans(), with_context=st.booleans(), waived=st.booleans())
def test_backend_check_matches(ngram_pair, prefix, use_large, with_context, waived):
    backend = ngram_pair[1] if use_large else ngram_pair[0]
    context = ContextBundle(profile="c d x") if with_context else None
    request = ConditioningInput(
        "a b", tuple(prefix), context, Role.SMALL_DEVICE, context_upload_waiver=waived
    )
    assert outcome(backend._check, request) == outcome(ref_backend_check, backend, request)


# The short-prefix path reads the stream from its end, field by field, so
# these hold empty fields between others, last fields shorter than the
# window, and every kind of whitespace ``str.split`` splits at.
CONTEXTS = st.sampled_from(
    [
        None,
        ContextBundle(),
        ContextBundle(profile="x"),
        ContextBundle(history=("c", "d a")),
        ContextBundle(profile="b", history=("", "c", "", "x")),
        ContextBundle(profile="", history=("a b c", "")),
        ContextBundle(profile="c d", history=("a",)),
        ContextBundle(profile="q a", history=("b", "x", "d")),
        ContextBundle(profile=" \t a\n\n b  ", history=("\u3000c\x1cd\x85", "  ", "x\t")),
        ContextBundle(profile="a\x85b", history=("\n", "c\u3000\u3000", "\x1c")),
    ]
)
INSTRUCTIONS = st.sampled_from(
    ["", "a", "b x", "q a c", "  ", " a\t\nb  ", "\u3000x\x85c", "\x1cd\x1c"]
)


def fresh_ngram(ngram_pair, use_large):
    """A backend with an empty memo over one of the shared models."""
    shared = ngram_pair[1 if use_large else 0]
    return NGramBackend(shared.model, shared.role)


@pytest.fixture(scope="module")
def ngram_models(ngram_pair):
    """The pair's models, then a device trigram and 4-gram, whose windows
    reach back across more than one field."""
    extra = [train_ngram(NGRAM_TEXTS, n=n, alpha=0.1) for n in (3, 4)]
    return [b.model for b in ngram_pair] + extra


@settings(max_examples=300, deadline=None)
@given(
    requests=st.lists(
        st.tuples(st.lists(st.integers(0, 6), max_size=5), INSTRUCTIONS, CONTEXTS),
        min_size=1,
        max_size=12,
    ),
    which=st.integers(0, 3),
)
def test_ngram_distribution_matches_full_stream(ngram_models, requests, which):
    """Memo hits and misses, seen and unseen histories, and the short-prefix
    path with and without context all return the freshly built bits."""
    role = Role.LARGE_CLOUD if which == 1 else Role.SMALL_DEVICE
    backend = NGramBackend(ngram_models[which], role)
    for prefix, instruction, context in requests:
        request = ConditioningInput(
            instruction, tuple(np.int64(i) for i in prefix), context, backend.role,
            context_upload_waiver=True,
        )
        assert request.prefix_ids == tuple(prefix)
        assert all(type(i) is int for i in request.prefix_ids)
        got = backend.next_distribution(request)
        assert got.vocab_size == backend.vocab.size
        assert same_bits(got.dense_probs, ref_ngram_distribution(backend, request))


# --- the n-gram memo and the nucleus cache ------------------------------------


def test_memo_serves_seen_and_unseen_histories(ngram_pair):
    small, large = (fresh_ngram(ngram_pair, use_large) for use_large in (False, True))
    unseen = (6, 6)
    assert unseen not in large.model.counts and (6,) not in small.model.counts
    for backend in (small, large):
        seen = next(iter(backend.model.counts))
        for prefix in (seen, unseen, seen, unseen):
            request = ConditioningInput("", prefix, None, backend.role)
            got = backend.next_distribution(request)
            assert same_bits(got.dense_probs, ref_ngram_distribution(backend, request))
        assert len(backend._memo) == 2


@settings(max_examples=50, deadline=None)
@given(walk=st.lists(st.integers(0, 6), min_size=20, max_size=300), use_large=st.booleans())
@example(walk=[i for a in range(7) for b in range(7) for i in (a, b)], use_large=True)
def test_memo_never_outgrows_the_counted_histories(ngram_pair, walk, use_large):
    backend = fresh_ngram(ngram_pair, use_large)
    for end in range(len(walk) + 1):
        backend.next_distribution(ConditioningInput("a b", tuple(walk[:end]), None, backend.role))
    assert len(backend._memo) <= len(backend.model.counts) + 1


CONFIG_STEPS = st.tuples(
    st.integers(0, 1),
    st.sampled_from([0.5, 0.7, 1.0]),
    st.sampled_from([0.3, 0.9, 1.0]),
    st.sampled_from([False, False, False, True]),
)


@settings(max_examples=300, deadline=None)
@given(
    first=prob_vectors(min_size=2),
    second=prob_vectors(min_size=2),
    steps=st.lists(CONFIG_STEPS, min_size=2, max_size=12),
    seed=st.integers(0, 2**64 - 1),
)
@example(
    first=np.array([0.5, 0.3, 0.2]),
    second=np.array([0.25, 0.75]),
    # An empty slot, then the slot's own key, another key and greedy.
    steps=[(0, 0.7, 0.3, False), (0, 0.7, 0.3, False), (0, 0.7, 1.0, False), (1, 0.7, 0.3, False),
           (0, 0.7, 0.3, True), (0, 0.7, 0.3, False)] * 3,
    seed=1,
)
def test_cached_nucleus_sampling_matches_uncached(first, second, steps, seed):
    """Two distributions picked from in turn with one RNG stream, the
    config changing between calls, give the ids of the uncached function
    and the argmax, whether the nucleus slot is empty, holds the call's
    key or holds another; a draw takes exactly one float, greedy none."""
    dists = [TokenDistribution.dense(first), TokenDistribution.dense(second)]
    got, want = CountedDraws(seed), Splitmix64(seed)
    for which, temperature, top_p, greedy in steps:
        dist = dists[which]
        config = SamplingConfig(temperature=temperature, top_p=top_p, seed=seed, greedy=greedy)
        before = got.draws
        if greedy:
            assert dist.pick(config, got) == ref_top1(dist)[0]
            assert got.draws == before
            continue
        got_pick = outcome(dist.pick, config, got)
        assert got_pick == outcome(ref_sample_top_p, dist, config, want)
        assert got.draws == before + (got_pick[1] is None)
        assert got_pick[1] is not None or dist._nucleus[0] == (temperature, top_p)
    assert got.next_u64() == want.next_u64()


def test_nucleus_cache_keeps_the_error_paths():
    config = SamplingConfig()
    sparse = top_k_project(TokenDistribution.dense(np.array([0.5, 0.5])), 1)
    unnormalized = TokenDistribution(vocab_size=2, dense_probs=np.array([0.5, 0.4]))
    for dist, message in ((sparse, "dense"), (unnormalized, "normalized")):
        rng = Splitmix64(3)
        for _ in range(2):
            with pytest.raises(InvalidDistributionError, match=message):
                sample_top_p(dist, config, rng)
        assert dist._nucleus is None
        assert rng.next_u64() == Splitmix64(3).next_u64()


def test_nucleus_cache_does_not_grow_with_distinct_configs():
    """A service client picks ``temperature`` and ``top_p`` per request, and
    backend distributions live as long as the server. However many
    distinct pairs sample one distribution, it keeps a single nucleus."""
    dist = TokenDistribution.dense(np.full(123, 1 / 123))
    rng = Splitmix64(0)
    sample_top_p(dist, SamplingConfig(temperature=0.5, top_p=1.0), rng)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(500):
            config = SamplingConfig(temperature=0.5 + (i + 1) / 1000, top_p=1.0)
            sample_top_p(dist, config, rng)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert dist._nucleus[0] == (config.temperature, config.top_p)
    # One full-vocabulary nucleus is about 2 KB; one per config would be 1 MB.
    assert grown < 16 * 1024


def test_threads_sharing_one_distribution_and_backend_match_serial(ngram_pair):
    """Handler threads share backends and their distributions; racing to
    fill the memo, the nucleus cache and the top-k cache must not change
    what any sees."""
    backend = fresh_ngram(ngram_pair, True)
    shared = TokenDistribution.dense(np.array([0.4, 0.3, 0.2, 0.1]))
    configs = [SamplingConfig(temperature=t, top_p=p) for t in (0.5, 1.0) for p in (0.5, 0.95)]

    def work(seed):
        rng = Splitmix64(seed)
        picks = []
        for i in range(200):
            config = configs[i % len(configs)]
            picks.append(sample_top_p(shared, config, rng))
            prefix = (i % 7, (i * 3) % 7)
            dist = backend.next_distribution(ConditioningInput("", prefix, None, backend.role))
            picks.append(sample_top_p(dist, config, rng))
            for cut in (shared, dist):
                picks.append(list(top_k_project(cut, 1 + (i + seed) % 3).sparse_ids))
        return picks

    def serial(seed):
        rng = Splitmix64(seed)
        picks = []
        for i in range(200):
            config = configs[i % len(configs)]
            picks.append(ref_sample_top_p(shared, config, rng))
            request = ConditioningInput("", (i % 7, (i * 3) % 7), None, backend.role)
            dense = TokenDistribution.dense(ref_ngram_distribution(backend, request))
            picks.append(ref_sample_top_p(dense, config, rng))
            for cut in (shared, dense):
                picks.append(ref_top_k_project(cut, 1 + (i + seed) % 3)[0].tolist())
        return picks

    results = {}
    threads = [
        threading.Thread(target=lambda s=seed: results.__setitem__(s, work(s))) for seed in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {seed: serial(seed) for seed in range(4)}


# --- the fused step's memo ------------------------------------------------------


@st.composite
def step_pools(draw):
    """What a fused step may get from each side, over one vocabulary:
    dense distributions (whose cached top-k view recurs), sparse ones of
    at most ``TOP_K`` entries (their own view, so they recur as they are),
    and longer sparse ones (whose view is new at every call)."""
    vocab_size = draw(st.integers(2, 30))

    def one():
        if draw(st.booleans()):
            return draw(sparse_distributions(vocab_size))
        return TokenDistribution.dense(draw(prob_vectors(min_size=vocab_size, max_size=vocab_size)))

    return [one() for _ in range(draw(st.integers(1, 3)))], [one() for _ in range(draw(st.integers(1, 3)))]


def memo_strategies(nets):
    """Strategies that share a key but for the weight (two fixed, and
    fixed(0) against fixed(-0)), or but for the net (two learnable)."""
    return [
        FusionStrategy.fixed(0.3),
        FusionStrategy.fixed(0.7),
        FusionStrategy.fixed(0.0),
        FusionStrategy.fixed(-0.0),
        FusionStrategy.mean(),
        FusionStrategy.max_pool(),
        FusionStrategy.learnable(nets[0]),
        FusionStrategy.learnable(nets[1]),
    ]


MEMO_STRATEGY_COUNT = 8  # len(memo_strategies(nets))
MEMO_CONFIGS = [
    SamplingConfig(temperature=t, top_p=p) for t in (0.5, 1.0) for p in (0.3, 0.9, 1.0)
] + [SamplingConfig(greedy=True)]

STEP_CALLS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 2),
        st.integers(0, MEMO_STRATEGY_COUNT - 1),
        st.integers(0, len(MEMO_CONFIGS) - 1),
    ),
    min_size=1,
    max_size=40,
)

# One pair of recurring views under every strategy in turn, each sampled
# twice with different configs: a memo that confuses two strategies fails.
EVERY_STRATEGY_ON_ONE_PAIR = dict(
    pools=(
        [TokenDistribution.dense(np.array([0.4, 0.3, 0.2, 0.1]))],
        [TokenDistribution.dense(np.array([0.1, 0.2, 0.3, 0.4]))],
    ),
    # An empty slot, then the slot's own key, another key and greedy.
    calls=[(0, 0, s, c) for s in range(MEMO_STRATEGY_COUNT) for c in (0, 0, 3, 6)],
    seed=5,
)


@settings(max_examples=300, deadline=None)
@given(pools=step_pools(), calls=STEP_CALLS, seed=st.integers(0, 2**64 - 1))
@example(**EVERY_STRATEGY_ON_ONE_PAIR)
def test_memoized_fused_step_matches_a_fresh_one(weight_nets, pools, calls, seed):
    """Fused steps in any order over a shared pool of distributions, the
    strategy and the sampling config changing between calls, return the
    bits of ``fuse_views`` run afresh (a learnable strategy's net weighing
    the views again), and pick what the fresh blend picks from the same
    stream. A memoized distribution's nucleus slot may be empty, hold the
    call's key or hold another: each pick equals the reference sampler's
    (``fsum_sampler``) and takes exactly one float, and greedy takes
    none."""
    small, large = pools
    strategies = memo_strategies(weight_nets)
    assert len(strategies) == MEMO_STRATEGY_COUNT
    got_rng, want_rng, ref_rng = CountedDraws(seed), Splitmix64(seed), Splitmix64(seed)
    for i, j, which, c in calls:
        p_s, p_l = small[i % len(small)], large[j % len(large)]
        strategy, config = strategies[which], MEMO_CONFIGS[c]
        fused, w = fusion.blend_step(p_s, p_l, strategy)
        want, want_w = fuse_views(*fusion.top_k_views(p_s, p_l), strategy)
        assert fused.ids == want.ids
        assert same_bits(np.array(fused.probs), np.array(want.probs))
        assert same_bits(np.float64(w), np.float64(want_w))
        before = got_rng.draws
        token = fused.pick(config, got_rng)
        assert token == want.pick(config, want_rng)
        sampled, _, ids, cum = fsum_sampler(want.ids, want.probs, config.temperature, config.top_p)
        if config.greedy:
            assert got_rng.draws == before
            assert token == min(want.ids, key=lambda t: (-sampled[want.ids.index(t)], t))
        else:
            assert got_rng.draws == before + 1
            assert token == fsum_pick(ids, cum, ref_rng.next_float())
            assert fused._nucleus_slot[0] == (config.temperature, config.top_p)
    assert got_rng.next_u64() == want_rng.next_u64() == ref_rng.next_u64()


def test_fused_step_memo_never_serves_a_dead_small_views_entry():
    """Here the small side is a new sparse distribution, longer than
    ``TOP_K``, at every call, and each dies with its step unless
    something holds it. An entry keyed by a dead small side's id must
    never answer for a new one that happens to reuse that id. The large
    side's memo stops growing at ``FUSED_MEMO_CAP`` entries."""
    large = TokenDistribution.dense(np.full(16, 1 / 16))
    ids = np.arange(12, dtype=np.int64)
    memos = set()
    for i in range(300):
        head = 0.2 + (i % 97) / 1000
        probs = np.array([head] + [(1 - head) / 11] * 11)
        p_s = TokenDistribution.sparse(ids, probs, 16)
        fused, w = fusion.blend_step(p_s, large, FusionStrategy.mean())
        want, _ = fuse_views(*fusion.top_k_views(p_s, large), FusionStrategy.mean())
        assert same_bits(np.array(fused.probs), np.array(want.probs))
        memo = large._fused
        memos.add(id(memo))
        assert len(memo) <= fusion.FUSED_MEMO_CAP
        del p_s, fused, want  # so the next small side may take this one's id
    assert len(memos) == 1 and len(memo) == fusion.FUSED_MEMO_CAP


def test_fused_memo_holds_one_entry_per_small_view_and_strategy(ngram_pair, weight_nets):
    """A decode walk over every pair of ids under five strategies: each
    large side holds no more entries than the small sides it was blended
    with times the strategies used, each keyed by one of those sides."""
    small, large = fresh_ngram(ngram_pair, False), fresh_ngram(ngram_pair, True)
    strategies = [
        FusionStrategy.fixed(0.3),
        FusionStrategy.mean(),
        FusionStrategy.max_pool(),
        FusionStrategy.learnable(weight_nets[0]),
        FusionStrategy.learnable(weight_nets[1]),
    ]
    paired: dict[int, tuple] = {}  # id(p_l) -> (p_l, ids of the small sides)
    size = small.vocab.size
    for a in range(size):
        for b in range(size):
            cursors = small.open("a b"), large.open("a b")
            for token in (None, a, b):
                if token is not None:
                    for cursor in cursors:
                        cursor.push(token)
                for strategy in strategies:
                    p_s, p_l = (cursor.distribution() for cursor in cursors)
                    fusion.blend_step(p_s, p_l, strategy)
                    paired.setdefault(id(p_l), (p_l, set()))[1].add(id(p_s))
    assert len(paired) > 1
    for p_l, small_ids in paired.values():
        assert 0 < len(p_l._fused) <= len(small_ids) * len(strategies)
        assert {key[2] for key in p_l._fused} <= small_ids


def test_a_memo_hit_cuts_no_view(weight_nets, monkeypatch):
    """A second fused step on the same two distributions and strategy
    reads the memo before any top-k cut, and returns the first step's
    two objects."""
    p_s = TokenDistribution.dense(np.array([0.4, 0.3, 0.2, 0.1] + [0.0] * 12))
    p_l = TokenDistribution.dense(np.full(16, 1 / 16))

    def no_cut(*args):
        raise AssertionError("a memo hit cut a top-k view")

    for strategy in (FusionStrategy.mean(), FusionStrategy.learnable(weight_nets[0])):
        first = fusion.blend_step(p_s, p_l, strategy)
        with monkeypatch.context() as patched:
            patched.setattr(fusion, "top_k_views", no_cut)
            again = fusion.blend_step(p_s, p_l, strategy)
        assert len(again) == 2
        assert all(a is b for a, b in zip(again, first))


def test_a_large_side_that_is_its_own_view_gets_no_memo():
    """A remote reply has at most ``TOP_K`` entries, so it is its own
    top-k view, and it is new at every call, so an entry on it would
    never be read. It gets no memo, and dies as soon as the step's result
    is dropped, without waiting for the cycle collector."""
    p_s = TokenDistribution.dense(np.full(16, 1 / 16))
    p_l = TokenDistribution.sparse(np.arange(10), np.full(10, 0.1), 16)
    gone = weakref.ref(p_l)
    gc.disable()
    try:
        step = fusion.blend_step(p_s, p_l, FusionStrategy.mean())
        assert top_k_project(p_l, fusion.TOP_K) is p_l and p_l._fused is None
        del step, p_l
        assert gone() is None
    finally:
        gc.enable()


class StubRemoteLarge:
    """A large side that, like ``RemoteBackend``, answers every request
    with a new sparse top-k slice of a local backend's distribution."""

    role = Role.LARGE_CLOUD

    def __init__(self, local):
        self.local, self.vocab = local, local.vocab

    def next_distribution(self, request):
        view = top_k_project(self.local.next_distribution(request), 10)
        return TokenDistribution.sparse(view.sparse_ids, view.sparse_probs, view.vocab_size)


def memo_holders() -> list:
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, TokenDistribution) and o._fused is not None]


def test_fused_steps_over_a_remote_large_side_leave_no_memo_behind(world0, weight_nets):
    """A remote large view is new at every call, so its memo dies with it:
    after fused sessions over a stub remote, no distribution that
    outlives them, on either side, holds a fused-step entry."""
    local, slms = large_backend(world0), small_backends(world0)
    remote = StubRemoteLarge(local)
    records = world0.test_records[:3]
    before = memo_holders()
    sampling = SamplingConfig(seed=3, max_new_tokens=24)
    for strategy in (FusionStrategy.mean(), FusionStrategy.learnable(weight_nets[0])):
        for record in records:
            mode = decoder.DecodeMode.fusion(strategy)
            session = decoder.session_for_record(record, mode, sampling, slms[record.user_id], remote)
            assert decoder.decode(session).token_ids
    kept = {id(o) for o in before}
    assert [o for o in memo_holders() if id(o) not in kept] == []
    # The long-lived distributions are there: both sides' backend memos.
    assert local._memo and all(slms[record.user_id]._memo for record in records)


def test_threads_decoding_fused_sessions_on_shared_backends_match_serial(weight_nets):
    """Four threads decode fused sessions on one set of backends, racing
    to fill the n-gram memos, the top-k views, the fused-step memos and
    the nucleus slots; each session gives the tokens it gives alone on
    backends of its own."""
    world = build_world(1)
    modes = [
        decoder.DecodeMode.fusion(FusionStrategy.fixed(0.3)),
        decoder.DecodeMode.fusion(FusionStrategy.mean()),
        decoder.DecodeMode.fusion(FusionStrategy.max_pool()),
        decoder.DecodeMode.fusion(FusionStrategy.learnable(weight_nets[0])),
        decoder.DecodeMode.first_k_mode(4, FusionStrategy.mean()),
    ]
    jobs = [
        (record, mode, SamplingConfig(seed=seed, max_new_tokens=24))
        for record in world.test_records[:3]
        for mode in modes
        for seed in (0, 1)
    ]

    def run(job, llm, slms):
        record, mode, sampling = job
        session = decoder.session_for_record(record, mode, sampling, slms[record.user_id], llm)
        return decoder.decode(session).token_ids

    serial = [run(job, large_backend(world), small_backends(world)) for job in jobs]
    llm, slms = large_backend(world), small_backends(world)
    results = {}

    def work(t):
        order = list(range(len(jobs)))
        order = order[t * 7 % len(jobs):] + order[: t * 7 % len(jobs)]
        results[t] = {i: run(jobs[i], llm, slms) for i in order}

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    want = dict(enumerate(serial))
    assert results == {t: want for t in range(4)}
