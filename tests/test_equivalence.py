"""The per-step primitives agree with reference copies of their first form.

Each ``ref_*`` function below is the original, plainer implementation of
a hot-path primitive (lexsort orderings, ``np.errstate`` guarded logs,
per-id range checks, full re-tokenization of the conditioning). The
faster forms in ``cogen`` must return the same bits and raise the same
error class with the same message on every input.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogen import combmodel, core, fusion
from cogen.backends import ConditioningInput, ContextBundle, NGramBackend, Role, train_ngram
from cogen.core import DENSE_SUM_TOL, SamplingConfig, TokenDistribution, sample_top_p, top_k_project
from cogen.errors import InvalidDistributionError, InvalidInputError, PrivacyContractError
from cogen.fusion import AlignedPair
from cogen.rng import Splitmix64
from cogen.tokenizer import Tokenizer

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
    cut = min(cut, probs.size)
    nucleus = sorted_probs[:cut]
    nucleus = nucleus / nucleus.sum()
    u = rng.next_float()
    pick = int(np.searchsorted(np.cumsum(nucleus), u, side="right"))
    pick = min(pick, cut - 1)
    return int(order[pick])


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


def ref_backend_check(backend, request):
    if (
        backend.role == Role.LARGE_CLOUD
        and request.context is not None
        and not request.context.is_empty()
        and not request.context_upload_waiver
    ):
        raise PrivacyContractError("large_cloud backend given context")
    for tid in request.prefix_ids:
        if not 0 <= tid < backend.vocab.size:
            raise InvalidInputError(f"token id {tid} outside vocab of size {backend.vocab.size}")


def ref_ngram_distribution(backend, request):
    tok = Tokenizer(backend.model.vocab, backend.model.policy)
    stream = tok.tokenize(request.instruction)
    if request.context is not None and not request.context.is_empty():
        stream += tok.tokenize(request.context.as_text())
    stream += list(request.prefix_ids)
    return backend.model.conditional(stream)


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
    dist = TokenDistribution.dense(probs)
    config = SamplingConfig(temperature=temperature, top_p=top_p, seed=seed)
    got, want = Splitmix64(seed), Splitmix64(seed)
    for _ in range(3):
        assert outcome(sample_top_p, dist, config, got) == outcome(
            ref_sample_top_p, dist, config, want
        )


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


# --- backend request checks and n-gram conditioning -------------------------


@pytest.fixture(scope="module")
def ngram_pair():
    texts = ["a b c d", "x b d a", "c c a b x"]
    small = NGramBackend(train_ngram(texts, n=2, alpha=0.1), Role.SMALL_DEVICE)
    large = NGramBackend(train_ngram(texts, n=3, alpha=0.1), Role.LARGE_CLOUD)
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


@settings(max_examples=300, deadline=None)
@given(
    prefix=st.lists(st.integers(0, 6), max_size=5),
    instruction=st.sampled_from(["", "a", "b x", "q a c"]),
    context=st.sampled_from([None, ContextBundle(), ContextBundle(profile="x"),
                             ContextBundle(history=("c", "d a"))]),
    use_large=st.booleans(),
)
def test_ngram_distribution_matches_full_stream(ngram_pair, prefix, instruction, context, use_large):
    backend = ngram_pair[1] if use_large else ngram_pair[0]
    request = ConditioningInput(
        instruction, tuple(np.int64(i) for i in prefix), context, backend.role,
        context_upload_waiver=True,
    )
    assert request.prefix_ids == tuple(prefix)
    assert all(type(i) is int for i in request.prefix_ids)
    got = backend.next_distribution(request).dense_probs
    assert same_bits(got, ref_ngram_distribution(backend, request))
