"""The completions-with-logprobs adapter, exercised against stub clients."""

import math

import pytest

from cogen.backends import ConditioningInput, ContextBundle, Role
from cogen.core import SPARSE_MASS_TOL, TokenDistribution, Vocab
from cogen.errors import InvalidDistributionError, PrivacyContractError, TransportError
from cogen.external import ExternalBackend, external_next_logits
from helpers import path_backend

VOCAB = Vocab(tokens=("yes", "no", "maybe", "</s>", "<unk>"), eos_id=3, unk_id=4)


class StubClient:
    def __init__(self, top_logprobs):
        self.top_logprobs = top_logprobs
        self.prompts = []

    def complete(self, prompt, max_tokens, logprobs):
        self.prompts.append(prompt)
        return {"choices": [{"logprobs": {"top_logprobs": [self.top_logprobs]}}]}


class TimeoutClient:
    def complete(self, prompt, max_tokens, logprobs):
        raise TransportError("simulated timeout")


def request(prefix=()):
    return ConditioningInput("pick one", tuple(prefix), None, Role.LARGE_CLOUD)


class TestExternalNextLogits:
    def test_logprobs_exponentiate_to_probabilities(self):
        # independently computed: exp(-0.105) = 0.90032..., exp(-2.40) = 0.09071...
        client = StubClient({"yes": -0.105, "no": -2.40})
        result = external_next_logits(client, request(), top_k=10, vocab=VOCAB)
        assert result.distribution.prob_of(VOCAB.id_of("yes")) == pytest.approx(
            math.exp(-0.105), abs=1e-12
        )
        assert result.distribution.prob_of(VOCAB.id_of("no")) == pytest.approx(
            math.exp(-2.40), abs=1e-12
        )
        assert not result.degraded

    def test_top_k_one_is_singleton(self):
        client = StubClient({"yes": -0.2, "no": -1.0, "maybe": -2.0})
        result = external_next_logits(client, request(), top_k=1, vocab=VOCAB)
        assert result.distribution.sparse_ids.size == 1
        assert result.distribution.top1()[0] == VOCAB.id_of("yes")

    def test_unmappable_tokens_dropped_and_mass_recorded(self):
        client = StubClient({"yes": -0.7, "zzz_not_in_vocab": -0.9})
        result = external_next_logits(client, request(), top_k=10, vocab=VOCAB)
        assert result.distribution.prob_of(VOCAB.unk_id) == 0.0
        assert result.lost_mass == pytest.approx(math.exp(-0.9), abs=1e-12)

    def test_degraded_flag_when_most_mass_lost(self):
        client = StubClient({"gone": -0.01, "yes": -5.0})
        result = external_next_logits(client, request(), top_k=10, vocab=VOCAB)
        assert result.degraded

    def test_whitespace_stripped_mapping(self):
        client = StubClient({" yes": -0.3})
        result = external_next_logits(client, request(), top_k=10, vocab=VOCAB)
        assert result.distribution.prob_of(VOCAB.id_of("yes")) > 0

    def test_prompt_carries_instruction_and_prefix(self):
        client = StubClient({"yes": -0.5})
        external_next_logits(client, request(prefix=(0, 1)), top_k=5, vocab=VOCAB)
        assert client.prompts == ["pick one yes no"]

    def test_transport_error_propagates(self):
        with pytest.raises(TransportError):
            external_next_logits(TimeoutClient(), request(), top_k=5, vocab=VOCAB)

    def test_malformed_reply_is_transport_error(self):
        class Bad:
            def complete(self, prompt, max_tokens, logprobs):
                return {"choices": []}

        with pytest.raises(TransportError):
            external_next_logits(Bad(), request(), top_k=5, vocab=VOCAB)

    def test_kept_mass_above_one_is_renormalized(self):
        client = StubClient({"yes": 0.0, "no": 0.0, "maybe": 0.0})
        dist = external_next_logits(client, request(), top_k=5, vocab=VOCAB).distribution
        assert dist.mass <= 1.0 + SPARSE_MASS_TOL
        assert dist.sparse_probs.tolist() == [1 / 3] * 3
        assert dist.sparse_ids.tolist() == [0, 1, 2]
        TokenDistribution.sparse(dist.sparse_ids, dist.sparse_probs, VOCAB.size)

    @pytest.mark.parametrize("logprob", [math.nan, math.inf, -math.inf, "-0.5", None])
    def test_unusable_logprob_is_permanent_transport_error(self, logprob):
        client = StubClient({"yes": -0.5, "no": logprob})
        with pytest.raises(TransportError, match="expected a finite number") as info:
            external_next_logits(client, request(), top_k=5, vocab=VOCAB)
        assert info.value.retryable is False


class TestExternalBackend:
    def test_context_refused_at_request_construction(self):
        backend = ExternalBackend(StubClient({"yes": -0.5}), VOCAB)
        with pytest.raises(PrivacyContractError):
            ConditioningInput(
                "do", (), ContextBundle(profile="private"), backend.role
            )

    def test_next_distribution_sparse_and_recorded(self):
        backend = ExternalBackend(StubClient({"yes": -0.5, "no": -1.5}), VOCAB)
        dist = backend.next_distribution(request())
        assert dist.is_sparse
        assert backend.last_result is not None
        assert backend.last_result.lost_mass == 0.0

    def test_timeout_mid_decode_follows_decoder_policy(self):
        # external transport failure engages the decoder's degrade policy
        from cogen.core import SamplingConfig
        from cogen.corpus import CorpusRecord
        from cogen.decoder import DecodeMode, decode, session_for_record
        from cogen.fusion import FusionStrategy

        slm = path_backend(VOCAB, Role.SMALL_DEVICE, ["yes", "no"])
        llm = ExternalBackend(TimeoutClient(), VOCAB)
        record = CorpusRecord(
            user_id="u", dataset_kind="email", task="pick one", reference="yes no",
        )
        session = session_for_record(
            record, DecodeMode.fusion(FusionStrategy.mean()),
            SamplingConfig(greedy=True, max_new_tokens=4), slm, llm,
        )
        result = decode(session, on_transport_error="degrade")
        assert [VOCAB.token(t) for t in result.token_ids] == ["yes", "no"]
        assert result.trace.events

    def test_context_upload_baseline_never_reaches_the_service(self):
        # decode waives the gate for the in-process baseline, but the
        # adapter refuses context regardless, before any upload
        from cogen.core import SamplingConfig
        from cogen.corpus import CorpusRecord
        from cogen.decoder import DecodeMode, decode, session_for_record

        client = StubClient({"yes": -0.1})
        slm = path_backend(VOCAB, Role.SMALL_DEVICE, ["yes"])
        record = CorpusRecord(
            user_id="u", dataset_kind="email", task="pick one", reference="yes",
            profile="private profile text", history=("an earlier private email",),
        )
        session = session_for_record(
            record, DecodeMode.llm_with_context(),
            SamplingConfig(greedy=True, max_new_tokens=4), slm, ExternalBackend(client, VOCAB),
        )
        with pytest.raises(PrivacyContractError, match="large_cloud backend given context"):
            decode(session)
        assert client.prompts == []

    def test_reply_with_no_mass_cannot_be_sampled(self):
        from cogen.core import SamplingConfig
        from cogen.corpus import CorpusRecord
        from cogen.decoder import DecodeMode, decode, session_for_record

        slm = path_backend(VOCAB, Role.SMALL_DEVICE, ["yes"])
        llm = ExternalBackend(StubClient({"zzz_not_in_vocab": -0.1}), VOCAB)
        record = CorpusRecord(
            user_id="u", dataset_kind="email", task="pick one", reference="yes",
        )
        session = session_for_record(
            record, DecodeMode.llm_no_context(),
            SamplingConfig(greedy=True, max_new_tokens=4), slm, llm,
        )
        with pytest.raises(InvalidDistributionError):
            decode(session)
