"""The completions-with-logprobs adapter, exercised against stub clients
and, over HTTP, against a loopback stub service."""

import http.server
import json
import math
import shutil
import socket
import threading
from pathlib import Path

import pytest

from cogen.backends import ConditioningInput, ContextBundle, Role
from cogen.cli import main
from cogen.config import load_config
from cogen.core import SPARSE_MASS_TOL, TokenDistribution, Vocab
from cogen.errors import InvalidDistributionError, PrivacyContractError, TransportError
from cogen.external import API_KEY_ENV, ExternalBackend, HttpCompletionsClient, external_next_logits
from cogen.fusion import TOP_K
from helpers import path_backend, traced_decode

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
        assert len(result.distribution.sparse_ids) == 1
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
        assert dist.sparse_probs == (1 / 3,) * 3
        assert dist.sparse_ids == (0, 1, 2)
        TokenDistribution.sparse(dist.sparse_ids, dist.sparse_probs, VOCAB.size)

    @pytest.mark.parametrize("raw", [[["yes", -0.5]], "yes"], ids=["list", "string"])
    def test_top_logprobs_not_an_object_is_permanent_transport_error(self, raw):
        with pytest.raises(TransportError, match=r"top_logprobs\[0\] object") as info:
            external_next_logits(StubClient(raw), request(), top_k=5, vocab=VOCAB)
        assert info.value.retryable is False

    def test_the_view_holds_python_ints_and_floats(self):
        client = StubClient({"yes": -0.5, "no": -1.5, "maybe": 0.0})
        dist = external_next_logits(client, request(), top_k=5, vocab=VOCAB).distribution
        assert type(dist.sparse_ids) is tuple and type(dist.sparse_probs) is tuple
        assert {type(i) for i in dist.sparse_ids} == {int}
        assert {type(p) for p in dist.sparse_probs} == {float}

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

    def test_next_distribution_is_the_sparse_view_without_lost_mass(self):
        client = StubClient({"yes": -0.5, "no": -1.5})
        dist = ExternalBackend(client, VOCAB).next_distribution(request())
        result = external_next_logits(client, request(), top_k=TOP_K, vocab=VOCAB)
        assert dist.is_sparse
        assert (dist.sparse_ids, dist.sparse_probs) == (
            result.distribution.sparse_ids, result.distribution.sparse_probs
        )
        assert result.lost_mass == 0.0

    def test_default_top_k_is_the_fused_steps(self):
        # The fixture config has no "external" section.
        config = load_config(Path(__file__).parent / "fixtures" / "config.json")
        assert config.external_top_k == TOP_K
        assert ExternalBackend(StubClient({}), VOCAB).top_k == TOP_K

    def test_timeout_mid_decode_follows_decoder_policy(self):
        # external transport failure engages the decoder's degrade policy
        from cogen.core import SamplingConfig
        from cogen.corpus import CorpusRecord
        from cogen.decoder import DecodeMode, session_for_record
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
        result, trace = traced_decode(session, on_transport_error="degrade")
        assert [VOCAB.token(t) for t in result.token_ids] == ["yes", "no"]
        assert trace.events

    def test_context_upload_baseline_never_reaches_the_service(self):
        # the baseline opens the large side with the context, and the
        # adapter's large_cloud role refuses it before any upload
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


def completion(top_logprobs: dict) -> bytes:
    return json.dumps({"choices": [{"logprobs": {"top_logprobs": [top_logprobs]}}]}).encode()


class _StubHandler(http.server.BaseHTTPRequestHandler):
    """Records each POST's JSON body and Authorization header, and answers
    with the next of the server's ``replies`` (status, body); the last
    one repeats."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((json.loads(body), self.headers.get("Authorization")))
        replies = self.server.replies
        status, reply = replies.pop(0) if len(replies) > 1 else replies[0]
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


def _serve_stub(monkeypatch, server):
    """Run ``server`` as a loopback completions service; no proxy and no
    API key in the environment, so requests go straight to it
    unauthenticated."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy", API_KEY_ENV):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    server.seen = []
    server.replies = [(200, completion({"yes": -0.5, "no": -1.5}))]
    server.url = f"http://127.0.0.1:{server.server_address[1]}/v1/completions"
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture()
def http_stub(monkeypatch):
    """An HTTP/1.0 stub, which closes each connection after its reply."""
    yield from _serve_stub(monkeypatch, http.server.HTTPServer(("127.0.0.1", 0), _StubHandler))


class _KeepAliveHandler(_StubHandler):
    protocol_version = "HTTP/1.1"


class _CountingServer(http.server.ThreadingHTTPServer):
    """Serves each connection on its own thread and counts the connections
    it accepts."""

    daemon_threads = True
    connections = 0

    def verify_request(self, request, client_address):
        self.connections += 1
        return True


@pytest.fixture()
def keep_alive_stub(monkeypatch):
    """An HTTP/1.1 stub, which keeps each connection open for the next
    request, and counts the connections it accepts."""
    yield from _serve_stub(monkeypatch, _CountingServer(("127.0.0.1", 0), _KeepAliveHandler))


class TestHttpCompletionsClient:
    def test_posts_prompt_one_token_and_k_logprobs(self, http_stub):
        client = HttpCompletionsClient(http_stub.url)
        result = external_next_logits(client, request(prefix=(0,)), top_k=5, vocab=VOCAB)
        assert http_stub.seen == [({"prompt": "pick one yes", "max_tokens": 1, "logprobs": 5}, None)]
        assert result.distribution.sparse_ids == (VOCAB.id_of("yes"), VOCAB.id_of("no"))
        assert result.distribution.sparse_probs == (math.exp(-0.5), math.exp(-1.5))

    def test_bearer_token_only_with_an_api_key(self, http_stub, monkeypatch):
        HttpCompletionsClient(http_stub.url).complete("p", max_tokens=1, logprobs=2)
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        HttpCompletionsClient(http_stub.url).complete("p", max_tokens=1, logprobs=2)
        assert [auth for _, auth in http_stub.seen] == [None, "Bearer sk-test"]

    @pytest.mark.parametrize(
        "status, body",
        [(500, b'{"error": "overloaded"}'), (200, b"<html>not json</html>")],
        ids=["status-500", "not-json"],
    )
    def test_a_bad_reply_is_a_transport_error(self, http_stub, status, body):
        http_stub.replies = [(status, body)]
        with pytest.raises(TransportError, match="external service call failed"):
            HttpCompletionsClient(http_stub.url).complete("p", max_tokens=1, logprobs=2)
        assert len(http_stub.seen) == 1

    def test_calls_reuse_one_connection(self, keep_alive_stub):
        client = HttpCompletionsClient(keep_alive_stub.url)
        try:
            for _ in range(5):
                client.complete("p", max_tokens=1, logprobs=2)
            assert len(keep_alive_stub.seen) == 5
            assert keep_alive_stub.connections == 1
        finally:
            client.close()

    def test_a_refused_port_is_a_transport_error(self, http_stub):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        client = HttpCompletionsClient(f"http://127.0.0.1:{port}/v1/completions")
        with pytest.raises(TransportError, match="external service call failed"):
            client.complete("p", max_tokens=1, logprobs=2)


class TestGenerateWithAnExternalLargeModel:
    FIXTURES = Path(__file__).parent / "fixtures"

    @pytest.fixture()
    def config_path(self, tmp_path, http_stub):
        for name in ("slm_table.json", "corpus.jsonl"):
            shutil.copy(self.FIXTURES / name, tmp_path / name)
        config = json.loads((self.FIXTURES / "config.json").read_text())
        config["backends"]["llm"] = {"kind": "external_http", "role": "large_cloud"}
        config["external"] = {"endpoint": http_stub.url, "top_k": 3}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return path

    def generate(self, capsys, config_path):
        code = main([
            "generate", "--config", str(config_path),
            "--corpus", str(config_path.parent / "corpus.jsonl"),
            "--mode", "llm-noctx", "--seed", "0",
        ])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_prints_the_services_tokens(self, capsys, config_path, http_stub):
        http_stub.replies = [
            (200, completion({"C": -0.1, "A": -2.5})),
            (200, completion({" D": -0.2})),
            (200, completion({"</s>": -0.05})),
        ]
        code, out, _ = self.generate(capsys, config_path)
        assert code == 0
        assert out.strip() == "C D"
        prompts = [body["prompt"] for body, _ in http_stub.seen]
        assert prompts == ["A B", "A B C", "A B C D"]
        assert all(body["logprobs"] == 3 for body, _ in http_stub.seen)

    def test_a_500_exits_3(self, capsys, config_path, http_stub):
        http_stub.replies = [(500, b"{}")]
        code, out, err = self.generate(capsys, config_path)
        assert code == 3
        assert out == ""
        assert "transport error in generate" in err

    def test_top_logprobs_as_a_list_exits_3(self, capsys, config_path, http_stub):
        http_stub.replies = [(200, completion([["C", -0.1]]))]
        code, out, err = self.generate(capsys, config_path)
        assert code == 3
        assert out == ""
        assert "top_logprobs[0] object" in err
