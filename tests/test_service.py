"""Wire protocol, the loopback service, and split-execution equivalence."""

import builtins
import json
import socket
import struct
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dataclasses import replace

from cogen.audit import AuditLog, privacy_audit
from cogen.backends import ConditioningInput, ContextBundle, Role
from cogen.core import SamplingConfig, top_k_project
from cogen.decoder import DecodeMode, decode, session_for_record
from cogen.errors import (
    IncompatibleVocabError,
    InvalidConfigError,
    PrivacyContractError,
    ProtocolError,
    ServiceStartupError,
    TransportError,
)
from cogen.fusion import FusionStrategy
from cogen.service import (
    MAX_NEW_TOKENS_CAP,
    PROTOCOL_VERSION,
    TOP_K_CAP,
    RemoteBackend,
    ServeConfig,
    ServiceClient,
    bits_to_float,
    encode_frame,
    float_to_bits,
    read_frame,
    sampling_from_wire,
    sampling_to_wire,
    serve,
    validate_request,
)
from cogen.synthetic import build_world, large_backend, small_backends
from helpers import path_backend, traced_decode

GOLDEN_HELLO_REQUEST = (
    "0000004f"
    + json.dumps(
        {
            "kind": "hello",
            "session": "golden",
            "vocab_hash": "0011223344556677",
            "version": 1,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8").hex()
)
GOLDEN_LOGITS_RESPONSE = (
    "00000077"
    + json.dumps(
        {
            "entries": [[2, "3fe0000000000000"], [0, "3fd0000000000000"]],
            "kind": "logits",
            "vocab_hash": "0011223344556677",
            "version": 1,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8").hex()
)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)
JSON_OBJECTS = st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=5)


def length_prefixed(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def frame_reader(blob: bytes):
    view = memoryview(blob)
    offset = [0]

    def read_exactly(n: int) -> bytes:
        chunk = bytes(view[offset[0] : offset[0] + n])
        if len(chunk) != n:
            raise ConnectionError("short read")
        offset[0] += n
        return chunk

    return read_exactly


class TestWireCodec:
    def test_float_bits_round_trip_exactly(self):
        for value in (0.0, 1.0, 0.1, 2**-52, 0.123456789012345678, 1e-300):
            assert bits_to_float(float_to_bits(value)) == value

    def test_golden_hello_request_bytes(self):
        frame = encode_frame(
            {
                "version": 1,
                "kind": "hello",
                "session": "golden",
                "vocab_hash": "0011223344556677",
            }
        )
        assert frame.hex() == GOLDEN_HELLO_REQUEST

    def test_golden_logits_response_bytes(self):
        frame = encode_frame(
            {
                "version": 1,
                "kind": "logits",
                "entries": [[2, float_to_bits(0.5)], [0, float_to_bits(0.25)]],
                "vocab_hash": "0011223344556677",
            }
        )
        assert frame.hex() == GOLDEN_LOGITS_RESPONSE

    def test_length_prefix_is_big_endian_u32(self):
        frame = encode_frame({"version": 1})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4

    @given(JSON_OBJECTS)
    @settings(max_examples=300, deadline=None)
    def test_encode_decode_round_trip(self, obj):
        """Any JSON object comes back equal, with the raw body it was sent as."""
        frame = encode_frame(obj)
        decoded, raw = read_frame(frame_reader(frame))
        assert raw == frame[4:]
        assert decoded == obj
        assert encode_frame(decoded) == frame

    def test_oversized_declared_length_rejected(self):
        bad = struct.pack(">I", 1 << 30) + b"{}"
        with pytest.raises(ProtocolError):
            read_frame(frame_reader(bad))

    def test_non_json_payload_rejected(self):
        bad = struct.pack(">I", 4) + b"\xff\xfe\x00\x01"
        with pytest.raises(ProtocolError):
            read_frame(frame_reader(bad))

    @pytest.mark.parametrize(
        "body, message",
        [(b"[" * 100_000, "nests JSON deeper"), (b"[" + b"1" * 5000 + b"]", "not valid UTF-8 JSON")],
        ids=["deep-nesting", "long-integer"],
    )
    def test_unparsable_body_is_a_protocol_error(self, body, message):
        with pytest.raises(ProtocolError, match=message):
            read_frame(frame_reader(struct.pack(">I", len(body)) + body))

    @given(st.one_of(st.binary(max_size=64), st.binary(max_size=60).map(length_prefixed)))
    @example(length_prefixed(b"[" * 100_000))
    @example(length_prefixed(b'{"a":' + b"1" * 5000 + b"}"))
    @example(length_prefixed(b'{"a":NaN}'))
    @example(length_prefixed(b"[]"))
    @settings(max_examples=500, deadline=None)
    def test_any_bytes_give_an_object_or_a_typed_error(self, blob):
        try:
            obj, raw = read_frame(frame_reader(blob))
        except (ProtocolError, ConnectionError):
            return
        assert isinstance(obj, dict)
        assert struct.pack(">I", len(raw)) + raw == blob[: 4 + len(raw)]


VOCAB_SIZE = 100


class TestRequestValidation:
    def base_logits(self):
        return {
            "version": PROTOCOL_VERSION,
            "kind": "logits",
            "session": "s",
            "instruction": "do",
            "prefix_ids": [0, 1],
            "top_k": 10,
        }

    def test_valid_request_passes(self):
        validate_request(self.base_logits(), VOCAB_SIZE)

    def test_unknown_field_rejected(self):
        req = self.base_logits()
        req["context"] = "smuggled"
        with pytest.raises(ProtocolError, match="unknown keys"):
            validate_request(req, VOCAB_SIZE)

    def test_missing_field_rejected(self):
        req = self.base_logits()
        del req["instruction"]
        with pytest.raises(ProtocolError, match="missing"):
            validate_request(req, VOCAB_SIZE)

    def test_version_mismatch_rejected(self):
        req = self.base_logits()
        req["version"] = 2
        with pytest.raises(ProtocolError, match="version"):
            validate_request(req, VOCAB_SIZE)

    @pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["bool", "float", "string"])
    def test_version_must_be_an_integer(self, version):
        req = self.base_logits()
        req["version"] = version
        with pytest.raises(ProtocolError, match="version"):
            validate_request(req, VOCAB_SIZE)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="kind"):
            validate_request({"version": 1, "kind": "exfiltrate"}, VOCAB_SIZE)

    def test_bad_prefix_ids_rejected(self):
        req = self.base_logits()
        req["prefix_ids"] = ["a"]
        with pytest.raises(ProtocolError):
            validate_request(req, VOCAB_SIZE)

    @pytest.mark.parametrize("ids", [[True], [0, False]])
    def test_boolean_prefix_ids_rejected(self, ids):
        req = self.base_logits()
        req["prefix_ids"] = ids
        with pytest.raises(ProtocolError, match="non-negative integers"):
            validate_request(req, VOCAB_SIZE)

    def test_boolean_top_k_rejected(self):
        req = self.base_logits()
        req["top_k"] = True
        with pytest.raises(ProtocolError, match="top_k"):
            validate_request(req, VOCAB_SIZE)

    def test_out_of_vocab_prefix_id_rejected(self):
        req = self.base_logits()
        req["prefix_ids"] = [0, 49, 50, 70]
        with pytest.raises(ProtocolError, match="entry 50 outside vocab of size 50"):
            validate_request(req, 50)
        req["prefix_ids"] = [0, 49]
        validate_request(req, 50)

    def base_generate(self):
        return {
            "version": PROTOCOL_VERSION,
            "kind": "generate",
            "session": "s",
            "instruction": "do",
            "prefix_ids": [0],
            "sampling": sampling_to_wire(SamplingConfig(max_new_tokens=4)),
        }

    @pytest.mark.parametrize(
        "name, value",
        [
            ("greedy", "false"),
            ("greedy", 0),
            ("max_new_tokens", True),
            ("max_new_tokens", 4.0),
            ("seed", False),
            ("seed", "1"),
            ("temperature", "hot"),
            ("temperature", True),
            ("top_p", None),
        ],
    )
    def test_mistyped_sampling_value_rejected(self, name, value):
        req = self.base_generate()
        req["sampling"][name] = value
        with pytest.raises(ProtocolError, match=f"sampling.{name} must be"):
            validate_request(req, VOCAB_SIZE)

    def test_max_new_tokens_is_capped(self):
        req = self.base_generate()
        req["sampling"]["max_new_tokens"] = MAX_NEW_TOKENS_CAP + 1
        with pytest.raises(ProtocolError, match="max_new_tokens exceeds the cap"):
            validate_request(req, VOCAB_SIZE)
        for allowed in (MAX_NEW_TOKENS_CAP, SamplingConfig().max_new_tokens):
            req["sampling"]["max_new_tokens"] = allowed
            validate_request(req, VOCAB_SIZE)

    @pytest.mark.parametrize("name, value", [("temperature", 1), ("top_p", 1), ("greedy", True)])
    def test_well_typed_sampling_value_passes(self, name, value):
        req = self.base_generate()
        req["sampling"][name] = value
        validate_request(req, VOCAB_SIZE)
        assert getattr(sampling_from_wire(req["sampling"]), name) == value


@pytest.fixture(scope="module")
def served_world():
    world = build_world(3)
    llm = large_backend(world)
    slms = small_backends(world)
    handle = serve(llm, ("127.0.0.1", 0), ServeConfig(capture_payloads=True))
    yield world, llm, slms, handle
    handle.stop()


class TestServiceRoundTrip:
    def test_hello_agrees_on_version_and_vocab(self, served_world):
        world, llm, _, handle = served_world
        client = ServiceClient(handle.address, session_id="hello-test")
        assert client.hello(world.vocab.digest()) == world.vocab.digest()
        client.close()

    def test_vocab_mismatch_is_fatal(self, served_world):
        _, _, _, handle = served_world
        client = ServiceClient(handle.address)
        with pytest.raises(IncompatibleVocabError):
            client.hello("f" * 16)
        client.close()

    def test_logits_equal_in_process_bit_for_bit(self, served_world):
        world, llm, _, handle = served_world
        record = world.test_records[0]
        client = ServiceClient(handle.address, session_id="logits-test")
        client.hello(world.vocab.digest())
        prefix = tuple(world.tokenizer.tokenize(record.reference)[:3])
        remote = client.next_logits(record.general_task, prefix, 10, world.vocab.size)
        local = top_k_project(
            llm.next_distribution(
                ConditioningInput(record.general_task, prefix, None, Role.LARGE_CLOUD)
            ),
            10,
        )
        assert remote == local
        assert struct.pack("<10d", *remote.sparse_probs) == struct.pack("<10d", *local.sparse_probs)
        assert type(remote.sparse_ids) is tuple and type(remote.sparse_probs) is tuple
        assert {type(i) for i in remote.sparse_ids} == {int}
        assert {type(p) for p in remote.sparse_probs} == {float}
        client.close()

    def test_top_k_respected(self, served_world):
        world, _, _, handle = served_world
        client = ServiceClient(handle.address)
        client.hello(world.vocab.digest())
        remote = client.next_logits("anything", (), 3, world.vocab.size)
        assert len(remote.sparse_ids) <= 3
        client.close()

    def test_unknown_extra_field_rejected_on_wire(self, served_world):
        _, _, _, handle = served_world
        with socket.create_connection(handle.address, timeout=5) as sock:
            payload = {
                "version": 1,
                "kind": "logits",
                "session": "x",
                "instruction": "hi",
                "prefix_ids": [],
                "top_k": 5,
                "smuggled": "context",
            }
            sock.sendall(encode_frame(payload))
            def read_exactly(n):
                buf = b""
                while len(buf) < n:
                    chunk = sock.recv(n - len(buf))
                    if not chunk:
                        raise ConnectionError()
                    buf += chunk
                return buf
            obj, _ = read_frame(read_exactly)
        assert obj["kind"] == "error"
        assert "unknown keys: ['smuggled']" in obj["error"]

    @pytest.mark.parametrize("kind", ["logits", "generate"])
    def test_out_of_vocab_prefix_is_the_clients_fault(self, served_world, kind):
        world, _, _, handle = served_world
        client = ServiceClient(handle.address)
        client.hello(world.vocab.digest())
        prefix = (0, world.vocab.size)
        with pytest.raises(ProtocolError) as info:
            if kind == "logits":
                client.next_logits("hi", prefix, 5, world.vocab.size)
            else:
                client.generate("hi", prefix, SamplingConfig(max_new_tokens=2), world.vocab.size)
        client.close()
        message = str(info.value)
        assert f"entry {world.vocab.size} outside vocab" in message
        assert "internal" not in message

    def test_boolean_prefix_id_is_the_clients_fault(self, served_world):
        _, _, _, handle = served_world
        payload = {
            "version": 1,
            "kind": "logits",
            "session": "x",
            "instruction": "hi",
            "prefix_ids": [True],
        }
        with socket.create_connection(handle.address, timeout=5) as sock:
            sock.sendall(encode_frame(payload))
            obj, _ = read_frame(sock.makefile("rb").read)
        assert obj["kind"] == "error"
        assert obj["error"] == "prefix_ids must be a list of non-negative integers"

    def test_generate_matches_local_decode(self, served_world):
        world, llm, _, handle = served_world
        from cogen.decoder import decode_single

        record = world.test_records[1]
        sampling = SamplingConfig(seed=77, max_new_tokens=20)
        client = ServiceClient(handle.address)
        client.hello(world.vocab.digest())
        remote = client.generate(record.general_task, (), sampling, world.vocab.size)
        local = decode_single(llm, (record.general_task, None), sampling)
        assert remote == local
        client.close()

    def test_generate_continues_from_a_prefix(self, path_backends, abc_vocab):
        # The large side spells A B D; from the prefix A it goes on with B D.
        _, llm = path_backends
        with serve(llm, ("127.0.0.1", 0)) as handle:
            client = ServiceClient(handle.address)
            client.hello(abc_vocab.digest())
            sampling = SamplingConfig(greedy=True, max_new_tokens=8)
            tokens = client.generate("A B", (abc_vocab.id_of("A"),), sampling, abc_vocab.size)
            client.close()
        assert [abc_vocab.token(t) for t in tokens] == ["B", "D"]

    def test_a_top_k_of_zero_is_the_clients_fault(self, served_world):
        world, _, _, handle = served_world
        client = ServiceClient(handle.address)
        client.hello(world.vocab.digest())
        with pytest.raises(ProtocolError, match="^service rejected the request: top_k must be a positive integer$"):
            client.next_logits("hi", (), 0, world.vocab.size)
        client.close()

    def test_a_generate_at_temperature_zero_is_the_clients_fault(self, served_world):
        _, _, _, handle = served_world
        payload = {
            "version": 1,
            "kind": "generate",
            "session": "x",
            "instruction": "hi",
            "prefix_ids": [],
            "sampling": {**sampling_to_wire(SamplingConfig()), "temperature": 0.0},
        }
        with socket.create_connection(handle.address, timeout=5) as sock:
            sock.sendall(encode_frame(payload))
            obj, _ = read_frame(sock.makefile("rb").read)
        assert obj["kind"] == "error"
        assert obj["error"] == "bad sampling config on the wire: temperature must be > 0"

    def test_dead_address_is_transport_error(self):
        client = ServiceClient(("127.0.0.1", 1))
        with pytest.raises(TransportError):
            client.hello("0" * 16)

    def test_service_requires_large_cloud_role(self, abc_vocab):
        small = path_backend(abc_vocab, Role.SMALL_DEVICE, ["A"])
        with pytest.raises(InvalidConfigError):
            serve(small, ("127.0.0.1", 0))

    def test_a_stop_returns_within_50_ms(self, path_backends):
        # The median of three stops, each of a service that answered once.
        _, llm = path_backends
        took = []
        for _ in range(3):
            handle = serve(llm, ("127.0.0.1", 0))
            client = ServiceClient(handle.address)
            client.hello(llm.vocab.digest())
            client.close()
            start = time.perf_counter()
            handle.stop()
            took.append(time.perf_counter() - start)
            assert not handle._thread.is_alive()
        assert sorted(took)[1] < 0.050, took


def serve_tampered(llm, entries=None, tokens=None):
    """Serve ``llm``, but answer every logits request with ``entries`` and
    every generate request with ``tokens`` (when given)."""
    handle = serve(llm, ("127.0.0.1", 0))
    answer = handle.service.answer

    def tampered(obj):
        reply = answer(obj)
        if obj["kind"] == "logits" and entries is not None:
            reply["entries"] = entries
        if obj["kind"] == "generate" and tokens is not None:
            reply["tokens"] = tokens
        return reply

    handle.service.answer = tampered
    return handle


HALF, QUARTER, NAN = float_to_bits(0.5), float_to_bits(0.25), "7ff8000000000000"


class TestMalformedLogitsReply:
    """A malformed logits reply is the server's fault: the client rejects
    it where it enters the program, as a ProtocolError."""

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([[0, HALF], [6, QUARTER]], "out of vocab range"),
            ([[0, NAN]], "finite"),
            ([[0, QUARTER], [1, HALF]], "sorted"),
            ([[0, HALF], [0, QUARTER]], "unique"),
            ([["0", HALF]], "pairs"),
            ([[0, "zz" * 8]], "bad float bit pattern"),
            ([[0, HALF[:4]]], "16 hex digits"),
            ([[0, float_to_bits(-0.25)]], r"must lie in \[0, 1\]"),
            ([[0, float_to_bits(0.75)], [1, HALF]], "exceeds 1"),
            ([], "non-empty"),
        ],
        ids=[
            "out-of-vocab", "nan-bits", "unsorted", "duplicate-ids", "string-id",
            "non-hex-bits", "short-bits", "negative-bits", "mass-over-1", "no-entries",
        ],
    )
    def test_client_rejects(self, path_backends, abc_vocab, entries, message):
        _, llm = path_backends
        with serve_tampered(llm, entries) as handle:
            client = ServiceClient(handle.address)
            client.hello(abc_vocab.digest())
            with pytest.raises(ProtocolError, match=message):
                client.next_logits("A", (), 5, abc_vocab.size)
            client.close()

    def test_out_of_vocab_reply_fails_decode_as_protocol_error(
        self, path_backends, abc_vocab, simple_record, greedy_sampling
    ):
        slm, llm = path_backends
        with serve_tampered(llm, [[6, HALF]]) as handle:
            client = ServiceClient(handle.address)
            session = session_for_record(
                simple_record, DecodeMode.fusion(FusionStrategy.mean()), greedy_sampling,
                slm, RemoteBackend(client, abc_vocab),
            )
            with pytest.raises(ProtocolError, match="out of vocab range"):
                decode(session)
            client.close()


class TestMalformedGenerateReply:
    """A generate reply's tokens must be in-vocab ints, or the reply is the
    server's fault and fails as a ProtocolError."""

    @pytest.mark.parametrize(
        "tokens",
        [[0, 99], [0, -1], [True], [0, 1.0], ["0"], "0 1"],
        ids=["out-of-vocab", "negative", "bool", "float", "string", "not-a-list"],
    )
    def test_client_rejects(self, path_backends, abc_vocab, tokens):
        _, llm = path_backends
        with serve_tampered(llm, tokens=tokens) as handle:
            client = ServiceClient(handle.address)
            client.hello(abc_vocab.digest())
            with pytest.raises(ProtocolError, match="vocab of size 6"):
                client.generate("A", (), SamplingConfig(max_new_tokens=2), abc_vocab.size)
            client.close()

    def test_out_of_vocab_tokens_fail_decode_as_protocol_error(
        self, path_backends, abc_vocab, simple_record, greedy_sampling
    ):
        slm, llm = path_backends
        with serve_tampered(llm, tokens=[0, 99]) as handle:
            client = ServiceClient(handle.address)
            session = session_for_record(
                simple_record, DecodeMode.llm_no_context(), greedy_sampling,
                slm, RemoteBackend(client, abc_vocab),
            )
            with pytest.raises(ProtocolError, match="vocab of size 6"):
                decode(session)
            client.close()


def test_deeply_nested_frame_gets_an_error_frame(path_backends):
    """A body the JSON parser cannot nest that deep is the client's fault:
    the server answers with an error frame, then serves new connections."""
    _, llm = path_backends
    handle = serve(llm, ("127.0.0.1", 0))
    try:
        with socket.create_connection(handle.address, timeout=10) as sock:
            sock.sendall(length_prefixed(b"[" * 100_000))
            reply, _ = read_frame(sock.makefile("rb").read)
        assert reply["kind"] == "error"
        assert "nests JSON deeper" in reply["error"]
        client = ServiceClient(handle.address)
        assert client.hello(llm.vocab.digest()) == llm.vocab.digest()
        client.close()
    finally:
        handle.stop()


def test_client_reconnects_after_an_error_frame(served_world):
    """The server closes the connection after an error frame; the client
    drops that socket, so its next request opens a fresh one."""
    world, llm, _, handle = served_world
    client = ServiceClient(handle.address)
    client.hello(world.vocab.digest())
    with pytest.raises(ProtocolError, match="outside vocab"):
        client.next_logits("hi", (world.vocab.size,), 5, world.vocab.size)
    got = client.next_logits("hi", (0,), 5, world.vocab.size)
    want = top_k_project(
        llm.next_distribution(ConditioningInput("hi", (0,), None, Role.LARGE_CLOUD)), 5
    )
    assert got == want
    client.close()


class FailingBackend:
    """A large side whose requests with the instruction "explode" raise."""

    role = Role.LARGE_CLOUD

    def __init__(self, inner):
        self.inner, self.vocab = inner, inner.vocab

    def next_distribution(self, request):
        if request.instruction == "explode":
            raise RuntimeError("backend blew up")
        return self.inner.next_distribution(request)


def test_a_backend_failure_is_an_internal_error_and_the_client_reconnects(path_backends, abc_vocab):
    """A backend that raises is answered with an ``internal:`` error frame
    and a closed connection; the client's next call connects and greets
    the service again."""
    _, llm = path_backends
    with serve(FailingBackend(llm), ("127.0.0.1", 0)) as handle:
        client = ServiceClient(handle.address)
        client.hello(abc_vocab.digest())
        with pytest.raises(ProtocolError, match="^service rejected the request: internal: backend blew up$"):
            client.next_logits("explode", (), 5, abc_vocab.size)
        got = client.next_logits("A", (), 5, abc_vocab.size)
        client.close()
        kinds = [entry.kind for entry in handle.service.entries]
    assert got.top1() == (abc_vocab.id_of("A"), 1.0)
    assert kinds == ["hello", "logits", "hello", "logits"]


def test_client_drops_the_socket_after_a_reply_it_cannot_parse():
    """A reply the client cannot parse leaves its socket out of step: the
    bytes after it answer no request. The client closes that socket, so
    its next request cannot take them for its answer."""
    listener = socket.create_server(("127.0.0.1", 0))
    vocab_hash = "0" * 16
    leftover = {"version": 1, "kind": "logits", "vocab_hash": vocab_hash,
                "entries": [[0, float_to_bits(1.0)]]}

    def fake_service():
        conn, _ = listener.accept()
        listener.close()  # a reconnect finds no service
        with conn, conn.makefile("rb") as stream:
            read_frame(stream.read)
            conn.sendall(encode_frame({"version": 1, "kind": "hello", "vocab_hash": vocab_hash}))
            read_frame(stream.read)
            conn.sendall(length_prefixed(b"not json") + encode_frame(leftover))
            try:
                stream.read()  # until the client drops the connection
            except ConnectionResetError:
                pass

    thread = threading.Thread(target=fake_service, daemon=True)
    thread.start()
    client = ServiceClient(listener.getsockname())
    try:
        client.hello(vocab_hash)
        with pytest.raises(ProtocolError, match="frame is not valid UTF-8 JSON"):
            client.next_logits("A", (), 5, 6)
        with pytest.raises(TransportError, match="cannot reach"):
            client.next_logits("B", (1,), 5, 6)
    finally:
        client.close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_reconnect_rejects_a_service_with_another_vocabulary(served_world, path_backends, abc_vocab):
    """The handshake repeated on reconnect checks the hash agreed at first
    connect: a service that comes back serving another vocabulary fails
    every call instead of answering it."""
    world, _, _, handle = served_world
    _, other_llm = path_backends
    assert abc_vocab.digest() != world.vocab.digest()
    client = ServiceClient(handle.address)
    client.hello(world.vocab.digest())
    with serve(other_llm, ("127.0.0.1", 0)) as other:
        client.close()
        client.address = other.address
        for _ in range(2):
            with pytest.raises(IncompatibleVocabError):
                client.next_logits("A", (), 5, abc_vocab.size)
        assert client.server_vocab_hash == world.vocab.digest()
    client.close()


@pytest.mark.parametrize("vocab_hash", [None, 7], ids=["missing", "not-a-string"])
def test_hello_reply_without_a_vocab_hash_is_the_servers_fault(path_backends, abc_vocab, vocab_hash):
    _, llm = path_backends
    with serve(llm, ("127.0.0.1", 0)) as handle:
        answer = handle.service.answer

        def tampered(obj):
            reply = answer(obj)
            if vocab_hash is None:
                del reply["vocab_hash"]
            else:
                reply["vocab_hash"] = vocab_hash
            return reply

        handle.service.answer = tampered
        client = ServiceClient(handle.address)
        with pytest.raises(ProtocolError, match="vocab_hash"):
            client.hello(abc_vocab.digest())
        client.close()


@settings(max_examples=200, deadline=None)
@given(
    st.builds(
        SamplingConfig,
        temperature=st.floats(0.01, 10.0),
        top_p=st.floats(0.01, 1.0),
        max_new_tokens=st.integers(1, 5000),
        seed=st.integers(0, 2**64 - 1),
        greedy=st.booleans(),
    )
)
def test_sampling_round_trips_through_a_generate_frame(config):
    frame = encode_frame(
        {
            "version": PROTOCOL_VERSION,
            "kind": "generate",
            "session": "s",
            "instruction": "x",
            "prefix_ids": [],
            "sampling": sampling_to_wire(config),
        }
    )
    obj, _ = read_frame(frame_reader(frame))
    validate_request(obj, vocab_size=4)
    assert sampling_from_wire(obj["sampling"]) == config


class TestRemoteBackendPrivacy:
    """The client refuses context itself, whatever the request's waiver
    says: the context-upload baseline works in process only."""

    class StubClient:
        def __init__(self):
            self.calls = []

        def hello(self, expected_vocab_hash=None):
            return expected_vocab_hash

        def next_logits(self, *args):
            self.calls.append(("logits", args))

        def generate(self, *args):
            self.calls.append(("generate", args))

    @pytest.mark.parametrize("waived", [False, True])
    def test_next_distribution_refuses_context(self, abc_vocab, waived):
        client = self.StubClient()
        remote = RemoteBackend(client, abc_vocab)
        # Without the waiver the request can only be built addressed to
        # the small side; the backend must still refuse it.
        role = Role.LARGE_CLOUD if waived else Role.SMALL_DEVICE
        request = ConditioningInput(
            "A", (), ContextBundle(profile="secret profile"), role, context_upload_waiver=waived
        )
        with pytest.raises(PrivacyContractError, match="large_cloud backend given context"):
            remote.next_distribution(request)
        assert client.calls == []

    def test_context_upload_baseline_is_refused_before_generate(
        self, abc_vocab, simple_record, greedy_sampling
    ):
        client = self.StubClient()
        slm = path_backend(abc_vocab, Role.SMALL_DEVICE, ["A"])
        session = session_for_record(
            simple_record, DecodeMode.llm_with_context(), greedy_sampling,
            slm, RemoteBackend(client, abc_vocab),
        )
        with pytest.raises(PrivacyContractError, match="large_cloud backend given context"):
            decode(session)
        assert client.calls == []


def test_top_k_is_capped_at_64_entries(world0_backends, world0):
    llm, _ = world0_backends
    assert world0.vocab.size == 123
    with serve(llm, ("127.0.0.1", 0)) as handle:
        client = ServiceClient(handle.address)
        client.hello(world0.vocab.digest())
        reply = client.next_logits("anything", (), 1000, world0.vocab.size)
        client.close()
    assert len(reply.sparse_ids) == 64


def test_remote_at_the_top_k_cap_matches_in_process(world0_backends, world0):
    """A reply longer than the fused step's cut is cut to the same top-k
    view as the in-process distribution, so remote decode emits the
    in-process tokens."""
    llm, slms = world0_backends
    mode = DecodeMode.fusion(FusionStrategy.mean())
    with serve(llm, ("127.0.0.1", 0)) as handle:
        client = ServiceClient(handle.address, session_id="equiv-top-k-cap")
        remote_llm = RemoteBackend(client, world0.vocab, top_k=TOP_K_CAP)
        for seed in range(3):
            for record in world0.test_records[:10]:
                sampling = SamplingConfig(seed=seed, max_new_tokens=40)
                slm = slms[record.user_id]
                local, local_trace = traced_decode(session_for_record(record, mode, sampling, slm, llm))
                remote, remote_trace = traced_decode(
                    session_for_record(record, mode, sampling, slm, remote_llm)
                )
                assert local.token_ids == remote.token_ids
                assert local_trace.steps == remote_trace.steps
        client.close()


def test_generate_over_the_token_cap_is_refused(world0_backends, world0):
    """One generate request cannot buy unbounded server time: a token budget
    over the cap gets an error frame before the backend runs."""
    llm, _ = world0_backends
    with serve(llm, ("127.0.0.1", 0)) as handle:
        client = ServiceClient(handle.address)
        client.hello(world0.vocab.digest())
        over = SamplingConfig(max_new_tokens=MAX_NEW_TOKENS_CAP + 1)
        with pytest.raises(ProtocolError, match="max_new_tokens exceeds the cap"):
            client.generate("anything", (), over, world0.vocab.size)
        # The client reconnects, and a request within the cap is served.
        within = SamplingConfig(max_new_tokens=4)
        assert len(client.generate("anything", (), within, world0.vocab.size)) <= 4
        client.close()


class TestSplitExecutionEquivalence:
    @pytest.mark.parametrize(
        "strategy",
        [
            FusionStrategy.fixed(0.3),
            FusionStrategy.mean(),
            FusionStrategy.max_pool(),
        ],
        ids=["fixed", "mean", "max"],
    )
    def test_remote_matches_in_process(self, served_world, strategy):
        world, llm, slms, handle = served_world
        client = ServiceClient(handle.address, session_id=f"equiv-{strategy.kind}")
        remote_llm = RemoteBackend(client, world.vocab, top_k=10)
        for seed, record in zip(range(3), world.test_records):
            sampling = SamplingConfig(seed=seed, max_new_tokens=24)
            slm = slms[record.user_id]
            local, local_trace = traced_decode(session_for_record(
                record, DecodeMode.fusion(strategy), sampling, slm, llm))
            remote, remote_trace = traced_decode(session_for_record(
                record, DecodeMode.fusion(strategy), sampling, slm, remote_llm))
            assert local.token_ids == remote.token_ids
            assert local_trace.steps == remote_trace.steps
        client.close()

    def test_first_k_remote_matches_in_process(self, served_world):
        world, llm, slms, handle = served_world
        client = ServiceClient(handle.address, session_id="equiv-first-k")
        remote_llm = RemoteBackend(client, world.vocab, top_k=10)
        record = world.test_records[0]
        slm = slms[record.user_id]
        for n in (0, 2, 5):
            sampling = SamplingConfig(seed=n + 100, max_new_tokens=24)
            mode = DecodeMode.first_k_mode(n, FusionStrategy.mean())
            local, local_trace = traced_decode(session_for_record(record, mode, sampling, slm, llm))
            remote, remote_trace = traced_decode(
                session_for_record(record, mode, sampling, slm, remote_llm)
            )
            assert local.token_ids == remote.token_ids
            assert local_trace.steps == remote_trace.steps
        client.close()


    def test_remote_generate_trace_says_it_has_no_probabilities(self, served_world):
        """A remote llm-only decode emits the in-process tokens, but the
        generate reply carries no probabilities: its trace says so in one
        event, and the in-process trace carries none."""
        world, llm, slms, handle = served_world
        client = ServiceClient(handle.address, session_id="equiv-generate-trace")
        remote_llm = RemoteBackend(client, world.vocab, top_k=10)
        record = world.test_records[0]
        sampling = SamplingConfig(seed=0, max_new_tokens=20)
        mode = DecodeMode.llm_no_context()
        local, local_trace = traced_decode(
            session_for_record(record, mode, sampling, slms[record.user_id], llm)
        )
        remote, remote_trace = traced_decode(
            session_for_record(record, mode, sampling, slms[record.user_id], remote_llm)
        )
        client.close()
        assert local.token_ids == remote.token_ids
        assert local.token_ids
        assert local_trace.events == []
        assert len(remote_trace.events) == 1
        assert "no probabilities" in remote_trace.events[0]
        assert [s.p_l_top1 for s in remote_trace.steps] == [0.0] * len(remote.token_ids)


class TestConcurrentSessions:
    def test_parallel_sessions_match_sequential_results(self, served_world):
        # many sessions may run concurrently; they share the immutable
        # backends but never share RNG state, so results are independent
        # of scheduling
        import threading

        world, llm, slms, handle = served_world
        jobs = []
        for i, record in enumerate(world.test_records[:6]):
            jobs.append((record, SamplingConfig(seed=1000 + i, max_new_tokens=16)))

        def run_one(record, sampling):
            client = ServiceClient(handle.address, session_id=f"conc-{sampling.seed}")
            remote_llm = RemoteBackend(client, world.vocab, top_k=10)
            try:
                return decode(
                    session_for_record(
                        record, DecodeMode.fusion(FusionStrategy.mean()), sampling,
                        slms[record.user_id], remote_llm,
                    )
                )
            finally:
                client.close()

        sequential = [run_one(record, sampling).token_ids for record, sampling in jobs]
        results = [None] * len(jobs)
        errors = []

        def worker(idx):
            try:
                results[idx] = run_one(*jobs[idx]).token_ids
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert results == sequential


def spy_on_opens(monkeypatch, path) -> list:
    """Every file object ``open`` returns for ``path`` from now on."""
    opened = []
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        handle = real_open(file, *args, **kwargs)
        if str(file) == str(path):
            opened.append(handle)
        return handle

    monkeypatch.setattr(builtins, "open", spy)
    return opened


class TestRequestLogIsolation:
    def test_the_log_is_opened_once_and_closed_at_stop(self, tmp_path, path_backends, abc_vocab, monkeypatch):
        _, llm = path_backends
        log_path = tmp_path / "requests.jsonl"
        opened = spy_on_opens(monkeypatch, log_path)
        handle = serve(llm, ("127.0.0.1", 0), ServeConfig(log_path=str(log_path)))
        try:
            client = ServiceClient(handle.address)
            try:
                for _ in range(5):
                    client.next_logits("A", (), 5, abc_vocab.size)
            finally:
                client.close()
            assert len(opened) == 1
            # A hello and five logits rows, each in the file before its reply.
            assert len(log_path.read_text().splitlines()) == 6
        finally:
            handle.stop()
        assert opened[0].closed

    def test_a_stopped_service_answers_no_further_request(self, tmp_path, path_backends, abc_vocab):
        _, llm = path_backends
        log_path = tmp_path / "requests.jsonl"
        handle = serve(llm, ("127.0.0.1", 0), ServeConfig(log_path=str(log_path)))
        client = ServiceClient(handle.address)
        try:
            client.next_logits("A", (), 5, abc_vocab.size)
            handle.stop()
            with pytest.raises(TransportError):
                client.next_logits("A", (0,), 5, abc_vocab.size)
        finally:
            client.close()
            handle.stop()
        # The hello and the one answered logits request.
        assert len(log_path.read_text().splitlines()) == 2

    def test_a_failed_bind_closes_the_log(self, tmp_path, path_backends, monkeypatch):
        _, llm = path_backends
        log_path = tmp_path / "requests.jsonl"
        opened = spy_on_opens(monkeypatch, log_path)
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            with pytest.raises(ServiceStartupError, match="cannot bind"):
                serve(llm, taken.getsockname(), ServeConfig(log_path=str(log_path)))
        assert len(opened) == 1
        assert opened[0].closed

    def test_default_log_keeps_digests_only(self, tmp_path, served_world):
        world, llm, _, _ = served_world
        log_path = tmp_path / "requests.jsonl"
        handle = serve(llm, ("127.0.0.1", 0), ServeConfig(log_path=str(log_path)))
        try:
            client = ServiceClient(handle.address)
            client.hello(world.vocab.digest())
            client.next_logits("an instruction to digest", (), 5, world.vocab.size)
            client.close()
        finally:
            handle.stop()
        rows = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert len(rows) == 2
        assert all(set(r) == {"seq", "kind", "session", "digest", "size"} for r in rows)
        assert "instruction to digest" not in log_path.read_text()

    def test_debug_payloads_flag_persists_raw_bytes(self, tmp_path, served_world):
        world, llm, _, _ = served_world
        log_path = tmp_path / "requests-debug.jsonl"
        handle = serve(
            llm, ("127.0.0.1", 0), ServeConfig(log_path=str(log_path), debug_payloads=True)
        )
        try:
            client = ServiceClient(handle.address)
            client.hello(world.vocab.digest())
            client.close()
        finally:
            handle.stop()
        rows = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert all("payload_hex" in r for r in rows)

    def test_a_log_path_that_cannot_be_opened_fails_at_start(self, tmp_path, path_backends):
        _, llm = path_backends
        log_path = tmp_path / "missing" / "requests.jsonl"
        with pytest.raises(InvalidConfigError, match="request log") as info:
            serve(llm, ("127.0.0.1", 0), ServeConfig(log_path=str(log_path)))
        assert str(log_path) in str(info.value)


class TestServerSidePrivacyAudit:
    def test_fusion_session_passes_audit(self, served_world):
        world, _, slms, handle = served_world
        record = world.test_records[0]
        client = ServiceClient(handle.address, session_id="audit-pass")
        remote_llm = RemoteBackend(client, world.vocab, top_k=10)
        sampling = SamplingConfig(seed=5, max_new_tokens=16)
        decode(session_for_record(
            record, DecodeMode.fusion(FusionStrategy.mean()), sampling,
            slms[record.user_id], remote_llm))
        verdict = privacy_audit(handle.service.request_log, record.context_bundle())
        assert verdict.passed
        assert verdict.requests_scanned > 0
        client.close()

    def test_planted_leak_fails_with_located_offsets(self, served_world):
        world, _, _, handle = served_world
        record = world.test_records[0]
        client = ServiceClient(handle.address, session_id="audit-leak")
        client.hello(world.vocab.digest())
        # deliberately smuggle profile text inside the instruction field
        leaky_instruction = f"{record.general_task} {record.profile}"
        client.next_logits(leaky_instruction, (), 10, world.vocab.size)
        verdict = privacy_audit(handle.service.request_log, record.context_bundle())
        assert not verdict.passed
        hit = verdict.hits[0]
        assert hit.field == "profile"
        assert hit.offset >= 0
        client.close()

    @pytest.mark.parametrize(
        "mode", [DecodeMode.llm_no_context(), DecodeMode.sketch("full_content")],
        ids=["llm-noctx", "sketch-full-content"],
    )
    def test_remote_generate_is_audited(self, served_world, mode):
        """The one generate request of a remote single-backend decode is
        audited; a leak planted in its instruction FAILs the audit, as it
        does in process, and both placements emit the same tokens."""
        world, llm, slms, handle = served_world
        record = world.test_records[0]
        leaky = replace(record, general_task=f"{record.general_task} {record.profile}")
        client = ServiceClient(handle.address, session_id="audit-generate")
        remote_llm = RemoteBackend(client, world.vocab, top_k=10)
        sampling = SamplingConfig(seed=4, max_new_tokens=20)
        for rec, honest in ((record, True), (leaky, False)):
            results = []
            for backend in (remote_llm, llm):
                log = AuditLog()
                session = session_for_record(rec, mode, sampling, slms[rec.user_id], backend)
                tokens = decode(session, audit_log=log).token_ids
                assert privacy_audit(log, rec.context_bundle()).passed is honest
                results.append((tokens, len(log)))
            (remote_tokens, remote_payloads), (local_tokens, local_payloads) = results
            assert remote_tokens == local_tokens
            assert remote_payloads == 1 and local_payloads >= 1
        client.close()

    def test_first_k_payload_prefix_lengths_bounded(self, served_world):
        world, _, slms, handle = served_world
        record = world.test_records[2]
        before = len(handle.service.request_log.records)
        client = ServiceClient(handle.address, session_id="audit-first-k")
        remote_llm = RemoteBackend(client, world.vocab, top_k=10)
        n = 3
        sampling = SamplingConfig(seed=9, max_new_tokens=16)
        decode(session_for_record(
            record, DecodeMode.first_k_mode(n, FusionStrategy.mean()), sampling,
            slms[record.user_id], remote_llm))
        new_records = handle.service.request_log.records[before:]
        logits_payloads = [
            json.loads(r.payload.decode("utf-8"))
            for r in new_records
            if json.loads(r.payload.decode("utf-8")).get("kind") == "logits"
        ]
        assert 1 <= len(logits_payloads) <= n
        assert all(len(p["prefix_ids"]) <= n for p in logits_payloads)
        client.close()
