"""The cloud half of the split: a TCP logit service, its client, and the
request log that feeds the privacy audit.

Frames are length-prefixed (unsigned 32-bit big-endian byte count) UTF-8
JSON objects with sorted keys. Probabilities cross the wire as 16-hex-
digit IEEE-754 bit patterns, so the client reconstructs exactly the
doubles the server computed: remote and in-process decoding are
bit-identical, which the test suite checks token for token.

The server cuts its backend's own distribution to the requested top-k
(at most ``TOP_K_CAP`` entries); the cut is a transport feature, not a
renormalization, so the kept probabilities are the backend's own. The
request schema has no context field, so private context cannot cross
this boundary even on purpose.

docs/protocol.md documents every field and pins two golden frames.
"""

from __future__ import annotations

import hashlib
import json
import socket
import socketserver
import struct
import threading
from dataclasses import asdict, dataclass, field
from functools import partial

from .audit import AuditLog
from .backends import Backend, ConditioningInput, Role, check_context_blind
from .core import SAMPLING_TYPES, SamplingConfig, TokenDistribution, top_k_project
from .corpus import check_fields, parse_object
from .decoder import decode_single
from .errors import (
    IncompatibleVocabError,
    InvalidConfigError,
    InvalidDistributionError,
    ProtocolError,
    ServiceStartupError,
    TransportError,
)
from .fusion import TOP_K

PROTOCOL_VERSION = 1
MAX_FRAME_BYTES = 1 << 24
# Most entries one logits reply carries, whatever top_k the client asks for.
TOP_K_CAP = 64
# Seconds a client waits to connect, and then on each socket operation.
CLIENT_TIMEOUT_S = 10.0
# Most tokens one generate request may ask for; SamplingConfig's default fits.
MAX_NEW_TOKENS_CAP = 8192
# Seconds between the serve loop's checks for a stop: the most a stop waits.
STOP_POLL_S = 0.02

_ENVELOPE = {"version": int, "kind": str, "session": str}
_REQUEST_FIELDS = {
    "hello": {**_ENVELOPE, "vocab_hash": str},
    "logits": {**_ENVELOPE, "instruction": str, "prefix_ids": list, "top_k": int},
    "generate": {**_ENVELOPE, "instruction": str, "prefix_ids": list, "sampling": dict},
}
# Every field is required but a logits request's top_k.
_REQUIRED_FIELDS = {kind: schema.keys() - {"top_k"} for kind, schema in _REQUEST_FIELDS.items()}


def float_to_bits(x: float) -> str:
    return struct.pack(">d", x).hex()


def bits_to_float(s: str) -> float:
    if not isinstance(s, str) or len(s) != 16:
        raise ProtocolError("float bit pattern must be 16 hex digits")
    try:
        return struct.unpack(">d", bytes.fromhex(s))[0]
    except ValueError as exc:
        raise ProtocolError(f"bad float bit pattern {s!r}") from exc


def encode_frame(obj: dict) -> bytes:
    body = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError("frame exceeds the size cap")
    return struct.pack(">I", len(body)) + body


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    """Exactly ``n`` bytes from ``sock``; ConnectionError if the peer closes first."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(read_exactly) -> tuple[dict, bytes]:
    """Read one frame via ``read_exactly(n) -> bytes``; returns (object, raw body)."""
    header = read_exactly(4)
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError("declared frame length exceeds the size cap")
    body = read_exactly(length)
    return parse_object(body, ProtocolError, "frame"), body


def validate_request(obj: dict, vocab_size: int) -> dict:
    """Schema check of one request. Prefix ids must also fall inside the
    served vocabulary, so a client's bad id is a schema error rather than
    a backend failure."""
    kind = obj.get("kind")
    schema = _REQUEST_FIELDS.get(kind) if type(kind) is str else None
    if schema is None:
        raise ProtocolError(f"unknown request kind {kind!r}")
    check_fields(obj, schema, ProtocolError, required=_REQUIRED_FIELDS[kind])
    if obj["version"] != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {obj['version']!r}, this side {PROTOCOL_VERSION}"
        )
    if kind != "hello":
        ids = obj["prefix_ids"]
        # bool is an int subclass, so JSON true/false would pass isinstance.
        if not all(type(i) is int and i >= 0 for i in ids):
            raise ProtocolError("prefix_ids must be a list of non-negative integers")
        if ids and max(ids) >= vocab_size:
            bad = next(i for i in ids if i >= vocab_size)
            raise ProtocolError(f"prefix_ids entry {bad} outside vocab of size {vocab_size}")
    if kind == "logits" and obj.get("top_k", TOP_K) < 1:
        raise ProtocolError("top_k must be a positive integer")
    if kind == "generate":
        sampling = obj["sampling"]
        check_fields(sampling, SAMPLING_TYPES, ProtocolError, "sampling", SAMPLING_TYPES.keys())
        if sampling["max_new_tokens"] > MAX_NEW_TOKENS_CAP:
            raise ProtocolError(f"sampling.max_new_tokens exceeds the cap of {MAX_NEW_TOKENS_CAP}")
    return obj


def sampling_to_wire(config: SamplingConfig) -> dict:
    return asdict(config)


def sampling_from_wire(obj: dict) -> SamplingConfig:
    # An int stands for a float on the wire; convert it back.
    values = {name: want(obj[name]) for name, want in SAMPLING_TYPES.items()}
    try:
        return SamplingConfig(**values)
    except InvalidConfigError as exc:
        raise ProtocolError(f"bad sampling config on the wire: {exc}") from exc


def _parse_address(address: tuple[str, int] | str) -> tuple[str, int]:
    """A (host, port) pair from itself or from "host:port"; an empty host
    means 127.0.0.1. A port that is not an integer in 0-65535 is an
    ``InvalidConfigError`` naming the address."""
    host, port = address.rpartition(":")[::2] if isinstance(address, str) else address
    if not str(port).isdecimal() or int(port) > 65535:
        raise InvalidConfigError(f"service address {address!r}: the port must be an integer in 0-65535")
    return host or "127.0.0.1", int(port)


@dataclass
class ServeConfig:
    log_path: str | None = None
    debug_payloads: bool = False
    capture_payloads: bool = False


@dataclass
class RequestLogEntry:
    seq: int
    kind: str
    session: str
    payload_size: int


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        service = self.server.service
        read_exactly = partial(_recv_exactly, self.request)
        while True:
            try:
                obj, raw = read_frame(read_exactly)
            except ConnectionError:
                return
            except ProtocolError as exc:
                return self._send_error(str(exc))
            if not service.log_request(obj, raw):
                return  # stopped: nothing is answered that the log does not hold
            try:
                validate_request(obj, service.backend.vocab.size)
                response = service.answer(obj)
            except ProtocolError as exc:
                return self._send_error(str(exc))
            except Exception as exc:  # keep the connection's failure local
                return self._send_error(f"internal: {exc}")
            self._send(response)

    def _send_error(self, message: str) -> None:
        """The error reply; the caller then closes the connection."""
        self._send({"version": PROTOCOL_VERSION, "kind": "error", "error": message})

    def _send(self, obj: dict) -> None:
        try:
            self.request.sendall(encode_frame(obj))
        except OSError:
            pass


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class LogitService:
    """Serves next-token distributions and whole generations for one
    context-blind backend.

    With a ``log_path``, the service opens that file for append once, at
    construction, and writes one line-buffered row per request; a path
    that cannot be opened is an ``InvalidConfigError`` naming it. After
    ``close`` it records, and so answers, no further request."""

    def __init__(self, backend: Backend, config: ServeConfig | None = None) -> None:
        if backend.role != Role.LARGE_CLOUD:
            raise InvalidConfigError("the logit service fronts a large_cloud backend")
        self.backend = backend
        self.config = config or ServeConfig()
        self.request_log = AuditLog()
        self._entries: list[RequestLogEntry] = []
        self._seq = 0
        self._lock = threading.Lock()
        self._closed = False
        self._log_file = None
        if self.config.log_path:
            try:
                self._log_file = open(self.config.log_path, "a", encoding="utf-8", buffering=1)
            except OSError as exc:
                raise InvalidConfigError(f"request log {self.config.log_path}: {exc.strerror}") from exc

    def log_request(self, obj: dict, raw: bytes) -> bool:
        """Record one request; False, with nothing recorded, once ``close``
        has run."""
        with self._lock:
            if self._closed:
                return False
            self._seq += 1
            entry = RequestLogEntry(
                seq=self._seq,
                kind=obj.get("kind", "?"),
                session=str(obj.get("session", "")),
                payload_size=len(raw),
            )
            self._entries.append(entry)
            if self.config.capture_payloads:
                self.request_log.record_payload(raw, kind=entry.kind)
            if self._log_file is not None:
                row = {
                    "seq": entry.seq,
                    "kind": entry.kind,
                    "session": entry.session,
                    "digest": hashlib.sha256(raw).hexdigest(),
                    "size": entry.payload_size,
                }
                if self.config.debug_payloads:
                    row["payload_hex"] = raw.hex()
                self._log_file.write(json.dumps(row, sort_keys=True) + "\n")
        return True

    def close(self) -> None:
        """Close the request log; a connection still open is dropped at
        its next request."""
        with self._lock:
            self._closed = True
            if self._log_file is not None:
                self._log_file.close()
                self._log_file = None

    def answer(self, obj: dict) -> dict:
        kind = obj["kind"]
        # A hello reply is this envelope alone.
        reply = {"version": PROTOCOL_VERSION, "kind": kind, "vocab_hash": self.backend.vocab.digest()}
        if kind == "logits":
            top_k = min(obj.get("top_k", TOP_K), TOP_K_CAP)
            request = ConditioningInput(
                instruction=obj["instruction"],
                prefix_ids=tuple(obj["prefix_ids"]),
                context=None,
                receiver_role=Role.LARGE_CLOUD,
            )
            dense = self.backend.next_distribution(request)
            sparse = top_k_project(dense, top_k)
            reply["entries"] = [
                [tid, float_to_bits(p)] for tid, p in zip(sparse.sparse_ids, sparse.sparse_probs)
            ]
        elif kind == "generate":
            sampling = sampling_from_wire(obj["sampling"])
            tokens = decode_single(
                self.backend,
                (obj["instruction"], None),
                sampling,
                initial_prefix=tuple(obj["prefix_ids"]),
            )
            reply["tokens"] = [int(t) for t in tokens]
        return reply

    @property
    def entries(self) -> list[RequestLogEntry]:
        with self._lock:
            return list(self._entries)


@dataclass
class ServiceHandle:
    service: LogitService
    address: tuple[str, int]
    _server: _Server = field(repr=False, default=None)
    _thread: threading.Thread = field(repr=False, default=None)

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
        self.service.close()

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(backend: Backend, listen_address: tuple[str, int] | str, config: ServeConfig | None = None) -> ServiceHandle:
    """Start the service on ``listen_address`` (host, port) — port 0 picks
    a free port — and return a handle exposing the bound address. A
    request log path that cannot be opened for append is an
    ``InvalidConfigError`` naming it, raised before anything is served."""
    listen_address = _parse_address(listen_address)
    service = LogitService(backend, config)
    try:
        server = _Server(listen_address, _Handler)
    except OSError as exc:
        service.close()
        raise ServiceStartupError(f"cannot bind {listen_address}: {exc}") from exc
    server.service = service
    thread = threading.Thread(
        target=server.serve_forever, args=(STOP_POLL_S,), name="cogen-logit-service", daemon=True
    )
    thread.start()
    return ServiceHandle(service=service, address=server.server_address, _server=server, _thread=thread)


class ServiceClient:
    """Single-session, sequential client for the logit service."""

    def __init__(self, address: tuple[str, int] | str, session_id: str = "session") -> None:
        self.address = _parse_address(address)
        self.session_id = session_id
        self._sock: socket.socket | None = None
        self.server_vocab_hash: str | None = None

    def _roundtrip(self, kind: str, **body) -> dict:
        """One request of ``kind`` carrying ``body`` in the shared
        envelope, and its reply; a fresh connection first repeats the
        handshake."""
        if self._sock is None:
            try:
                self._sock = socket.create_connection(self.address, timeout=CLIENT_TIMEOUT_S)
            except OSError as exc:
                raise TransportError(f"cannot reach the logit service at {self.address}: {exc}") from exc
            if kind != "hello":
                self.hello(self.server_vocab_hash)
        payload = {"version": PROTOCOL_VERSION, "kind": kind, "session": self.session_id, **body}
        frame = encode_frame(payload)
        try:
            self._sock.sendall(frame)
            obj, _ = read_frame(partial(_recv_exactly, self._sock))
        except (OSError, ConnectionError) as exc:
            self.close()
            raise TransportError(f"transport failure: {exc}") from exc
        except ProtocolError:
            # The rest of a bad reply may still be in flight; a socket out
            # of step would answer the next request with it.
            self.close()
            raise
        if obj.get("kind") == "error":
            # The server closes the connection after every error frame.
            self.close()
            raise ProtocolError(f"service rejected the request: {obj.get('error')}")
        return obj

    def hello(self, expected_vocab_hash: str | None = None) -> str:
        """Handshake: agree on protocol version and vocabulary identity.

        With no expected hash the server's is accepted. The agreed hash is
        remembered and every reconnect repeats the handshake expecting it;
        a mismatch drops the socket, so a service that comes back with
        another vocabulary fails every call.
        """
        response = self._roundtrip("hello", vocab_hash=expected_vocab_hash or "0" * 16)
        served = response.get("vocab_hash")
        if not isinstance(served, str):
            self.close()
            raise ProtocolError("hello reply carries no vocab_hash string")
        if expected_vocab_hash is not None and served != expected_vocab_hash:
            self.close()
            raise IncompatibleVocabError(
                f"service vocabulary {served} does not match {expected_vocab_hash}"
            )
        self.server_vocab_hash = served
        return served

    def next_logits(self, instruction: str, prefix_ids, top_k: int, vocab_size: int) -> TokenDistribution:
        """The server's top-k slice, checked like any sparse distribution;
        a malformed reply is the server's fault and raises ProtocolError."""
        response = self._roundtrip(
            "logits",
            instruction=instruction,
            prefix_ids=[int(i) for i in prefix_ids],
            top_k=int(top_k),
        )
        entries = response.get("entries")
        if not isinstance(entries, list) or not all(
            isinstance(e, list) and len(e) == 2 and type(e[0]) is int for e in entries
        ):
            raise ProtocolError("logits reply entries must be [token id, float bits] pairs")
        probs = [bits_to_float(e[1]) for e in entries]
        try:
            return TokenDistribution.sparse([e[0] for e in entries], probs, vocab_size)
        except InvalidDistributionError as exc:
            raise ProtocolError(f"service sent a malformed distribution: {exc}") from exc

    def generate(self, instruction: str, prefix_ids, sampling: SamplingConfig, vocab_size: int) -> list[int]:
        """Token ids the server sampled; any that is not an in-vocab int
        makes the reply malformed and raises ProtocolError."""
        response = self._roundtrip(
            "generate",
            instruction=instruction,
            prefix_ids=[int(i) for i in prefix_ids],
            sampling=sampling_to_wire(sampling),
        )
        tokens = response.get("tokens")
        if not isinstance(tokens, list) or not all(
            type(t) is int and 0 <= t < vocab_size for t in tokens
        ):
            raise ProtocolError(f"generate reply tokens must be ids in a vocab of size {vocab_size}")
        return tokens

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None


class RemoteBackend:
    """Client-side stand-in for a backend living behind the service.

    ``next_distribution`` returns the top-k slice of the server's dense
    distribution with bit patterns intact; the fused decoding path
    truncates its local operand identically, so placement is invisible.
    A request carrying context is refused, waiver or not.
    """

    role = Role.LARGE_CLOUD

    def __init__(self, client: ServiceClient, vocab, top_k: int = TOP_K) -> None:
        self.client = client
        self.vocab = vocab
        self.top_k = top_k
        client.hello(vocab.digest())

    def next_distribution(self, request: ConditioningInput) -> TokenDistribution:
        check_context_blind(self.role, request.context)
        return self.client.next_logits(
            request.instruction, request.prefix_ids, self.top_k, self.vocab.size
        )

    def generate_remote(self, instruction: str, prefix_ids, sampling: SamplingConfig) -> list[int]:
        return self.client.generate(instruction, prefix_ids, sampling, self.vocab.size)
