"""The cloud half of the split: a TCP logit service, its client, and the
request log that feeds the privacy audit.

Frames are length-prefixed (unsigned 32-bit big-endian byte count) UTF-8
JSON objects with sorted keys. Probabilities cross the wire as 16-hex-
digit IEEE-754 bit patterns, so the client reconstructs exactly the
doubles the server computed: remote and in-process decoding are
bit-identical, which the test suite checks token for token.

The server computes a dense softmax-normalized distribution first and
truncates to the requested top-k afterwards; truncation is a transport
feature, not a renormalization. The request schema has no context field,
so private context cannot cross this boundary even on purpose.

docs/protocol.md documents every field and pins two golden frames.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from .audit import AuditLog
from .backends import Backend, BackendDescriptor, BackendKind, ConditioningInput, Role
from .core import SamplingConfig, TokenDistribution, top_k_project
from .decoder import decode_single
from .errors import (
    IncompatibleVocabError,
    InvalidConfigError,
    ProtocolError,
    ServiceStartupError,
    TransportError,
)

PROTOCOL_VERSION = 1
MAX_FRAME_BYTES = 1 << 24
DEFAULT_TOP_K = 10

_REQUEST_FIELDS = {
    "hello": {"version", "kind", "session", "vocab_hash"},
    "logits": {"version", "kind", "session", "instruction", "prefix_ids", "top_k"},
    "generate": {"version", "kind", "session", "instruction", "prefix_ids", "sampling"},
}
_OPTIONAL_FIELDS = {"logits": {"top_k"}}
_SAMPLING_FIELDS = {"temperature", "top_p", "max_new_tokens", "seed", "greedy"}


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


def read_frame(read_exactly) -> tuple[dict, bytes]:
    """Read one frame via ``read_exactly(n) -> bytes``; returns (object, raw body)."""
    header = read_exactly(4)
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError("declared frame length exceeds the size cap")
    body = read_exactly(length)
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("frame must be a JSON object")
    return obj, body


def validate_request(obj: dict, vocab_size: int) -> dict:
    """Schema check of one request. Prefix ids must also fall inside the
    served vocabulary, so a client's bad id is a schema error rather than
    a backend failure."""
    kind = obj.get("kind")
    if kind not in _REQUEST_FIELDS:
        raise ProtocolError(f"unknown request kind {kind!r}")
    allowed = _REQUEST_FIELDS[kind]
    required = allowed - _OPTIONAL_FIELDS.get(kind, set())
    extra = set(obj) - allowed
    if extra:
        raise ProtocolError(f"unknown fields in {kind} request: {sorted(extra)}")
    missing = required - set(obj)
    if missing:
        raise ProtocolError(f"{kind} request missing fields: {sorted(missing)}")
    if obj["version"] != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {obj['version']}, this side {PROTOCOL_VERSION}"
        )
    if kind in ("logits", "generate"):
        if not isinstance(obj["instruction"], str):
            raise ProtocolError("instruction must be a string")
        ids = obj["prefix_ids"]
        # bool is an int subclass, so JSON true/false would pass isinstance.
        if not isinstance(ids, list) or not all(type(i) is int and i >= 0 for i in ids):
            raise ProtocolError("prefix_ids must be a list of non-negative integers")
        if ids and max(ids) >= vocab_size:
            bad = next(i for i in ids if i >= vocab_size)
            raise ProtocolError(f"prefix_ids entry {bad} outside vocab of size {vocab_size}")
    if kind == "logits":
        top_k = obj.get("top_k", DEFAULT_TOP_K)
        if type(top_k) is not int or top_k < 1:
            raise ProtocolError("top_k must be a positive integer")
    if kind == "generate":
        sampling = obj["sampling"]
        if not isinstance(sampling, dict) or set(sampling) != _SAMPLING_FIELDS:
            raise ProtocolError(f"sampling must carry exactly {sorted(_SAMPLING_FIELDS)}")
    return obj


def sampling_to_wire(config: SamplingConfig) -> dict:
    return {
        "temperature": config.temperature,
        "top_p": config.top_p,
        "max_new_tokens": config.max_new_tokens,
        "seed": config.seed,
        "greedy": config.greedy,
    }


def sampling_from_wire(obj: dict) -> SamplingConfig:
    try:
        return SamplingConfig(
            temperature=float(obj["temperature"]),
            top_p=float(obj["top_p"]),
            max_new_tokens=int(obj["max_new_tokens"]),
            seed=int(obj["seed"]),
            greedy=bool(obj["greedy"]),
        )
    except InvalidConfigError as exc:
        raise ProtocolError(f"bad sampling config on the wire: {exc}") from exc


@dataclass
class ServeConfig:
    log_path: str | None = None
    debug_payloads: bool = False
    capture_payloads: bool = False
    top_k_cap: int = 64


@dataclass
class RequestLogEntry:
    seq: int
    kind: str
    session: str
    payload_digest: str
    payload_size: int


class _Handler(socketserver.BaseRequestHandler):
    def _read_exactly(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self.request.recv(remaining)
            if not chunk:
                raise ConnectionError("peer closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def handle(self) -> None:
        service = self.server.service
        while True:
            try:
                obj, raw = read_frame(self._read_exactly)
            except ConnectionError:
                return
            except ProtocolError as exc:
                self._send({"version": PROTOCOL_VERSION, "kind": "error", "error": str(exc)})
                return
            service.log_request(obj, raw)
            try:
                validate_request(obj, service.backend.vocab.size)
                response = service.answer(obj)
            except ProtocolError as exc:
                self._send({"version": PROTOCOL_VERSION, "kind": "error", "error": str(exc)})
                return
            except Exception as exc:  # keep the connection's failure local
                self._send(
                    {"version": PROTOCOL_VERSION, "kind": "error", "error": f"internal: {exc}"}
                )
                return
            self._send(response)

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
    context-blind backend."""

    def __init__(self, backend: Backend, config: ServeConfig | None = None) -> None:
        if backend.role != Role.LARGE_CLOUD:
            raise InvalidConfigError("the logit service fronts a large_cloud backend")
        self.backend = backend
        self.config = config or ServeConfig()
        self.vocab_hash = backend.vocab.digest()
        self.request_log = AuditLog()
        self._entries: list[RequestLogEntry] = []
        self._seq = 0
        self._lock = threading.Lock()

    def log_request(self, obj: dict, raw: bytes) -> None:
        import hashlib

        with self._lock:
            self._seq += 1
            entry = RequestLogEntry(
                seq=self._seq,
                kind=obj.get("kind", "?"),
                session=str(obj.get("session", "")),
                payload_digest=hashlib.sha256(raw).hexdigest(),
                payload_size=len(raw),
            )
            self._entries.append(entry)
            if self.config.capture_payloads:
                self.request_log.record_payload(raw, kind=entry.kind)
            if self.config.log_path:
                row = {
                    "seq": entry.seq,
                    "kind": entry.kind,
                    "session": entry.session,
                    "digest": entry.payload_digest,
                    "size": entry.payload_size,
                }
                if self.config.debug_payloads:
                    row["payload_hex"] = raw.hex()
                with open(self.config.log_path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")

    def answer(self, obj: dict) -> dict:
        kind = obj["kind"]
        if kind == "hello":
            return {
                "version": PROTOCOL_VERSION,
                "kind": "hello",
                "vocab_hash": self.vocab_hash,
            }
        if kind == "logits":
            top_k = min(obj.get("top_k", DEFAULT_TOP_K), self.config.top_k_cap)
            request = ConditioningInput(
                instruction=obj["instruction"],
                prefix_ids=tuple(obj["prefix_ids"]),
                context=None,
                receiver_role=Role.LARGE_CLOUD,
            )
            dense = self.backend.next_distribution(request)
            sparse = top_k_project(dense, top_k)
            entries = [
                [int(tid), float_to_bits(float(p))]
                for tid, p in zip(sparse.sparse_ids, sparse.sparse_probs)
            ]
            return {
                "version": PROTOCOL_VERSION,
                "kind": "logits",
                "entries": entries,
                "vocab_hash": self.vocab_hash,
            }
        # generate
        sampling = sampling_from_wire(obj["sampling"])
        tokens = decode_single(
            self.backend,
            (obj["instruction"], None),
            sampling,
            initial_prefix=tuple(obj["prefix_ids"]),
        )
        return {
            "version": PROTOCOL_VERSION,
            "kind": "generate",
            "tokens": [int(t) for t in tokens],
            "vocab_hash": self.vocab_hash,
        }

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

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(backend: Backend, listen_address: tuple[str, int] | str, config: ServeConfig | None = None) -> ServiceHandle:
    """Start the service on ``listen_address`` (host, port) — port 0 picks
    a free port — and return a handle exposing the bound address."""
    if isinstance(listen_address, str):
        host, _, port = listen_address.rpartition(":")
        listen_address = (host or "127.0.0.1", int(port))
    service = LogitService(backend, config)
    try:
        server = _Server(listen_address, _Handler)
    except OSError as exc:
        raise ServiceStartupError(f"cannot bind {listen_address}: {exc}") from exc
    server.service = service
    thread = threading.Thread(target=server.serve_forever, name="cogen-logit-service", daemon=True)
    thread.start()
    return ServiceHandle(service=service, address=server.server_address, _server=server, _thread=thread)


class ServiceClient:
    """Single-session, sequential client for the logit service."""

    def __init__(self, address: tuple[str, int] | str, session_id: str = "session", timeout: float = 10.0) -> None:
        if isinstance(address, str):
            host, _, port = address.rpartition(":")
            address = (host or "127.0.0.1", int(port))
        self.address = address
        self.session_id = session_id
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self.server_vocab_hash: str | None = None

    def connect(self) -> None:
        try:
            self._sock = socket.create_connection(self.address, timeout=self.timeout)
        except OSError as exc:
            raise TransportError(f"cannot reach the logit service at {self.address}: {exc}") from exc

    def _read_exactly(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                raise ConnectionError("service closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _roundtrip(self, payload: dict) -> dict:
        if self._sock is None:
            self.connect()
            self.hello_unchecked()
        try:
            self._sock.sendall(encode_frame(payload))
            obj, _ = read_frame(self._read_exactly)
        except (OSError, ConnectionError) as exc:
            self.close()
            raise TransportError(f"transport failure: {exc}") from exc
        if obj.get("kind") == "error":
            raise ProtocolError(f"service rejected the request: {obj.get('error')}")
        return obj

    def hello_unchecked(self) -> str:
        response = self._roundtrip(
            {
                "version": PROTOCOL_VERSION,
                "kind": "hello",
                "session": self.session_id,
                "vocab_hash": self.server_vocab_hash or "0" * 16,
            }
        )
        self.server_vocab_hash = response["vocab_hash"]
        return self.server_vocab_hash

    def hello(self, expected_vocab_hash: str) -> str:
        """Handshake: agree on protocol version and vocabulary identity."""
        if self._sock is None:
            self.connect()
        response = self._roundtrip(
            {
                "version": PROTOCOL_VERSION,
                "kind": "hello",
                "session": self.session_id,
                "vocab_hash": expected_vocab_hash,
            }
        )
        self.server_vocab_hash = response["vocab_hash"]
        if self.server_vocab_hash != expected_vocab_hash:
            raise IncompatibleVocabError(
                f"service vocabulary {self.server_vocab_hash} does not match {expected_vocab_hash}"
            )
        return self.server_vocab_hash

    def next_logits(self, instruction: str, prefix_ids, top_k: int, vocab_size: int) -> TokenDistribution:
        response = self._roundtrip(
            {
                "version": PROTOCOL_VERSION,
                "kind": "logits",
                "session": self.session_id,
                "instruction": instruction,
                "prefix_ids": [int(i) for i in prefix_ids],
                "top_k": int(top_k),
            }
        )
        entries = response["entries"]
        ids = np.array([int(e[0]) for e in entries], dtype=np.int64)
        probs = np.array([bits_to_float(e[1]) for e in entries], dtype=np.float64)
        return TokenDistribution(vocab_size=vocab_size, sparse_ids=ids, sparse_probs=probs)

    def generate(self, instruction: str, prefix_ids, sampling: SamplingConfig) -> list[int]:
        response = self._roundtrip(
            {
                "version": PROTOCOL_VERSION,
                "kind": "generate",
                "session": self.session_id,
                "instruction": instruction,
                "prefix_ids": [int(i) for i in prefix_ids],
                "sampling": sampling_to_wire(sampling),
            }
        )
        return [int(t) for t in response["tokens"]]

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
    """

    kind = BackendKind.REMOTE
    role = Role.LARGE_CLOUD

    def __init__(self, client: ServiceClient, vocab, top_k: int = DEFAULT_TOP_K) -> None:
        self.client = client
        self.vocab = vocab
        self.top_k = top_k
        client.hello(vocab.digest())

    def next_distribution(self, request: ConditioningInput) -> TokenDistribution:
        if request.context is not None and not request.context.is_empty():
            raise InvalidConfigError("the wire protocol has no context field")
        return self.client.next_logits(
            request.instruction, request.prefix_ids, self.top_k, self.vocab.size
        )

    def generate_remote(self, instruction: str, prefix_ids, sampling: SamplingConfig) -> list[int]:
        return self.client.generate(instruction, prefix_ids, sampling)

    def describe(self) -> BackendDescriptor:
        return BackendDescriptor(
            kind=self.kind,
            role=self.role,
            vocab_ref=self.vocab.digest(),
            params_uri=f"tcp://{self.client.address[0]}:{self.client.address[1]}",
        )
