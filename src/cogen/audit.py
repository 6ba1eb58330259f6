"""Privacy auditing of upstream payloads, captured at the large backend's
boundary: in process by ``AuditedBackend``, over the wire by the logit
service's request log.

The structural guarantee (context can't be attached to a context-blind
request) is re-verified here on the actual payloads: the audit scans
every captured payload for any sufficiently long substring of any
context field, after case-folding and whitespace-collapsing both sides,
reading each JSON string literal with its escapes decoded (the wire and
``payload_for_input`` escape every non-ASCII character, quote, backslash
and newline). A PASS means no context fragment of the minimum length
appears anywhere in any payload; a FAIL lists every leaking request,
offset and field. The scan reads each payload once, looking each of its
windows up in one table of the context's windows, so it costs the total
payload length, not that times the context length.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .backends import ContextBundle

MIN_MATCH_CHARS = 12

_WS = re.compile(r"\s+")
# A JSON string literal: a quoted run of characters and backslash escapes
# that ends where a JSON value may end, so a stray quote outside the JSON
# text (a frame's length header, say) opens none.
_LITERAL = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"(?=\s*(?:[:,}\]]|$))', re.S)


def normalize_for_audit(text: str) -> str:
    """Case-fold and collapse whitespace so trivial reformatting can't hide a leak."""
    return _WS.sub(" ", text.casefold()).strip()


def _decoded_literal(match) -> str:
    """A literal with its escapes decoded, inside its quotes; one that
    does not decode as it is."""
    try:
        return f'"{json.loads(match.group())}"'
    except ValueError:
        return match.group()


def _scan_text(payload: bytes) -> str:
    """The text the audit scans for a payload: its UTF-8, an undecodable
    byte replaced, with each JSON string literal's escapes decoded. Text
    outside every literal, such as a payload that is not JSON, is scanned
    as it is, and so is a literal that does not decode; nothing raises."""
    text = payload.decode("utf-8", errors="replace")
    if "\\" not in text:
        return text
    return _LITERAL.sub(_decoded_literal, text)


def payload_for_input(instruction: str, prefix_ids) -> bytes:
    """Canonical bytes for an in-process upstream request: a JSON object
    of its instruction and prefix ids, keys sorted, every non-ASCII
    character escaped.

    It holds what a remote run's request body puts on the network, so an
    in-process run is audited against the same text; the wire's compact
    body and its envelope fields report a leak at another offset.
    """
    return json.dumps(
        {"instruction": instruction, "prefix_ids": list(map(int, prefix_ids))},
        sort_keys=True,
        ensure_ascii=True,
    ).encode("utf-8")


@dataclass(frozen=True)
class AuditRecord:
    payload: bytes
    kind: str = "request"


@dataclass
class AuditLog:
    records: list[AuditRecord] = field(default_factory=list)

    def record_payload(self, payload: bytes, kind: str = "request") -> None:
        self.records.append(AuditRecord(payload=payload, kind=kind))

    def record_input(self, instruction: str, prefix_ids) -> None:
        self.record_payload(payload_for_input(instruction, prefix_ids), kind="conditioning")

    def __len__(self) -> int:
        return len(self.records)


class AuditedBackend:
    """A large backend that records in ``log`` each request it is sent,
    before it forwards the request.

    A ``next_distribution`` request is recorded as ``payload_for_input``
    of its instruction and prefix; ``generate_remote`` is forwarded, its
    one request recorded first, only when the wrapped backend has it.
    There is no ``open``, so a decode reads this backend through
    ``backends.RequestCursor``, one whole-prefix request per step: exactly
    the requests a remote run sends.
    """

    def __init__(self, backend, log: AuditLog) -> None:
        self.backend = backend
        self.log = log
        self.vocab = backend.vocab
        self.role = backend.role
        if hasattr(backend, "generate_remote"):
            self.generate_remote = self._generate_remote

    def next_distribution(self, request):
        self.log.record_input(request.instruction, request.prefix_ids)
        return self.backend.next_distribution(request)

    def _generate_remote(self, instruction: str, prefix_ids, sampling):
        self.log.record_input(instruction, prefix_ids)
        return self.backend.generate_remote(instruction, prefix_ids, sampling)


@dataclass(frozen=True)
class AuditHit:
    request_index: int
    field: str
    offset: int
    fragment: str


@dataclass(frozen=True)
class AuditVerdict:
    passed: bool
    hits: tuple[AuditHit, ...]
    requests_scanned: int

    def render(self) -> str:
        lines = [f"privacy audit: {'PASS' if self.passed else 'FAIL'} "
                 f"({self.requests_scanned} payloads scanned)"]
        for hit in self.hits:
            lines.append(
                f"  leak: request {hit.request_index}, field {hit.field}, "
                f"offset {hit.offset}: {hit.fragment!r}"
            )
        return "\n".join(lines)


def privacy_audit(log, context: ContextBundle) -> AuditVerdict:
    """Scan every captured payload for context fragments.

    Windows of exactly ``MIN_MATCH_CHARS`` normalized characters decide
    the question exactly: any common substring of at least that length
    contains such a window. Every window of every context field goes into
    one table, mapped to the fields that hold it; fields shorter than the
    window have none and cannot leak at the audited granularity. Each
    normalized payload is then read once, window by window, and every
    window found in the table is a hit: one per (request, offset, field),
    in payload order, so a leak repeated in one payload is reported at
    each of its offsets.
    """
    records = log.records if isinstance(log, AuditLog) else list(log)
    owners: dict[str, list[str]] = {}
    for name, value in context.fields():
        norm = normalize_for_audit(value)
        for start in range(len(norm) - MIN_MATCH_CHARS + 1):
            names = owners.setdefault(norm[start : start + MIN_MATCH_CHARS], [])
            if not names or names[-1] != name:
                names.append(name)
    hits: list[AuditHit] = []
    for idx, record in enumerate(records):
        payload = normalize_for_audit(_scan_text(record.payload))
        for offset in range(len(payload) - MIN_MATCH_CHARS + 1):
            window = payload[offset : offset + MIN_MATCH_CHARS]
            for name in owners.get(window, ()):
                hits.append(AuditHit(request_index=idx, field=name, offset=offset, fragment=window))
    return AuditVerdict(passed=not hits, hits=tuple(hits), requests_scanned=len(records))
