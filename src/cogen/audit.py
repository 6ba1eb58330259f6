"""Byte-level privacy auditing of upstream payloads.

The structural guarantee (context can't be attached to a context-blind
request) is re-verified here on the actual bytes: the audit scans every
captured payload for any sufficiently long substring of any context
field, after case-folding and whitespace-collapsing both sides. A PASS
means no context fragment of the minimum length appears anywhere in any
payload; a FAIL pinpoints the request, field, and offset.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

from .backends import ConditioningInput, ContextBundle

MIN_MATCH_CHARS = 12

_WS = re.compile(r"\s+")


def normalize_for_audit(text: str) -> str:
    """Case-fold and collapse whitespace so trivial reformatting can't hide a leak."""
    return _WS.sub(" ", text.casefold()).strip()


def payload_for_input(request: ConditioningInput) -> bytes:
    """Canonical bytes for an in-process upstream request.

    Mirrors the wire request body so in-process runs are audited against
    the same surface a remote run would put on the network.
    """
    return json.dumps(
        {"instruction": request.instruction, "prefix_ids": list(request.prefix_ids)},
        sort_keys=True,
        ensure_ascii=True,
    ).encode("utf-8")


@dataclass(frozen=True)
class AuditRecord:
    payload: bytes
    kind: str = "request"

    def digest(self) -> str:
        return hashlib.sha256(self.payload).hexdigest()


@dataclass
class AuditLog:
    records: list[AuditRecord] = field(default_factory=list)

    def record_payload(self, payload: bytes, kind: str = "request") -> None:
        self.records.append(AuditRecord(payload=payload, kind=kind))

    def record_input(self, request: ConditioningInput) -> None:
        self.record_payload(payload_for_input(request), kind="conditioning")

    def __len__(self) -> int:
        return len(self.records)


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

    Sliding windows of exactly ``MIN_MATCH_CHARS`` normalized characters
    decide the question exactly: any common substring of at least that length
    contains such a window. Fields shorter than the window cannot leak at
    the audited granularity and are skipped.
    """
    records = log.records if isinstance(log, AuditLog) else list(log)
    fields = []
    for name, value in context.fields():
        norm = normalize_for_audit(value)
        if len(norm) >= MIN_MATCH_CHARS:
            fields.append((name, norm))
    hits: list[AuditHit] = []
    for idx, record in enumerate(records):
        payload = normalize_for_audit(record.payload.decode("utf-8", errors="replace"))
        for name, norm in fields:
            found_here = set()
            for start in range(0, len(norm) - MIN_MATCH_CHARS + 1):
                window = norm[start : start + MIN_MATCH_CHARS]
                offset = payload.find(window)
                if offset != -1 and offset not in found_here:
                    found_here.add(offset)
                    hits.append(
                        AuditHit(
                            request_index=idx,
                            field=name,
                            offset=offset,
                            fragment=window,
                        )
                    )
    return AuditVerdict(passed=not hits, hits=tuple(hits), requests_scanned=len(records))
