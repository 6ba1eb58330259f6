"""The privacy audit, and the payloads it is given in process and over
the wire."""

import json
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cogen.audit import (
    MIN_MATCH_CHARS,
    AuditedBackend,
    AuditLog,
    AuditRecord,
    normalize_for_audit,
    payload_for_input,
    privacy_audit,
)
from cogen.backends import ContextBundle
from cogen.core import SamplingConfig
from cogen.decoder import DecodeMode, decode, session_for_record
from cogen.fusion import FusionStrategy
from cogen.service import RemoteBackend, ServeConfig, ServiceClient, encode_frame, serve
from cogen.synthetic import build_world, large_backend, small_backends
from helpers import reference_privacy_audit


PROFILE = "Amateur astronomer who logs every meteor shower in a leather notebook."
CONTEXT = ContextBundle(
    profile=PROFILE,
    history=("Last night's observation session ran until three in the morning.",),
)


# Text JSON's ASCII-only escapes break up: a CJK profile, every character
# of which crosses as \uXXXX, and a history entry with an accent in each
# of its 12-character windows.
CJK_PROFILE = "我喜欢在周末去公园散步和读书，也爱喝茶。"
ACCENTED = "Zoë's café résumé naïve façade"
ESCAPED_CONTEXT = ContextBundle(profile=CJK_PROFILE, history=(ACCENTED,))
ESCAPED_LEAKS = (f"write about {CJK_PROFILE}", f"recall: {ACCENTED}")


def log_with(*payloads: str) -> AuditLog:
    log = AuditLog()
    for p in payloads:
        log.record_payload(p.encode("utf-8"))
    return log


class TestNormalization:
    def test_case_folded_and_whitespace_collapsed(self):
        assert normalize_for_audit("  A\tB\n\nc ") == "a b c"


class TestPrivacyAudit:
    def test_clean_payloads_pass(self):
        log = log_with(
            '{"instruction": "write the update", "prefix_ids": [1, 2]}',
            '{"instruction": "write more", "prefix_ids": []}',
        )
        verdict = privacy_audit(log, CONTEXT)
        assert verdict.passed
        assert verdict.requests_scanned == 2

    def test_planted_profile_fails_with_location(self):
        leak = f'{{"instruction": "write {PROFILE} now", "prefix_ids": []}}'
        log = log_with('{"instruction": "fine"}', leak)
        verdict = privacy_audit(log, CONTEXT)
        assert not verdict.passed
        hit = verdict.hits[0]
        assert hit.request_index == 1
        assert hit.field == "profile"
        normalized_payload = normalize_for_audit(leak)
        assert normalized_payload[hit.offset : hit.offset + 12] == hit.fragment

    def test_case_and_whitespace_mangling_does_not_hide_leaks(self):
        mangled = PROFILE.upper().replace(" ", "\n\t ")
        log = log_with(f'{{"instruction": "{mangled}"}}')
        assert not privacy_audit(log, CONTEXT).passed

    def test_history_fields_are_scanned(self):
        log = log_with('{"instruction": "observation session ran until three"}')
        verdict = privacy_audit(log, CONTEXT)
        assert not verdict.passed
        assert verdict.hits[0].field == "history[0]"

    def test_short_fields_are_skipped(self):
        short_ctx = ContextBundle(profile="tiny")
        log = log_with('{"instruction": "tiny tiny tiny tiny"}')
        assert privacy_audit(log, short_ctx).passed

    def test_short_common_substrings_pass(self):
        # sharing fewer than 12 normalized characters is not a leak
        log = log_with('{"instruction": "meteor fan"}')
        assert privacy_audit(log, CONTEXT).passed

    def test_render_names_offsets(self):
        log = log_with(f'{{"instruction": "{PROFILE}"}}')
        verdict = privacy_audit(log, CONTEXT)
        text = verdict.render()
        assert "FAIL" in text and "profile" in text

    def test_conditioning_payload_shape(self):
        payload = payload_for_input("do the thing", (3, 1))
        assert payload == b'{"instruction": "do the thing", "prefix_ids": [3, 1]}'

    def test_a_leak_repeated_in_one_payload_is_reported_at_each_offset(self):
        leak = f'{{"instruction": "{PROFILE} -- {PROFILE}"}}'
        verdict = privacy_audit(log_with(leak), CONTEXT)
        normalized_payload = normalize_for_audit(leak)
        fragment = normalize_for_audit(PROFILE)[:MIN_MATCH_CHARS]
        first = normalized_payload.find(fragment)
        second = normalized_payload.find(fragment, first + 1)
        assert second > first >= 0
        offsets = [h.offset for h in verdict.hits if h.field == "profile" and h.fragment == fragment]
        assert offsets == [first, second]
        assert [h.offset for h in verdict.hits] == sorted(h.offset for h in verdict.hits)


# A small alphabet, case and whitespace variants included, so that short
# random fields share windows with each other and with the payloads.
_TEXT = st.text(alphabet="abAB \t", max_size=40)
_FIELD = st.one_of(_TEXT, st.text(alphabet="abAB \t", min_size=16, max_size=60))


@st.composite
def contexts_and_payloads(draw):
    context = ContextBundle(
        profile=draw(_FIELD),
        history=tuple(draw(st.lists(_FIELD, max_size=3))),
    )
    values = [value for _, value in context.fields()]
    payloads = []
    for _ in range(draw(st.integers(1, 4))):
        parts = draw(st.lists(_TEXT, min_size=1, max_size=4))
        if values and draw(st.booleans()):
            # plant a fragment of a field, some just short of a window, possibly twice
            value = draw(st.sampled_from(values))
            start = draw(st.integers(0, max(0, len(value) - MIN_MATCH_CHARS)))
            fragment = value[start : start + draw(st.integers(MIN_MATCH_CHARS - 2, 40))]
            for _ in range(draw(st.integers(1, 2))):
                parts.insert(draw(st.integers(0, len(parts))), fragment)
        payloads.append("".join(parts).encode("utf-8"))
    return context, [AuditRecord(p) for p in payloads]


class TestSinglePassScan:
    @settings(max_examples=400, deadline=None)
    @given(contexts_and_payloads())
    def test_agrees_with_the_per_field_find_scan(self, case):
        context, records = case
        verdict = privacy_audit(records, context)
        reference = reference_privacy_audit(records, context)
        assert verdict.passed == reference.passed
        assert verdict.requests_scanned == reference.requests_scanned
        assert set(reference.hits) <= set(verdict.hits)
        fields = {name: normalize_for_audit(value) for name, value in context.fields()}
        payloads = [normalize_for_audit(r.payload.decode("utf-8")) for r in records]
        for hit in verdict.hits:
            assert len(hit.fragment) == MIN_MATCH_CHARS
            assert payloads[hit.request_index][hit.offset : hit.offset + MIN_MATCH_CHARS] == hit.fragment
            assert hit.fragment in fields[hit.field]
        # and nothing is missed: every (request, offset, field) that leaks is reported
        expected = [
            (idx, offset, name)
            for idx, payload in enumerate(payloads)
            for offset in range(len(payload) - MIN_MATCH_CHARS + 1)
            for name, norm in fields.items()
            if payload[offset : offset + MIN_MATCH_CHARS] in norm
        ]
        assert [(h.request_index, h.offset, h.field) for h in verdict.hits] == expected


class TestLongContextSession:
    """A fused session over a 240-item history: about 22k context characters."""

    def run(self, record, slm, llm) -> AuditLog:
        log = AuditLog()
        mode = DecodeMode.fusion(FusionStrategy.mean())
        sampling = SamplingConfig(seed=0, max_new_tokens=128)
        decode(session_for_record(record, mode, sampling, slm, AuditedBackend(llm, log)))
        return log

    def test_the_audit_passes_and_a_planted_leak_fails(self):
        world = build_world(0, history_len=240)
        llm, slms = large_backend(world), small_backends(world)
        record = world.test_records[0]
        slm = slms[record.user_id]
        context = record.context_bundle()
        assert sum(len(v) for _, v in context.fields()) > 20_000

        clean = self.run(record, slm, llm)
        assert len(clean) > 1
        verdict = privacy_audit(clean, context)
        assert verdict.passed and verdict.requests_scanned == len(clean)

        # The twin's context-blind task carries the last history entry.
        leaked = record.history[-1]
        twin = replace(record, general_task=f"{record.llm_task} {leaked}")
        log = self.run(twin, slm, llm)
        verdict = privacy_audit(log, context)
        assert not verdict.passed
        assert {h.request_index for h in verdict.hits} == set(range(len(log)))
        assert any(h.field == f"history[{len(record.history) - 1}]" for h in verdict.hits)


class TestEscapedPayloads:
    """A payload is scanned as the text its JSON literals stand for."""

    def test_escaped_leaks_fail_in_process(self):
        log = AuditLog()
        for instruction in ESCAPED_LEAKS:
            log.record_input(instruction, [1, 2])
        assert all(b"\\u" in record.payload for record in log.records)
        verdict = privacy_audit(log, ESCAPED_CONTEXT)
        assert not verdict.passed
        assert {(h.request_index, h.field) for h in verdict.hits} == {(0, "profile"), (1, "history[0]")}
        # Each literal's windows are the ones its raw UTF-8 text would show.
        raw = privacy_audit(log_with(*ESCAPED_LEAKS), ESCAPED_CONTEXT)
        assert sum(h.field == "profile" for h in raw.hits) == 9
        assert [(h.field, h.fragment) for h in verdict.hits] == [(h.field, h.fragment) for h in raw.hits]

    @pytest.mark.parametrize(
        "payload",
        [
            # not JSON: the escapes are read as the characters they are
            b"notes: Zo\\u00eb's caf\\u00e9 r\\u00e9sum\\u00e9 na\\u00efve",
            # a malformed literal (\\q) is scanned as it is
            b'{"instruction": "Zo\\u00eb\'s caf\\u00e9 r\\u00e9sum\\u00e9 na\\u00efve \\q"}',
        ],
        ids=["not-json", "malformed-literal"],
    )
    def test_a_payload_that_does_not_decode_is_scanned_as_it_is(self, payload):
        escaped = ContextBundle(profile=r"Zo\u00eb's caf\u00e9 r\u00e9sum\u00e9")
        verdict = privacy_audit([AuditRecord(payload)], escaped)
        assert not verdict.passed
        normalized = normalize_for_audit(payload.decode())
        assert all(normalized[h.offset : h.offset + MIN_MATCH_CHARS] == h.fragment for h in verdict.hits)
        assert privacy_audit([AuditRecord(payload)], ESCAPED_CONTEXT).passed

    @pytest.mark.parametrize(
        "payload",
        [b'"\\', b'"\\u12"', b'"\\ud800" ', b'\xff\xfe"\\"', b'{"a": "\\x"}', b'"\n\\n"', b"\\"],
    )
    def test_malformed_payloads_never_raise(self, payload):
        assert privacy_audit([AuditRecord(payload)], ESCAPED_CONTEXT).passed

    @settings(max_examples=200, deadline=None)
    @given(st.text(min_size=MIN_MATCH_CHARS), st.text(max_size=8), st.text(max_size=8))
    def test_any_field_inside_an_instruction_fails(self, text, before, after):
        assume(len(normalize_for_audit(text)) >= MIN_MATCH_CHARS)
        context = ContextBundle(profile=text)
        instruction = before + text + after
        frame = encode_frame(
            {"version": 1, "kind": "logits", "session": "s", "instruction": instruction,
             "prefix_ids": [3], "top_k": 10}
        )
        for payload in (payload_for_input(instruction, [3]), frame):
            records = [AuditRecord(payload)]
            verdict = privacy_audit(records, context)
            assert not verdict.passed
            reference = reference_privacy_audit(records, context)
            assert not reference.passed
            assert set(reference.hits) <= set(verdict.hits)


@pytest.fixture(scope="module")
def capturing_service(world0_backends):
    llm, _ = world0_backends
    handle = serve(llm, ("127.0.0.1", 0), ServeConfig(capture_payloads=True))
    yield handle
    handle.stop()


def captured(handle, session: str) -> list[tuple[AuditRecord, dict]]:
    """Each request the service captured from one session, in order, with
    its parsed body."""
    records = handle.service.request_log.records
    pairs = [(record, json.loads(record.payload)) for record in records]
    return [(record, body) for record, body in pairs if body["session"] == session]


class TestAuditOverTheWire:
    def test_escaped_leaks_fail_in_the_service_log(self, world0, capturing_service):
        client = ServiceClient(capturing_service.address, session_id="audit-escaped")
        try:
            client.hello(world0.vocab.digest())
            for instruction in ESCAPED_LEAKS:
                client.next_logits(instruction, (), 10, world0.vocab.size)
        finally:
            client.close()
        sent = captured(capturing_service, "audit-escaped")
        assert [body["kind"] for _, body in sent] == ["hello", "logits", "logits"]
        verdict = privacy_audit([record for record, _ in sent], ESCAPED_CONTEXT)
        assert not verdict.passed
        assert {(h.request_index, h.field) for h in verdict.hits} == {(1, "profile"), (2, "history[0]")}

    def test_the_client_log_equals_the_server_capture(self, world0, world0_backends, capturing_service):
        """``payload_for_input`` mirrors the wire request body: a fused
        session audited on the client records the requests the service
        captured, in order."""
        _, slms = world0_backends
        record = world0.test_records[1]
        client = ServiceClient(capturing_service.address, session_id="audit-mirror")
        try:
            log = AuditLog()
            remote = AuditedBackend(RemoteBackend(client, world0.vocab, top_k=10), log)
            mode = DecodeMode.fusion(FusionStrategy.mean())
            sampling = SamplingConfig(seed=3, max_new_tokens=24)
            decode(session_for_record(record, mode, sampling, slms[record.user_id], remote))
        finally:
            client.close()
        client_side = [json.loads(r.payload) for r in log.records]
        assert len(client_side) > 1
        server_side = [body for _, body in captured(capturing_service, "audit-mirror")]
        assert [body["kind"] for body in server_side] == ["hello"] + ["logits"] * len(client_side)
        assert [(p["instruction"], p["prefix_ids"]) for p in client_side] == [
            (body["instruction"], body["prefix_ids"]) for body in server_side[1:]
        ]
