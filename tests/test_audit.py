"""The byte-level privacy audit."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from cogen.audit import (
    MIN_MATCH_CHARS,
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
from cogen.synthetic import build_world, large_backend, small_backends
from helpers import reference_privacy_audit


PROFILE = "Amateur astronomer who logs every meteor shower in a leather notebook."
CONTEXT = ContextBundle(
    profile=PROFILE,
    history=("Last night's observation session ran until three in the morning.",),
)


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
        decode(session_for_record(record, mode, sampling, slm, llm), audit_log=log)
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
