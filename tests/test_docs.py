"""The documentation's pinned artifacts must match the code."""

import json
import re
from pathlib import Path

from cogen.corpus import load_corpus
from cogen.fusion import TOP_K
from cogen.rng import Splitmix64
from cogen.service import MAX_NEW_TOKENS_CAP, TOP_K_CAP, encode_frame, float_to_bits, read_frame

DOCS = Path(__file__).parent.parent / "docs"


def test_corpus_schema_golden_line_loads(tmp_path):
    text = (DOCS / "corpus-schema.md").read_text(encoding="utf-8")
    match = re.search(r"```json\n(.+?)\n```", text, re.S)
    assert match, "corpus-schema.md lost its golden example line"
    corpus_file = tmp_path / "golden.jsonl"
    corpus_file.write_text(match.group(1) + "\n", encoding="utf-8")
    records = load_corpus(corpus_file)
    assert len(records) == 1
    assert records[0].dataset_kind == "context_aware"
    assert records[0].general_task


def _doc_hex_blocks():
    text = (DOCS / "protocol.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```\n([0-9a-f\n]+?)\n```", text)
    return ["".join(b.split()) for b in blocks]


def test_protocol_golden_frames_decode_and_match_encoder():
    blocks = _doc_hex_blocks()
    assert len(blocks) == 2, "protocol.md should pin exactly two golden frames"
    for raw_hex in blocks:
        blob = bytes.fromhex(raw_hex)
        cursor = [0]

        def read_exactly(n):
            chunk = blob[cursor[0] : cursor[0] + n]
            assert len(chunk) == n
            cursor[0] += n
            return chunk

        obj, _ = read_frame(read_exactly)
        assert cursor[0] == len(blob), "frame shorter than the documented bytes"
        assert encode_frame(obj) == blob, "canonical re-encoding drifted from the doc"
    hello, logits = (json.loads(bytes.fromhex(b)[4:]) for b in blocks)
    assert hello["kind"] == "hello"
    assert logits["entries"][0] == [2, float_to_bits(0.5)]


def test_protocol_doc_states_the_service_caps():
    text = (DOCS / "protocol.md").read_text(encoding="utf-8")
    assert f"`min(top_k, {TOP_K_CAP})`" in text
    assert f"at most {MAX_NEW_TOKENS_CAP} (`MAX_NEW_TOKENS_CAP`)" in text


def test_protocol_doc_states_the_top_k_default():
    # A logits request without top_k gets the fused step's own cut.
    text = (DOCS / "protocol.md").read_text(encoding="utf-8")
    row = re.search(r"^\| logits +\| `top_k` +\|[^|\n]*\| optional; defaults to (\d+) +\|$", text, re.M)
    assert row, "protocol.md lost the top_k row"
    assert int(row.group(1)) == TOP_K


def test_rng_doc_reference_sequences():
    text = (DOCS / "rng.md").read_text(encoding="utf-8")
    for seed in (0, 42):
        row = re.search(rf"\|\s*{seed}\s*\|\s*([\d,\s]+)\|", text)
        assert row, f"rng.md lost the seed-{seed} row"
        documented = [int(x) for x in row.group(1).replace(",", " ").split()]
        rng = Splitmix64(seed)
        assert documented == [rng.next_u64() for _ in range(len(documented))]
