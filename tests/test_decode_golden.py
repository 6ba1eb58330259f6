"""Every decode mode emits the same token ids as the pinned reference run.

``tests/goldens/decode_digests.json`` holds, per decode mode, a SHA-256
over the token ids (or the error class) of each session on
``build_world(0..4)``, three test records per world. A speed-up that
changes any sampled token changes a digest. Regenerate the file only
for a change that is meant to alter tokens:

    PYTHONPATH=src python tests/test_decode_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from cogen.combmodel import comb_init
from cogen.core import SamplingConfig
from cogen.decoder import DecodeMode, decode, fused_teacher_forced_ppl, session_for_record
from cogen.errors import CogenError
from cogen.fusion import FusionStrategy
from cogen.synthetic import build_world, large_backend, small_backends

GOLDEN = Path(__file__).parent / "goldens" / "decode_digests.json"
WORLD_SEEDS = range(5)
RECORDS_PER_WORLD = 3
MAX_NEW_TOKENS = 48

# The learnable mode runs an untrained (seeded) weight net: it exercises
# the same forward pass per step without paying for training.
MODES = {
    "slm_only": lambda comb: DecodeMode.slm_only(),
    "llm_only_with_context": lambda comb: DecodeMode.llm_with_context(),
    "llm_only_no_context": lambda comb: DecodeMode.llm_no_context(),
    "fixed(0.5)": lambda comb: DecodeMode.fusion(FusionStrategy.fixed(0.5)),
    "mean": lambda comb: DecodeMode.fusion(FusionStrategy.mean()),
    "max": lambda comb: DecodeMode.fusion(FusionStrategy.max_pool()),
    "learnable": lambda comb: DecodeMode.fusion(FusionStrategy.learnable(comb)),
    "first_k(8)": lambda comb: DecodeMode.first_k_mode(8, FusionStrategy.mean()),
    "sketch": lambda comb: DecodeMode.sketch("sketch"),
    "full_content": lambda comb: DecodeMode.sketch("full_content"),
}


def decode_digests() -> dict[str, str]:
    lines: dict[str, list[str]] = {name: [] for name in MODES}
    lines["teacher_forced[mean]"] = []
    comb = comb_init(0)
    for world_seed in WORLD_SEEDS:
        world = build_world(world_seed)
        llm = large_backend(world)
        slms = small_backends(world)
        for r, record in enumerate(world.test_records[:RECORDS_PER_WORLD]):
            slm = slms[record.user_id]
            sampling = SamplingConfig(seed=100 * world_seed + r, max_new_tokens=MAX_NEW_TOKENS)
            for name, make in MODES.items():
                session = session_for_record(record, make(comb), sampling, slm, llm)
                try:
                    outcome = " ".join(map(str, decode(session).token_ids))
                except CogenError as exc:
                    outcome = type(exc).__name__
                lines[name].append(f"{world_seed}/{r}: {outcome}")
            ppl = fused_teacher_forced_ppl(
                slm, llm, record, world.tokenizer, FusionStrategy.mean()
            )
            lines["teacher_forced[mean]"].append(f"{world_seed}/{r}: {ppl!r}")
    return {
        name: hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()
        for name, rows in lines.items()
    }


def test_decode_digests_match_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert decode_digests() == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(decode_digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
