"""Weight-net training reproduces the pinned parameters and losses.

``tests/goldens/train_digest.json`` holds a SHA-256 of the ``comb_save``
container after ``comb_train`` (seed 0, four epochs, no early stop) on
the examples harvested from ``build_world(0)``'s training records, and
the ``repr`` of every epoch's train and validation loss. A change to the
harvest, the loss, the gradient or the update changes one of them.
Regenerate the file only for a change that is meant to alter training:

    PYTHONPATH=src python tests/test_train_golden.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from cogen.combmodel import CombTrainConfig, comb_save, comb_train, harvest_examples
from cogen.synthetic import build_world, large_backend, small_backends

GOLDEN = Path(__file__).parent / "goldens" / "train_digest.json"
EPOCHS = 4


def train_digest() -> dict:
    world = build_world(0)
    llm = large_backend(world)
    slms = small_backends(world)
    examples = []
    for record in world.train_records:
        got, _ = harvest_examples(slms[record.user_id], llm, [record], world.tokenizer)
        examples.extend(got)
    cut = int(0.9 * len(examples))
    config = CombTrainConfig(seed=0, max_epochs=EPOCHS, patience=EPOCHS)
    params, report = comb_train(examples[:cut], examples[cut:], config)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "comb.bin"
        comb_save(params, path)
        blob = path.read_bytes()
    return {
        "examples": len(examples),
        "params_sha256": hashlib.sha256(blob).hexdigest(),
        "epoch_losses": [f"{e.train_loss!r} {e.val_loss!r}" for e in report.epochs],
    }


def test_train_digest_matches_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert train_digest() == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(train_digest(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
