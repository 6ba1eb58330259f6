"""The typed errors and rejections that bad arguments meet, one table row
each: a row's call must end with exactly its error class and message
(or, for ``filter_lamp``, its rejection reason)."""

import os

import pytest

from cogen.backends import Role, TableBackend
from cogen.combmodel import CombTrainConfig
from cogen.core import SamplingConfig, Vocab
from cogen.corpus import CorpusRecord, filter_lamp
from cogen.decoder import DecodeMode, GenerationSession, decode, read_trace, run_sketch_then_fill
from cogen.errors import (
    CorpusError,
    InvalidConfigError,
    InvalidInputError,
    SketchParseError,
    TemplateError,
)
from cogen.external import HttpCompletionsClient, external_next_logits
from cogen.fusion import FusionStrategy
from cogen.prompting import (
    DEFAULT_LIBRARY,
    SketchArtifact,
    build_judge_prompt,
    build_sketch_prompt,
    parse_sketch,
)
from cogen.report import bleu
from cogen.rng import Splitmix64
from cogen.tokenizer import split_text
from helpers import outcome, path_backend

VOCAB = Vocab(tokens=("A", "B", "</s>", "<unk>"), eos_id=2, unk_id=3)
RECORD = CorpusRecord(
    user_id="u", dataset_kind="email", task="pick one", reference="A B", history=("B A",)
)
GREEDY = SamplingConfig(greedy=True, max_new_tokens=4)


def session(mode, llm=None):
    return GenerationSession(
        slm=path_backend(VOCAB, Role.SMALL_DEVICE, ["A"]), llm=llm, mode=mode,
        sampling=GREEDY, record=RECORD,
    )


def empty_draft():
    # A large model that emits EOS at once drafts an empty full content.
    eos_only = TableBackend(VOCAB, Role.LARGE_CLOUD)
    small = path_backend(VOCAB, Role.SMALL_DEVICE, ["A"])
    return run_sketch_then_fill(eos_only, small, RECORD, GREEDY, conditioning="full_content")


def rejection_reasons(records, kind):
    return [rejected.reason for rejected in filter_lamp(records, kind)[1]]


PAPER_RECORD = CorpusRecord(user_id="u", dataset_kind="paper", task="t", reference="r" * 200)

# id -> (call, expected outcome: (value, None) or (None, (error class, message)))
ROWS = {
    "vocab-one-token": (
        lambda: Vocab(tokens=("</s>",), eos_id=0, unk_id=0),
        (None, (InvalidInputError, "vocab needs at least 2 tokens")),
    ),
    "vocab-duplicate-token": (
        lambda: Vocab(tokens=("A", "A", "</s>"), eos_id=2, unk_id=0),
        (None, (InvalidInputError, "duplicate token 'A'")),
    ),
    "vocab-eos-out-of-range": (
        lambda: Vocab(tokens=("A", "</s>"), eos_id=2, unk_id=0),
        (None, (InvalidInputError, "eos_id 2 out of range")),
    ),
    "sampling-seed-too-wide": (
        lambda: SamplingConfig(seed=2**64),
        (None, (InvalidConfigError, "seed must fit in 64 unsigned bits")),
    ),
    "decode-mode-unknown-kind": (
        lambda: DecodeMode(kind="beam"),
        (None, (InvalidConfigError, "unknown decode mode 'beam'")),
    ),
    "decode-mode-bad-sketch-conditioning": (
        lambda: DecodeMode(kind="sketch_then_fill", sketch_conditioning="outline"),
        (None, (InvalidConfigError, "sketch conditioning must be 'sketch' or 'full_content'")),
    ),
    "session-without-large-backend": (
        lambda: session(DecodeMode.llm_no_context()),
        (None, (InvalidConfigError, "mode llm_only_no_context needs a large backend")),
    ),
    "decode-retry-policy": (
        lambda: decode(session(DecodeMode.slm_only()), on_transport_error="retry"),
        (None, (InvalidConfigError, "on_transport_error must be 'abort' or 'degrade'")),
    ),
    "empty-full-content-draft": (
        empty_draft,
        (None, (InvalidInputError, "large model produced an empty draft")),
    ),
    "read-trace-empty-file": (
        lambda: read_trace(os.devnull),
        (None, (InvalidConfigError, f"trace file {os.devnull} is empty")),
    ),
    "fusion-strategy-unknown-kind": (
        lambda: FusionStrategy(kind="median"),
        (None, (InvalidConfigError, "unknown fusion strategy 'median'")),
    ),
    "comb-train-batch-size-zero": (
        lambda: CombTrainConfig(batch_size=0),
        (None, (InvalidConfigError, "batch_size must be >= 1")),
    ),
    "record-unknown-dataset-kind": (
        lambda: CorpusRecord(user_id="u", dataset_kind="tweet", task="t", reference="r"),
        (None, (CorpusError, "unknown dataset_kind 'tweet'")),
    ),
    "record-empty-task": (
        lambda: CorpusRecord(user_id="u", dataset_kind="email", task="", reference="r"),
        (None, (CorpusError, "task must be non-empty")),
    ),
    "filter-lamp-kind-mismatch": (
        lambda: rejection_reasons([PAPER_RECORD], "email"),
        (["dataset_kind 'paper' != 'email'"], None),
    ),
    "external-empty-endpoint": (
        lambda: HttpCompletionsClient(""),
        (None, (InvalidConfigError, "external service endpoint is empty")),
    ),
    "external-top-k-zero": (
        lambda: external_next_logits(None, None, 0, VOCAB),
        (None, (InvalidConfigError, "top_k must be >= 1")),
    ),
    "template-unknown-id": (
        lambda: DEFAULT_LIBRARY.text("no_such_template"),
        (None, (TemplateError, "unknown template id 'no_such_template'")),
    ),
    "sketch-prompt-empty-task": (
        lambda: build_sketch_prompt("", "email"),
        (None, (InvalidInputError, "sketch prompt needs a non-empty task")),
    ),
    "sketch-artifact-no-points": (
        lambda: SketchArtifact(points=(), raw_text=""),
        (None, (InvalidInputError, "a sketch needs at least one point")),
    ),
    "sketch-markers-without-content": (
        lambda: parse_sketch("1.\n2.  "),
        (None, (SketchParseError, "numbered markers carried no content")),
    ),
    "judge-unknown-kind": (
        lambda: build_judge_prompt("style", RECORD, "an answer"),
        (None, (InvalidConfigError, "unknown judge prompt kind 'style'")),
    ),
    "bleu-no-references": (
        lambda: bleu(["a"], []),
        (None, (InvalidInputError, "bleu needs at least one reference")),
    ),
    "next-below-zero": (
        lambda: Splitmix64(0).next_below(0),
        (None, (ValueError, "n must be positive")),
    ),
    "tokenizer-unknown-policy": (
        lambda: split_text("a b", "bpe"),
        (None, (InvalidConfigError, "unknown tokenizer policy 'bpe'")),
    ),
}


@pytest.mark.parametrize("name", list(ROWS))
def test_bad_argument_meets_its_typed_error(name):
    call, expected = ROWS[name]
    assert outcome(call) == expected
