"""Whitespace tokenization over a shared vocabulary.

Fusion blends both models' distributions over one vocabulary, so every
path that turns model text into ids splits it one way: on whitespace.
Vocabularies built here list the corpus tokens in sorted order followed
by the end-of-sequence and unknown markers, so construction is fully
deterministic. ``split_text``'s ``char`` policy serves only the metrics
(``eval metrics --policy``), never a model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Vocab
from .errors import InvalidConfigError

EOS_TOKEN = "</s>"
UNK_TOKEN = "<unk>"


def split_text(text: str, policy: str) -> list[str]:
    if policy == "whitespace":
        return text.split()
    if policy == "char":
        return [ch for ch in text if not ch.isspace()]
    raise InvalidConfigError(f"unknown tokenizer policy {policy!r}")


def build_vocab(texts) -> Vocab:
    """Vocabulary over all tokens in ``texts`` plus EOS/UNK markers."""
    seen = set()
    for text in texts:
        seen.update(text.split())
    seen.discard(EOS_TOKEN)
    seen.discard(UNK_TOKEN)
    tokens = tuple(sorted(seen)) + (EOS_TOKEN, UNK_TOKEN)
    return Vocab(tokens=tokens, eos_id=len(tokens) - 2, unk_id=len(tokens) - 1)


@dataclass(frozen=True)
class Tokenizer:
    vocab: Vocab

    def tokenize(self, text: str) -> list[int]:
        """Token ids for ``text``; out-of-vocabulary pieces map to UNK."""
        return [self.vocab.id_of(tok) for tok in text.split()]

    def detokenize(self, ids) -> str:
        return " ".join(map(self.vocab.tokens.__getitem__, ids))
