"""Next-token backends and the request types they consume.

Two desk-scale deterministic backends stand in for the production-scale
networks: a table automaton for exact scripted behavior in tests, and an
add-alpha smoothed n-gram model for statistical behavior. Both expose the
same ``next_distribution`` surface as the remote and external adapters,
so the decoder never cares where a distribution came from.

The privacy boundary is enforced structurally here: a request addressed
to a context-blind (large_cloud) backend cannot be constructed with
context attached. The only exception is an explicit waiver used by the
context-uploading baseline, which exists precisely to measure what that
privacy sacrifice buys.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import TokenDistribution, Vocab
from .errors import (
    InvalidConfigError,
    InvalidInputError,
    PrivacyContractError,
)
from .tokenizer import Tokenizer, build_vocab, split_text


class Role(str, Enum):
    LARGE_CLOUD = "large_cloud"
    SMALL_DEVICE = "small_device"


class BackendKind(str, Enum):
    TABLE = "table"
    NGRAM = "ngram"
    REMOTE = "remote"
    EXTERNAL_HTTP = "external_http"


@dataclass(frozen=True)
class BackendDescriptor:
    kind: BackendKind
    role: Role
    vocab_ref: str
    params_uri: str

    def __post_init__(self) -> None:
        if not isinstance(self.kind, BackendKind):
            object.__setattr__(self, "kind", BackendKind(self.kind))
        if not isinstance(self.role, Role):
            object.__setattr__(self, "role", Role(self.role))


@dataclass(frozen=True)
class ContextBundle:
    """Private conditioning material: profile, writing history, activity logs."""

    profile: str = ""
    history: tuple[str, ...] = ()
    activities: tuple[str, ...] = ()

    def fields(self):
        if self.profile:
            yield "profile", self.profile
        for i, item in enumerate(self.history):
            yield f"history[{i}]", item
        for i, item in enumerate(self.activities):
            yield f"activities[{i}]", item

    def is_empty(self) -> bool:
        return not (self.profile or self.history or self.activities)

    def as_text(self) -> str:
        parts = [self.profile] + list(self.history) + list(self.activities)
        return "\n".join(p for p in parts if p)


@dataclass(frozen=True)
class ConditioningInput:
    """One next-token request: instruction, optional context, emitted prefix.

    ``receiver_role`` names the backend the request is addressed to.
    Attaching context to a large_cloud request raises immediately unless
    the caller sets ``context_upload_waiver`` — reserved for the
    deliberately privacy-sacrificing baseline, and never honored by the
    wire protocol, whose request schema has no context field at all.
    """

    instruction: str
    prefix_ids: tuple[int, ...] = ()
    context: ContextBundle | None = None
    receiver_role: Role = Role.SMALL_DEVICE
    context_upload_waiver: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix_ids", tuple(map(int, self.prefix_ids)))
        if (
            self.receiver_role == Role.LARGE_CLOUD
            and self.context is not None
            and not self.context.is_empty()
            and not self.context_upload_waiver
        ):
            raise PrivacyContractError(
                "context attached to a large_cloud request; "
                "the context-blind backend must receive instruction and prefix only"
            )


class Backend:
    """Common request validation for in-process backends."""

    vocab: Vocab
    role: Role
    kind: BackendKind

    def next_distribution(self, request: ConditioningInput) -> TokenDistribution:
        self._check(request)
        return self._distribution(request)

    def _check(self, request: ConditioningInput) -> None:
        if (
            self.role == Role.LARGE_CLOUD
            and request.context is not None
            and not request.context.is_empty()
            and not request.context_upload_waiver
        ):
            raise PrivacyContractError("large_cloud backend given context")
        ids = request.prefix_ids
        size = self.vocab.size
        if ids and (min(ids) < 0 or max(ids) >= size):
            bad = next(tid for tid in ids if not 0 <= tid < size)
            raise InvalidInputError(f"token id {bad} outside vocab of size {size}")

    def _distribution(self, request: ConditioningInput) -> TokenDistribution:
        raise NotImplementedError

    def describe(self) -> BackendDescriptor:
        return BackendDescriptor(
            kind=self.kind, role=self.role, vocab_ref=self.vocab.digest(), params_uri="in-process"
        )


def _resolve_dist(vocab: Vocab, mapping) -> np.ndarray:
    """Token->probability mapping resolved to a normalized dense vector."""
    vec = np.zeros(vocab.size, dtype=np.float64)
    for token, p in mapping.items():
        if p < 0:
            raise InvalidConfigError("table probabilities must be non-negative")
        if token not in vocab:
            raise InvalidConfigError(f"table rule names unknown token {token!r}")
        vec[vocab.id_of(token)] += float(p)
    total = vec.sum()
    if total <= 0:
        raise InvalidConfigError("table rule has no probability mass")
    return vec / total


class TableBackend(Backend):
    """Scripted automaton: the emitted prefix (as token strings) selects
    the next-token distribution.

    ``keyed`` lets the instruction text pick between rule sets — the first
    entry whose needle occurs in the instruction wins — which is how tests
    script models that react to, say, a particular sketch. Unmatched
    prefixes fall back to ``default`` and finally to end-of-sequence.
    """

    kind = BackendKind.TABLE

    def __init__(self, vocab, role, rules=None, keyed=(), default=None):
        self.vocab = vocab
        self.role = Role(role)
        self._rules = {
            tuple(prefix): _resolve_dist(vocab, dist) for prefix, dist in (rules or {}).items()
        }
        self._keyed = tuple(
            (needle, {tuple(p): _resolve_dist(vocab, d) for p, d in ruleset.items()})
            for needle, ruleset in keyed
        )
        self._default = None if default is None else _resolve_dist(vocab, default)
        eos = np.zeros(vocab.size, dtype=np.float64)
        eos[vocab.eos_id] = 1.0
        self._eos = eos

    @staticmethod
    def path_rules(vocab: Vocab, path_tokens) -> dict:
        """Prefix rules spelling out a fixed path followed by EOS."""
        path = list(path_tokens)
        rules = {}
        for i, tok in enumerate(path):
            rules[tuple(path[:i])] = {tok: 1.0}
        rules[tuple(path)] = {vocab.tokens[vocab.eos_id]: 1.0}
        return rules

    @classmethod
    def from_path(cls, vocab, role, path_tokens):
        return cls(vocab, role, rules=cls.path_rules(vocab, path_tokens))

    @classmethod
    def constant(cls, vocab, role, dist):
        return cls(vocab, role, default=dist)

    def _distribution(self, request: ConditioningInput) -> TokenDistribution:
        rules = self._rules
        for needle, ruleset in self._keyed:
            if needle in request.instruction:
                rules = ruleset
                break
        key = tuple(self.vocab.token(i) for i in request.prefix_ids)
        vec = rules.get(key)
        if vec is None:
            vec = self._default if self._default is not None else self._eos
        return TokenDistribution.dense(vec)


@dataclass(frozen=True)
class NGramModel:
    """Add-alpha smoothed n-gram counts over a fixed vocabulary."""

    n: int
    alpha: float
    vocab: Vocab
    policy: str
    counts: dict = field(repr=False)  # (n-1)-gram id tuple -> {token_id: count}
    totals: dict = field(repr=False)  # (n-1)-gram id tuple -> total count

    def conditional(self, history_ids) -> np.ndarray:
        """P(. | history) with add-alpha smoothing; always normalized."""
        h = tuple(history_ids[-(self.n - 1):]) if self.n > 1 else ()
        vec = np.full(self.vocab.size, self.alpha, dtype=np.float64)
        for tid, c in self.counts.get(h, {}).items():
            vec[tid] += c
        return vec / (self.totals.get(h, 0) + self.alpha * self.vocab.size)

    def to_jsonable(self) -> dict:
        """Canonical serializable form; equal models serialize equally."""
        return {
            "n": self.n,
            "alpha": self.alpha,
            "policy": self.policy,
            "vocab": {
                "tokens": list(self.vocab.tokens),
                "eos_id": self.vocab.eos_id,
                "unk_id": self.vocab.unk_id,
            },
            "counts": {
                ",".join(map(str, key)): dict(sorted(nexts.items()))
                for key, nexts in sorted(self.counts.items())
            },
        }

    def to_bytes(self) -> bytes:
        return json.dumps(self.to_jsonable(), sort_keys=True).encode("utf-8")


def train_ngram(
    corpus_texts,
    n: int,
    alpha: float,
    vocab_policy: str = "whitespace",
    vocab: Vocab | None = None,
    append_eos: bool = True,
) -> NGramModel:
    """Count sliding-window n-grams over each text independently.

    With ``append_eos`` each text contributes a terminal EOS transition so
    generation can stop; the window never crosses text boundaries.
    """
    corpus_texts = list(corpus_texts)
    if not corpus_texts or all(not split_text(t, vocab_policy) for t in corpus_texts):
        raise InvalidInputError("training corpus is empty")
    if n < 1:
        raise InvalidConfigError("n must be >= 1")
    if not (alpha > 0):
        raise InvalidConfigError("alpha must be > 0")
    if vocab is None:
        vocab = build_vocab(corpus_texts, vocab_policy)
    tok = Tokenizer(vocab, vocab_policy)
    counts: dict = defaultdict(dict)
    totals: dict = defaultdict(int)
    for text in corpus_texts:
        ids = tok.tokenize(text)
        if append_eos:
            ids = ids + [vocab.eos_id]
        for i in range(len(ids) - n + 1):
            window = ids[i : i + n]
            h, nxt = tuple(window[:-1]), window[-1]
            counts[h][nxt] = counts[h].get(nxt, 0) + 1
            totals[h] += 1
    return NGramModel(
        n=n, alpha=alpha, vocab=vocab, policy=vocab_policy, counts=dict(counts), totals=dict(totals)
    )


class NGramBackend(Backend):
    """Statistical stand-in conditioning on instruction, context, and prefix.

    Only the last n-1 tokens of the concatenated conditioning stream
    matter, which is exactly the point: a context-holding instance trained
    on a user's text behaves differently from a context-blind one trained
    on everyone's. Once the prefix alone holds n-1 tokens, the instruction
    and context can no longer reach the window and are not tokenized.
    """

    kind = BackendKind.NGRAM

    def __init__(self, model: NGramModel, role):
        self.model = model
        self.vocab = model.vocab
        self.role = Role(role)
        self._tok = Tokenizer(model.vocab, model.policy)

    def _distribution(self, request: ConditioningInput) -> TokenDistribution:
        if len(request.prefix_ids) >= self.model.n - 1:
            return TokenDistribution.dense(self.model.conditional(request.prefix_ids))
        stream = self._tok.tokenize(request.instruction)
        if request.context is not None and not request.context.is_empty():
            stream += self._tok.tokenize(request.context.as_text())
        stream += list(request.prefix_ids)
        return TokenDistribution.dense(self.model.conditional(stream))


def perplexity(backend, token_ids, instruction: str = "", context=None) -> float:
    """exp of the mean negative log probability of each token given its
    true prefix; a zero-probability token yields infinity, not a crash."""
    token_ids = [int(t) for t in token_ids]
    if not token_ids:
        raise InvalidInputError("cannot score an empty sequence")
    role = getattr(backend, "role", Role.SMALL_DEVICE)
    nll = 0.0
    for i, target in enumerate(token_ids):
        request = ConditioningInput(
            instruction=instruction,
            prefix_ids=tuple(token_ids[:i]),
            context=context,
            receiver_role=role,
        )
        p = backend.next_distribution(request).prob_of(target)
        if p <= 0.0:
            return math.inf
        nll -= math.log(p)
    return math.exp(nll / len(token_ids))
