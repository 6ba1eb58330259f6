"""Next-token backends, the request types they consume, and cursors.

Two desk-scale deterministic backends stand in for the production-scale
networks: a table automaton for exact scripted behavior in tests, and an
add-alpha smoothed n-gram model for statistical behavior. Both expose the
same ``next_distribution`` surface as the remote and external adapters,
so the decoder never cares where a distribution came from.

A decode loop conditions through a cursor instead: ``open_cursor(backend,
instruction, context)`` fixes the instruction and context once, then
``push(token_id)`` appends each emitted token and ``distribution()``
answers for the prefix pushed so far. ``NGramBackend.open`` is the one
native cursor; it keeps only the last n-1 ids of the conditioning stream,
so a step costs the same at any prefix length. Every other backend (the
table, remote and external adapters, and wrappers such as test doubles)
gets ``RequestCursor``, which keeps the prefix and sends each step as the
``ConditioningInput`` a direct caller would build.

The privacy boundary is enforced structurally here: a request addressed
to a context-blind (large_cloud) backend cannot be constructed with
context attached, and a large_cloud cursor cannot be opened with context.
The only exception is an explicit waiver used by the context-uploading
baseline, which exists precisely to measure what that privacy sacrifice
buys. ``check_context_blind`` is the one gate every path toward a large
backend goes through: ``ConditioningInput`` calls it on construction and
each cursor calls it on ``open``. A cursor range-checks each id once, on
``push``.
"""

from __future__ import annotations

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

    def __bool__(self) -> bool:
        return not self.is_empty()

    def as_text(self) -> str:
        parts = [self.profile] + list(self.history) + list(self.activities)
        return "\n".join(p for p in parts if p)


def check_context_blind(role: Role, context: ContextBundle | None, waiver: bool = False) -> None:
    """The privacy gate: a large_cloud receiver never gets context.

    ``waiver`` lets the context-uploading baseline through in process;
    the service client and the external adapter never pass it, so that
    baseline cannot leave the process.
    """
    if role == Role.LARGE_CLOUD and context and not waiver:
        raise PrivacyContractError("large_cloud backend given context")


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
        check_context_blind(self.receiver_role, self.context, self.context_upload_waiver)


class Backend:
    """Common request validation for in-process backends."""

    vocab: Vocab
    role: Role

    def next_distribution(self, request: ConditioningInput) -> TokenDistribution:
        self._check(request)
        return self._distribution(request)

    def _check(self, request: ConditioningInput) -> None:
        check_context_blind(self.role, request.context, request.context_upload_waiver)
        ids = request.prefix_ids
        size = self.vocab.size
        if ids and (min(ids) < 0 or max(ids) >= size):
            bad = next(tid for tid in ids if not 0 <= tid < size)
            raise InvalidInputError(f"token id {bad} outside vocab of size {size}")

    def _distribution(self, request: ConditioningInput) -> TokenDistribution:
        raise NotImplementedError


def _check_id(token_id: int, size: int) -> None:
    if not 0 <= token_id < size:
        raise InvalidInputError(f"token id {token_id} outside vocab of size {size}")


class RequestCursor:
    """The cursor of a backend without a native one.

    It keeps the emitted prefix and sends each ``distribution()`` as the
    ``ConditioningInput`` of the whole prefix, so the backend (or a
    wrapper timing or recording it) sees exactly the requests a direct
    caller of ``next_distribution`` would make.
    """

    def __init__(self, backend, instruction: str, context=None, waiver: bool = False):
        self._role = getattr(backend, "role", Role.SMALL_DEVICE)
        check_context_blind(self._role, context, waiver)
        self._backend = backend
        self._instruction = instruction
        self._context = context
        self._waiver = waiver
        self._size = backend.vocab.size
        self._prefix: list[int] = []

    def push(self, token_id: int) -> None:
        _check_id(token_id, self._size)
        self._prefix.append(token_id)

    def distribution(self) -> TokenDistribution:
        request = ConditioningInput(
            self._instruction, tuple(self._prefix), self._context, self._role, self._waiver
        )
        return self._backend.next_distribution(request)


def open_cursor(backend, instruction: str, context=None, *, waiver: bool = False):
    """A cursor over ``backend`` for one instruction and context: the
    backend's own ``open`` when it has one, else a ``RequestCursor``."""
    native = getattr(backend, "open", None)
    if native is not None:
        return native(instruction, context, waiver=waiver)
    return RequestCursor(backend, instruction, context, waiver)


def _resolve_dist(vocab: Vocab, mapping) -> TokenDistribution:
    """Token->probability mapping resolved to a normalized dense distribution."""
    vec = np.zeros(vocab.size, dtype=np.float64)
    for token, p in mapping.items():
        if not 0 <= p < math.inf:
            raise InvalidConfigError("table probabilities must be finite and non-negative")
        if token not in vocab:
            raise InvalidConfigError(f"table rule names unknown token {token!r}")
        vec[vocab.id_of(token)] += float(p)
    total = vec.sum()
    if total <= 0:
        raise InvalidConfigError("table rule has no probability mass")
    return TokenDistribution.dense(vec / total)


class TableBackend(Backend):
    """Scripted automaton: the emitted prefix (as token strings) selects
    the next-token distribution.

    ``keyed`` lets the instruction text pick between rule sets — the first
    entry whose needle occurs in the instruction wins — which is how tests
    script models that react to, say, a particular sketch. Unmatched
    prefixes fall back to ``default`` and finally to end-of-sequence.
    """

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
        self._eos = TokenDistribution.dense(eos)

    @staticmethod
    def path_rules(vocab: Vocab, path_tokens) -> dict:
        """Prefix rules spelling out a fixed path followed by EOS."""
        path = list(path_tokens)
        rules = {}
        for i, tok in enumerate(path):
            rules[tuple(path[:i])] = {tok: 1.0}
        rules[tuple(path)] = {vocab.tokens[vocab.eos_id]: 1.0}
        return rules

    def _distribution(self, request: ConditioningInput) -> TokenDistribution:
        rules = self._rules
        for needle, ruleset in self._keyed:
            if needle in request.instruction:
                rules = ruleset
                break
        key = tuple(self.vocab.token(i) for i in request.prefix_ids)
        dist = rules.get(key)
        if dist is None:
            dist = self._default if self._default is not None else self._eos
        return dist


@dataclass(frozen=True)
class NGramModel:
    """Add-alpha smoothed n-gram counts over a fixed vocabulary."""

    n: int
    alpha: float
    vocab: Vocab
    policy: str
    counts: dict = field(repr=False)  # (n-1)-gram id tuple -> {token_id: count}
    totals: dict = field(repr=False)  # (n-1)-gram id tuple -> total count

    def history_key(self, history_ids) -> tuple:
        """The last n-1 ids of a history: all that ``conditional`` reads."""
        return tuple(history_ids[-(self.n - 1):]) if self.n > 1 else ()

    def conditional(self, history_ids) -> np.ndarray:
        """P(. | history) with add-alpha smoothing; always normalized."""
        h = self.history_key(history_ids)
        vec = np.full(self.vocab.size, self.alpha, dtype=np.float64)
        for tid, c in self.counts.get(h, {}).items():
            vec[tid] += c
        return vec / (self.totals.get(h, 0) + self.alpha * self.vocab.size)


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
    on everyone's. The stream is the instruction, then the context, then
    the prefix. Only the tokens that reach the window are looked up: none
    of the instruction and context once the prefix alone holds n-1
    tokens. ``open`` looks them up once and returns an ``NGramCursor``
    that keeps only the window.

    Each history's distribution is built once and memoized. Every history
    the model never counted gets the same uniform distribution, so all of
    them share one entry (key ``None``) and the memo holds at most
    ``len(model.counts) + 1`` distributions, each with at most one cached
    sampling nucleus (see ``TokenDistribution``). Service handler threads
    share one backend; a racy fill is harmless because the entries are
    immutable and a lost race only builds the same distribution twice.
    """

    def __init__(self, model: NGramModel, role):
        self.model = model
        self.vocab = model.vocab
        self.role = Role(role)
        self._memo: dict = {}

    def _stream_tail(self, instruction: str, context, k: int) -> list[int]:
        """Ids of the last ``k`` (at least 1) tokens of the instruction
        followed by the context; only those pieces are looked up."""
        pieces = split_text(instruction, self.model.policy)
        if context:
            pieces += split_text(context.as_text(), self.model.policy)
        return [self.vocab.id_of(piece) for piece in pieces[-k:]]

    def _distribution(self, request: ConditioningInput) -> TokenDistribution:
        ids = request.prefix_ids
        short = self.model.n - 1 - len(ids)
        if short > 0:
            ids = self._stream_tail(request.instruction, request.context, short) + list(ids)
        return self._memoized(self.model.history_key(ids))

    def _memoized(self, h: tuple) -> TokenDistribution:
        """The distribution after history ``h`` (at most n-1 ids)."""
        slot = h if h in self.model.counts else None
        dist = self._memo.get(slot)
        if dist is None:
            dist = TokenDistribution.dense(self.model.conditional(h))
            self._memo[slot] = dist
        return dist

    def open(self, instruction: str, context=None, *, waiver: bool = False) -> "NGramCursor":
        check_context_blind(self.role, context, waiver)
        keep = self.model.n - 1
        history = tuple(self._stream_tail(instruction, context, keep)) if keep else ()
        return NGramCursor(self, history)


class NGramCursor:
    """An n-gram backend's cursor: the last n-1 ids of the stream so far."""

    __slots__ = ("_backend", "_history", "_keep", "_size")

    def __init__(self, backend: NGramBackend, history: tuple) -> None:
        self._backend = backend
        self._history = history
        self._keep = backend.model.n - 1
        self._size = backend.vocab.size

    def push(self, token_id: int) -> None:
        _check_id(token_id, self._size)
        if self._keep:
            self._history = (self._history + (token_id,))[-self._keep:]

    def distribution(self) -> TokenDistribution:
        return self._backend._memoized(self._history)
