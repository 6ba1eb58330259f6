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
so a step costs the same at any prefix length, and it reads them from the
stream's end, so an open costs the same at any context length. Every
other backend (the table, remote and external adapters, and wrappers
such as test doubles) gets ``RequestCursor``, which keeps the prefix and
sends each step as the ``ConditioningInput`` a direct caller would build.

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
from itertools import chain

import numpy as np

from .core import TokenDistribution, Vocab
from .errors import (
    IncompatibleVocabError,
    InvalidConfigError,
    InvalidInputError,
    PrivacyContractError,
)
from .tokenizer import Tokenizer, build_vocab


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
    """Private conditioning material, what a corpus record holds: the
    user's profile and writing history."""

    profile: str = ""
    history: tuple[str, ...] = ()

    def fields(self):
        if self.profile:
            yield "profile", self.profile
        for i, item in enumerate(self.history):
            yield f"history[{i}]", item

    def __bool__(self) -> bool:
        return bool(self.profile or self.history)

    def as_text(self) -> str:
        parts = [self.profile] + list(self.history)
        return "\n".join(p for p in parts if p)


def check_context_blind(role: Role, context: ContextBundle | None, waiver: bool = False) -> None:
    """The privacy gate: a large_cloud receiver never gets context.

    ``waiver`` lets the context-uploading baseline through in process;
    the service client and the external adapter never pass it, so that
    baseline cannot leave the process.
    """
    if role == Role.LARGE_CLOUD and context and not waiver:
        raise PrivacyContractError("large_cloud backend given context")


def check_shared_vocab(slm, llm) -> None:
    """The rule of every fused decode and teacher-forced walk that reads
    both sides: one vocabulary, so an id names one token on either."""
    if slm.vocab.digest() != llm.vocab.digest():
        raise IncompatibleVocabError("fusing two backends requires them to share one vocabulary")


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
        self._role = backend.role
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


def train_ngram(corpus_texts, n: int, alpha: float, vocab: Vocab | None = None) -> NGramModel:
    """Count sliding-window n-grams over each text independently.

    Each text contributes a terminal EOS transition so generation can
    stop; the window never crosses text boundaries.
    """
    corpus_texts = list(corpus_texts)
    if not corpus_texts or all(not t.split() for t in corpus_texts):
        raise InvalidInputError("training corpus is empty")
    if n < 1:
        raise InvalidConfigError("n must be >= 1")
    if not 0 < alpha < math.inf:
        raise InvalidConfigError("alpha must be finite and > 0")
    if vocab is None:
        vocab = build_vocab(corpus_texts)
    tok = Tokenizer(vocab)
    counts: dict = defaultdict(dict)
    totals: dict = defaultdict(int)
    for text in corpus_texts:
        ids = tok.tokenize(text) + [vocab.eos_id]
        for i in range(len(ids) - n + 1):
            window = ids[i : i + n]
            h, nxt = tuple(window[:-1]), window[-1]
            counts[h][nxt] = counts[h].get(nxt, 0) + 1
            totals[h] += 1
    return NGramModel(n=n, alpha=alpha, vocab=vocab, counts=dict(counts), totals=dict(totals))


class NGramBackend(Backend):
    """Statistical stand-in conditioning on instruction, context, and prefix.

    Only the last n-1 tokens of the concatenated conditioning stream
    matter, which is exactly the point: a context-holding instance trained
    on a user's text behaves differently from a context-blind one trained
    on everyone's. The stream is the instruction, then the context, then
    the prefix. It is read from its end, at a cost set by n rather than
    by the context: only the fields that reach the window are split and
    only the tokens in it are looked up, and none of the instruction and
    context once the prefix alone holds n-1 tokens. ``open`` reads them
    once and returns an ``NGramCursor`` that keeps only the window.

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
        followed by the context, read from the stream's end.

        The walk takes the history items last to first, then the profile,
        then the instruction, splits each only for the pieces still
        missing, and stops once it holds ``k``, so its cost is set by
        ``k``, not by the context's length. The ids are those of
        ``(instruction.split() + context.as_text().split())[-k:]``:
        ``as_text`` joins the fields with a newline, and
        ``str.rsplit(None, need)`` splits where ``str.split()`` does.
        """
        id_of = self.vocab.id_of
        if context is None:
            return [id_of(piece) for piece in instruction.rsplit(None, k)[-k:]]
        pieces: list[str] = []
        for text in chain(reversed(context.history), (context.profile, instruction)):
            need = k - len(pieces)
            pieces = text.rsplit(None, need)[-need:] + pieces
            if len(pieces) == k:
                break
        return [id_of(piece) for piece in pieces]

    def _distribution(self, request: ConditioningInput) -> TokenDistribution:
        ids = request.prefix_ids
        short = self.model.n - 1 - len(ids)
        if short > 0:
            ids = self._stream_tail(request.instruction, request.context, short) + list(ids)
        return self._memoized(self.model.history_key(ids))

    def _memoized(self, h: tuple) -> TokenDistribution:
        """The distribution after history ``h`` (at most n-1 ids).

        ``h`` itself is looked up first, so a counted history whose entry
        exists costs one dict lookup; only a miss tests whether the model
        counted ``h`` and, if not, reads the shared ``None`` entry."""
        dist = self._memo.get(h)
        if dist is not None:
            return dist
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
    """An n-gram backend's cursor: the last n-1 ids of the stream so far.

    It holds its backend's memo and reads the entry for its history
    straight from it; a history with no entry of its own (one not yet
    seen, or one the model never counted) goes through
    ``NGramBackend._memoized``. ``push`` range-checks the id inline and
    calls ``_check_id`` only to raise its error."""

    __slots__ = ("_backend", "_memo", "_history", "_keep", "_size")

    def __init__(self, backend: NGramBackend, history: tuple) -> None:
        self._backend = backend
        self._memo = backend._memo
        self._history = history
        self._keep = backend.model.n - 1
        self._size = backend.vocab.size

    def push(self, token_id: int) -> None:
        if not 0 <= token_id < self._size:
            _check_id(token_id, self._size)
        if self._keep:
            self._history = (self._history + (token_id,))[-self._keep:]

    def distribution(self) -> TokenDistribution:
        dist = self._memo.get(self._history)
        if dist is None:
            dist = self._backend._memoized(self._history)
        return dist
