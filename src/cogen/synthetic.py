"""Desk-scale synthetic personalized-writing corpus.

Generates a world of users whose texts mix two ingredients:

* a shared, strongly structured "general" register (openers and stock
  phrasing every user draws from) — the broadly trained third-order
  model predicts these well;
* per-user personal tokens (names, topics) that only appear in one
  user's material — only that user's small context-trained model
  predicts them.

References open with a general segment and close with a personal tail,
so collaboration has something real to trade: the context-blind model
dominates early structural tokens, the context-holding model dominates
the personal ones. Everything is driven by a single seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backends import NGramBackend, Role, train_ngram
from .corpus import CorpusRecord
from .rng import Splitmix64
from .tokenizer import Tokenizer, build_vocab

GENERAL_OPENERS = (
    "hello team here is the weekly plan for our project",
    "hello team here is the monthly recap of our project",
    "quick note before the morning standup starts today",
    "quick note before the evening review wraps up today",
    "sharing a short summary of the latest milestone now",
    "sharing a short update on the current sprint now",
    "thanks everyone for the strong push last week",
    "thanks everyone for the great demo last friday",
)

GENERAL_FILLER = (
    "please read the full agenda before the meeting",
    "please check the open issues before the release",
    "we will review the numbers in detail soon",
    "we will discuss the roadmap in depth soon",
    "the deadline stays the same as announced earlier",
    "the budget stays on track as planned earlier",
)

TAIL_TEMPLATE = "featuring {a} and {b} with {name}"

N_TOPICS = 3
TRAIN_RECORDS_PER_USER = 2
TEST_RECORDS_PER_USER = 1


@dataclass(frozen=True)
class SyntheticUser:
    user_id: str
    name_token: str
    topics: tuple[str, ...]


@dataclass
class SyntheticWorld:
    train_records: list[CorpusRecord]
    test_records: list[CorpusRecord]
    llm_corpus: list[str]
    slm_corpora: dict[str, list[str]]
    vocab: object
    tokenizer: Tokenizer


def _tail(user: SyntheticUser, pattern: int) -> str:
    """Tail from the user's fixed repertoire of topic pairings.

    Users are habitual: pattern i pairs topic i with topic i+1, so a
    short history already covers every topic in both tail slots and new
    sentences stay predictable from old ones.
    """
    k = len(user.topics)
    a = user.topics[pattern % k]
    b = user.topics[(pattern + 1) % k]
    return TAIL_TEMPLATE.format(a=a, b=b, name=user.name_token)


def _sentence(user: SyntheticUser, rng: Splitmix64, pattern: int | None = None) -> str:
    opener = GENERAL_OPENERS[rng.next_below(len(GENERAL_OPENERS))]
    if pattern is None:
        pattern = rng.next_below(len(user.topics))
    return f"{opener} {_tail(user, pattern)}"


def build_world(seed: int, n_users: int = 10, history_len: int = 6) -> SyntheticWorld:
    rng = Splitmix64(seed)
    users = [
        SyntheticUser(
            user_id=f"user{u}",
            name_token=f"name{u}",
            topics=tuple(f"topic{u}{chr(ord('a') + t)}" for t in range(N_TOPICS)),
        )
        for u in range(n_users)
    ]
    train_records: list[CorpusRecord] = []
    test_records: list[CorpusRecord] = []
    # The broad corpus sees every user's material plus extra general text;
    # per-user corpora see only that user's. Histories are joined into one
    # stream per user so sentence-boundary transitions are learnable, and
    # the instruction-to-response transition is trained through
    # "task reference" streams (train records only; test references are
    # held out everywhere).
    llm_corpus: list[str] = list(GENERAL_OPENERS) + list(GENERAL_FILLER)
    slm_corpora: dict[str, list[str]] = {}
    all_texts: list[str] = list(llm_corpus)

    for user in users:
        history = tuple(_sentence(user, rng, pattern=i) for i in range(history_len))
        joined_history = " ".join(history)
        profile = (
            f"profile of {user.name_token} interested in "
            + " and ".join(user.topics)
        )
        llm_corpus.append(joined_history)
        all_texts.extend(history)
        all_texts.append(profile)
        slm_corpus = [profile, joined_history]
        for r in range(TRAIN_RECORDS_PER_USER + TEST_RECORDS_PER_USER):
            reference = _sentence(user, rng)
            record = CorpusRecord(
                user_id=user.user_id,
                dataset_kind="context_aware",
                profile=profile,
                history=history,
                task=f"write team update {r + 1} for {user.name_token}",
                reference=reference,
                general_task="write the next team update",
            )
            all_texts.append(reference)
            all_texts.append(record.task)
            all_texts.append(record.general_task)
            if r < TRAIN_RECORDS_PER_USER:
                train_records.append(record)
                llm_corpus.append(f"{record.general_task} {reference}")
                slm_corpus.append(f"{record.task} {reference}")
            else:
                test_records.append(record)
        slm_corpora[user.user_id] = slm_corpus

    vocab = build_vocab(all_texts)
    return SyntheticWorld(
        train_records=train_records,
        test_records=test_records,
        llm_corpus=llm_corpus,
        slm_corpora=slm_corpora,
        vocab=vocab,
        tokenizer=Tokenizer(vocab),
    )


def large_backend(world: SyntheticWorld) -> NGramBackend:
    """Broadly trained, context-blind: all users' material, higher order."""
    model = train_ngram(world.llm_corpus, n=3, alpha=0.02, vocab=world.vocab)
    return NGramBackend(model, Role.LARGE_CLOUD)


def small_backends(world: SyntheticWorld) -> dict[str, NGramBackend]:
    """Per-user context-trained models: only that user's material."""
    backends: dict[str, NGramBackend] = {}
    for user_id, texts in world.slm_corpora.items():
        model = train_ngram(texts, n=2, alpha=0.05, vocab=world.vocab)
        backends[user_id] = NGramBackend(model, Role.SMALL_DEVICE)
    return backends
