"""Dataset schema, validation, filtering, splitting, and statistics.

Corpora are UTF-8 line-delimited JSON, one record per line, validated
strictly on load (see docs/corpus-schema.md for the field reference and
a golden example line). Length filtering uses the dataset-family bounds:
references shorter than 64 characters (emails) / 128 characters (paper
abstracts) or longer than 1024 characters are rejected, bounds
inclusive, characters counted as Unicode scalar values.

This module also holds the one reader of each outside format:
``parse_object`` and ``check_fields`` for config, params, corpus, trace
and pairs files and wire frames, and ``json_object_lines`` and
``tsv_lines`` for the lines of JSONL and TSV files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from types import GenericAlias

from .backends import ContextBundle
from .errors import CorpusError, InvalidInputError
from .rng import Splitmix64
from .tokenizer import split_text

DATASET_KINDS = ("context_aware", "email", "paper")

MIN_CHARS = {"email": 64, "paper": 128}
MAX_CHARS = 1024

SPLIT_TRAIN_FRACTION = 0.9
VERB_STATS_TOP_N = 10  # entries in each ranked list of task_verb_stats

_FIELDS = {
    "user_id": str,
    "dataset_kind": str,
    "profile": str,
    "history": list[str],
    "task": str,
    "reference": str,
    "general_task": str,
}
_REQUIRED = {"user_id", "dataset_kind", "task", "reference"}


@dataclass(frozen=True)
class CorpusRecord:
    user_id: str
    dataset_kind: str
    task: str
    reference: str
    profile: str = ""
    history: tuple[str, ...] = ()
    general_task: str = ""

    def __post_init__(self) -> None:
        if self.dataset_kind not in DATASET_KINDS:
            raise CorpusError(f"unknown dataset_kind {self.dataset_kind!r}")
        if not self.task:
            raise CorpusError("task must be non-empty")
        if self.dataset_kind == "context_aware" and (not self.profile or not self.history):
            raise CorpusError("context_aware records need a profile and history")
        object.__setattr__(self, "history", tuple(self.history))
        # Built once: every session, scoring call and audit reads this one.
        object.__setattr__(self, "_context", ContextBundle(profile=self.profile, history=self.history))

    def context_bundle(self) -> ContextBundle:
        return self._context

    @property
    def llm_task(self) -> str:
        """The task the context-blind model sees: the general variant, or
        the task itself when the record has none."""
        return self.general_task or self.task


def parse_object(data: bytes, error, what: str) -> dict:
    """The JSON object that the UTF-8 bytes ``data`` hold. Bad UTF-8, bad
    JSON, nesting deeper than the parser allows and a value that is not
    an object each raise ``error(message)``, naming ``what``."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # also an integer too long to parse
        raise error(f"{what} is not valid UTF-8 JSON: {exc}") from exc
    except RecursionError as exc:
        raise error(f"{what} nests JSON deeper than the parser allows") from exc
    if type(obj) is not dict:
        raise error(f"{what} must be a JSON object")
    return obj


def _has_type(value, want) -> bool:
    kind = type(value)
    if kind is want or (want is float and kind is int):
        return True
    if not isinstance(want, GenericAlias) or kind is not want.__origin__:
        return False
    # JSON object keys are always strings, so only a dict's values are checked.
    items = value.values() if kind is dict else value
    return all(_has_type(item, want.__args__[-1]) for item in items)


def check_fields(obj: dict, schema: dict, error, path: str = "", required=frozenset()) -> dict:
    """``obj``, once its keys are among ``schema``'s, include every key of
    ``required``, and each value has exactly its schema type; else
    ``error(message)`` naming the key by its dotted ``path``.

    The type rule is exact: an int also stands for a float, but
    ``true``/``false`` is no number and ``"1"`` no int; ``list[T]`` is a
    list whose every item has type ``T``, and ``dict[str, T]`` an object
    whose every value has type ``T``.
    """
    where = f" in {path}" if path else ""
    for key, value in obj.items():
        want = schema.get(key)
        if type(value) is not want and not _has_type(value, want):
            if want is None:
                raise error(f"unknown keys{where}: {sorted(obj.keys() - schema.keys())}")
            name = str(want) if isinstance(want, GenericAlias) else want.__name__
            raise error(f"{path + '.' if path else ''}{key} must be {name}, not {type(value).__name__}")
    # Every key of obj is known by now, so none is missing when all are there.
    if len(obj) < len(schema):
        missing = required - obj.keys()
        if missing:
            raise error(f"missing keys{where}: {sorted(missing)}")
    return obj


def _lines(path):
    """``(line number, bytes)`` for each non-blank line of the file at
    ``path``. A line ends at ``\\n``, ``\\r\\n`` or ``\\r`` only."""
    for line_no, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        if line.strip():
            yield line_no, line


def json_object_lines(path):
    """``(line number, object)`` for each non-blank line of the JSONL file
    at ``path``; a line that is not one JSON object raises a CorpusError
    naming the file and the line."""
    for line_no, line in _lines(path):
        yield line_no, parse_object(line, partial(CorpusError, line=line_no), str(path))


def tsv_lines(path, columns: int):
    """``(line number, fields)`` for each non-blank line of the UTF-8 TSV
    file at ``path``, split into lines as ``json_object_lines`` splits; a
    line that is not UTF-8 or has other than ``columns`` tab-separated
    fields raises a CorpusError naming the file and the line."""
    for line_no, line in _lines(path):
        try:
            fields = line.decode("utf-8").split("\t")
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path} is not valid UTF-8: {exc}", line=line_no) from exc
        if len(fields) != columns:
            raise CorpusError(
                f"{path}: expected {columns} tab-separated fields, not {len(fields)}", line=line_no
            )
        yield line_no, fields


def load_corpus(path) -> list[CorpusRecord]:
    """Load and validate a corpus file; ordering follows the file."""
    records: list[CorpusRecord] = []
    seen: set[tuple[str, str]] = set()
    for line_no, obj in json_object_lines(path):
        error = partial(CorpusError, line=line_no)
        check_fields(obj, _FIELDS, error, required=_REQUIRED)
        try:
            record = CorpusRecord(**obj)
        except CorpusError as exc:
            raise error(str(exc)) from exc
        key = (record.user_id, record.task)
        if key in seen:
            raise error(f"duplicate (user_id, task) pair {key!r}")
        seen.add(key)
        records.append(record)
    return records


def save_corpus(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(asdict(record), sort_keys=True, ensure_ascii=False) + "\n")


@dataclass(frozen=True)
class RejectedRecord:
    record: CorpusRecord
    reason: str


def filter_lamp(records, kind: str) -> tuple[list[CorpusRecord], list[RejectedRecord]]:
    """Keep records whose reference length sits inside the family bounds."""
    if kind not in MIN_CHARS:
        raise InvalidInputError(f"length filtering applies to email/paper, not {kind!r}")
    lo = MIN_CHARS[kind]
    kept: list[CorpusRecord] = []
    rejected: list[RejectedRecord] = []
    for record in records:
        if record.dataset_kind != kind:
            rejected.append(RejectedRecord(record, f"dataset_kind {record.dataset_kind!r} != {kind!r}"))
            continue
        n = len(record.reference)
        if n < lo:
            rejected.append(RejectedRecord(record, f"reference length {n} below minimum {lo}"))
        elif n > MAX_CHARS:
            rejected.append(RejectedRecord(record, f"reference length {n} above maximum {MAX_CHARS}"))
        else:
            kept.append(record)
    return kept, rejected


def split_train_val(records, seed: int) -> tuple[list[CorpusRecord], list[CorpusRecord]]:
    """Seeded 9:1 shuffle-split; train takes the first floor(0.9 N)."""
    records = list(records)
    if len(records) < 10:
        raise InvalidInputError("need at least 10 records for a 9:1 split")
    order = list(range(len(records)))
    Splitmix64(seed).shuffle(order)
    cut = int(SPLIT_TRAIN_FRACTION * len(records))
    train = [records[i] for i in order[:cut]]
    val = [records[i] for i in order[cut:]]
    return train, val


@dataclass(frozen=True)
class CorpusStats:
    total_users: int
    avg_profile_length: float
    avg_output_length: float


def corpus_stats(records) -> CorpusStats:
    """Users and mean whitespace-token lengths of profiles and references."""
    records = list(records)
    if not records:
        return CorpusStats(total_users=0, avg_profile_length=0.0, avg_output_length=0.0)
    users = {r.user_id for r in records}
    profile_tokens = [len(split_text(r.profile, "whitespace")) for r in records]
    output_tokens = [len(split_text(r.reference, "whitespace")) for r in records]
    return CorpusStats(
        total_users=len(users),
        avg_profile_length=sum(profile_tokens) / len(records),
        avg_output_length=sum(output_tokens) / len(records),
    )


def render_stats(stats: CorpusStats) -> str:
    """Aligned two-column table of the corpus statistics."""
    rows = [
        ("Total Users", str(stats.total_users)),
        ("Avg Profile Length", str(round(stats.avg_profile_length))),
        ("Output Length", str(round(stats.avg_output_length))),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


_DETERMINERS = {
    "a", "an", "the", "your", "my", "his", "her", "their", "our", "its", "this",
    "that", "these", "those", "some", "any", "each", "every", "new",
}
_PHRASE_STOPS = {
    "about", "for", "on", "of", "to", "with", "in", "at", "from", "that", "which",
    "regarding", "and", "or", "as", "into", "by",
}
_VERB_LEMMAS = {
    "writes": "write", "writing": "write", "wrote": "write", "written": "write",
    "drafts": "draft", "drafting": "draft", "drafted": "draft",
    "composes": "compose", "composing": "compose", "composed": "compose",
    "creates": "create", "creating": "create", "created": "create",
    "develops": "develop", "developing": "develop", "developed": "develop",
    "prepares": "prepare", "preparing": "prepare", "prepared": "prepare",
    "crafts": "craft", "crafting": "craft", "crafted": "craft",
    "curates": "curate", "curating": "curate", "curated": "curate",
    "designs": "design", "designing": "design", "designed": "design",
    "scripts": "script", "scripting": "script", "scripted": "script",
}


def _clean_word(word: str) -> str:
    return word.strip(".,:;!?'\"()[]").lower()


@dataclass(frozen=True)
class TaskVerbStats:
    verbs: tuple[tuple[str, float], ...]
    objects: tuple[tuple[str, float], ...]


def task_verb_stats(records) -> TaskVerbStats:
    """Rank task root verbs and direct objects by share of all tasks.

    Heuristic: the first word is the root verb (lemmatized through a
    small table); the direct object is the head of the first noun phrase
    after it — leading determiners skipped, phrase cut at the first
    preposition, head taken as the phrase's last word.
    """
    records = list(records)
    if not records or any(not r.task for r in records):
        raise InvalidInputError("task_verb_stats needs records with non-empty tasks")
    verb_counts: dict[str, int] = {}
    object_counts: dict[str, int] = {}
    for record in records:
        words = [_clean_word(w) for w in record.task.split()]
        words = [w for w in words if w]
        if not words:
            continue
        verb = _VERB_LEMMAS.get(words[0], words[0])
        verb_counts[verb] = verb_counts.get(verb, 0) + 1
        phrase: list[str] = []
        for word in words[1:]:
            if word in _PHRASE_STOPS:
                break
            if word in _DETERMINERS and not phrase:
                continue
            phrase.append(word)
        if phrase:
            head = phrase[-1]
            object_counts[head] = object_counts.get(head, 0) + 1
    total = len(records)

    def ranked(counts: dict[str, int]) -> tuple[tuple[str, float], ...]:
        items = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:VERB_STATS_TOP_N]
        return tuple((name, 100.0 * count / total) for name, count in items)

    return TaskVerbStats(verbs=ranked(verb_counts), objects=ranked(object_counts))


def render_verb_stats(stats: TaskVerbStats) -> str:
    """Two-column layout: ranked verbs beside ranked objects."""
    lines = [f"{'Verb':<12} {'Percent (%)':>11}   {'Object':<12} {'Percent (%)':>11}"]
    for i in range(max(len(stats.verbs), len(stats.objects))):
        verb, vp = stats.verbs[i] if i < len(stats.verbs) else ("", None)
        obj, op = stats.objects[i] if i < len(stats.objects) else ("", None)
        vps = f"{vp:.1f}" if vp is not None else ""
        ops = f"{op:.1f}" if op is not None else ""
        lines.append(f"{verb:<12} {vps:>11}   {obj:<12} {ops:>11}")
    return "\n".join(lines)
