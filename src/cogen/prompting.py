"""Prompt assembly and parsing; no decoding happens here.

Templates ship as data files (one per layout) and render byte-stably:
rendering the same record twice yields identical bytes, and no-context
renders provably contain no context fields. A fill prompt is its kind's
with-context request layout with the reference in ``{reference_section}``.
The skeleton parser accepts both real newlines and the literal
two-character "\\n" separator that the sketch exemplars themselves use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .corpus import DATASET_KINDS
from .errors import (
    InvalidConfigError,
    InvalidInputError,
    RatingParseError,
    SketchParseError,
    TemplateError,
)

_PLACEHOLDER = re.compile(
    r"\{(profile|history|task|examples|question|answer|profile_info|writing_history|reference_section)\}"
)


class TemplateLibrary:
    """Loads template files by id, from the packaged set or an override dir."""

    def __init__(self, template_dir: str | Path | None = None) -> None:
        self._dir = Path(template_dir) if template_dir else None
        # Each template's text and its _PLACEHOLDER.split parts: literals
        # at even indices, placeholder names at odd ones.
        self._cache: dict[str, tuple[str, list[str]]] = {}

    def _load(self, template_id: str) -> tuple[str, list[str]]:
        entry = self._cache.get(template_id)
        if entry is None:
            name = f"{template_id}.txt"
            if self._dir is not None:
                path = self._dir / name
                if not path.is_file():
                    raise TemplateError(f"template {template_id!r} not found in {self._dir}")
                raw = path.read_text(encoding="utf-8")
            else:
                ref = resources.files("cogen.templates").joinpath(name)
                if not ref.is_file():
                    raise TemplateError(f"unknown template id {template_id!r}")
                raw = ref.read_text(encoding="utf-8")
            text = raw[:-1] if raw.endswith("\n") else raw
            entry = self._cache[template_id] = (text, _PLACEHOLDER.split(text))
        return entry

    def text(self, template_id: str) -> str:
        return self._load(template_id)[0]

    def render(self, template_id: str, values: dict) -> str:
        parts = self._load(template_id)[1]
        out = parts.copy()
        try:
            out[1::2] = [values[key] for key in parts[1::2]]
        except KeyError as exc:
            raise TemplateError(
                f"template {template_id!r} needs placeholder {{{exc.args[0]}}} but no value was given"
            ) from None
        return "".join(out)


DEFAULT_LIBRARY = TemplateLibrary()


@dataclass(frozen=True)
class RenderedPrompt:
    system: str
    user: str


def _require_kind(dataset_kind: str) -> None:
    if dataset_kind not in DATASET_KINDS:
        raise InvalidConfigError(f"unknown dataset kind {dataset_kind!r}")


def join_history(history) -> str:
    return "\n\n".join(history)


def build_request_prompt(
    record,
    with_context: bool,
    dataset_kind: str,
    library: TemplateLibrary = DEFAULT_LIBRARY,
) -> RenderedPrompt:
    """The standard request prompt for a record.

    Context-free renders use the record's general task variant and carry
    no profile or history bytes at all.
    """
    _require_kind(dataset_kind)
    if with_context:
        system_id = (
            "request_system_with_context_context_aware"
            if dataset_kind == "context_aware"
            else "request_system_with_context_lamp"
        )
        user = _with_context_user(record, dataset_kind, library, "")
    else:
        system_id = "request_system_no_context"
        user = library.render(f"request_user_no_context_{dataset_kind}", {"task": record.llm_task})
    return RenderedPrompt(system=library.text(system_id), user=user)


def _with_context_user(record, dataset_kind: str, library: TemplateLibrary, reference_section: str) -> str:
    """``request_user_with_context_<kind>`` rendered for ``record``, with
    ``reference_section`` in its placeholder: "" for a request."""
    history = join_history(record.history)
    values = {"profile": record.profile, "history": history, "examples": history, "task": record.task}
    values["reference_section"] = reference_section
    return library.render(f"request_user_with_context_{dataset_kind}", values)


def build_sketch_prompt(
    task: str,
    dataset_kind: str,
    library: TemplateLibrary = DEFAULT_LIBRARY,
) -> str:
    """Skeleton-extraction prompt, exemplars included."""
    _require_kind(dataset_kind)
    if not task:
        raise InvalidInputError("sketch prompt needs a non-empty task")
    return library.render(f"sketch_{dataset_kind}", {"question": task})


@dataclass(frozen=True)
class SketchArtifact:
    points: tuple[str, ...]
    raw_text: str

    def __post_init__(self) -> None:
        if not self.points:
            raise InvalidInputError("a sketch needs at least one point")


_MARKER = re.compile(r"(?:(?<=\n)|^)\s*(\d{1,3})\.\s*")


def parse_sketch(raw_text: str) -> SketchArtifact:
    """Split numbered skeleton output into ordered points.

    Handles both real newlines and the literal "\\n" separators the
    exemplars use; point numbers must sit at the start of a line.
    """
    normalized = raw_text.replace("\\n", "\n")
    matches = list(_MARKER.finditer(normalized))
    if not matches:
        raise SketchParseError("no numbered skeleton points found", raw_text=raw_text)
    points = []
    for i, m in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(normalized)
        point = normalized[m.end() : end].strip()
        if point:
            points.append(point)
    if not points:
        raise SketchParseError("numbered markers carried no content", raw_text=raw_text)
    return SketchArtifact(points=tuple(points), raw_text=raw_text)


def format_sketch(artifact: SketchArtifact) -> str:
    """Canonical one-point-per-line rendering; parse_sketch inverts it."""
    return "\n".join(f"{i}. {point}" for i, point in enumerate(artifact.points, start=1))


def build_fill_prompt(
    record,
    conditioning,
    dataset_kind: str = "context_aware",
    library: TemplateLibrary = DEFAULT_LIBRARY,
) -> str:
    """The kind's with-context request layout with a reference section, a
    parsed sketch's "## Reference Sketch" or a full draft's "## Reference
    Content", in its ``{reference_section}``, which the template must keep."""
    _require_kind(dataset_kind)
    if isinstance(conditioning, SketchArtifact):
        header, body = "## Reference Sketch", format_sketch(conditioning)
    else:
        header, body = "## Reference Content", str(conditioning)
    if not body:
        raise InvalidInputError("fill prompt conditioning is empty")
    if not record.context_bundle():
        raise InvalidInputError("fill prompts require a record with context")
    template_id = f"request_user_with_context_{dataset_kind}"
    if "{reference_section}" not in library.text(template_id):
        raise TemplateError(f"template {template_id!r} has no {{reference_section}} for the fill's reference")
    return _with_context_user(record, dataset_kind, library, f"{header}\n{body}\n\n")


_RATING = re.compile(r"Rating:\s*\[\[(\d+)\]\]")


def build_judge_prompt(
    kind: str,
    record,
    answer: str,
    library: TemplateLibrary = DEFAULT_LIBRARY,
) -> str:
    """Evaluator prompt in one of three flavors: overall quality with the
    profile attached, overall quality without it, or personalization."""
    if not answer:
        raise InvalidInputError("judge prompts need a non-empty answer")
    ids = {
        "overall_with_profile": "judge_overall_with_profile",
        "overall_no_profile": "judge_overall_no_profile",
        "personalization": "judge_personalization",
    }
    if kind not in ids:
        raise InvalidConfigError(f"unknown judge prompt kind {kind!r}")
    values = {"question": record.task, "answer": answer}
    if kind != "overall_no_profile":
        values["profile_info"] = record.profile
        values["writing_history"] = join_history(record.history)
    return library.render(ids[kind], values)


def parse_rating(text: str) -> int:
    """Extract the 1-10 integer from a judge reply's "Rating: [[N]]"."""
    match = _RATING.search(text)
    if not match:
        raise RatingParseError("no 'Rating: [[N]]' marker found")
    rating = int(match.group(1))
    if not 1 <= rating <= 10:
        raise RatingParseError(f"rating {rating} outside 1-10")
    return rating
