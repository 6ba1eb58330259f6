"""The collaborative generation loop, its baseline modes, and the
teacher-forced walk that scores and harvests under the same rule.

Every mode samples through one per-token loop, ``_sample``, over one
step, ``_step``. The loop owns the RNG, the pick, the EOS stop and the
trace row; the step returns each position's distribution, blend weight
and the two source distributions a trace row reads its top-1
probabilities from. A trace is a sink the caller passes in, as it passes
an audit log; an untraced session builds no trace row and reads no
top-1 probability or token string for one.

A step talks to its backends only through two cursors (see
``backends``), small and large, either of which may be absent, and
pushes the token emitted before it; no step rebuilds a request from the
whole prefix, except the payload an audit log records for each
large-side read. ``_open_sides`` opens a record's two sides, each with
its ``_side_prompt``: the small one with the personal task and the
context, the large one with the context-free task and none, only when
its window (the opening first_k steps, or all) is not empty and the two
sides share a vocabulary. Opening is where the privacy gate refuses
context bound for a large_cloud backend. ``decode`` and
``teacher_forced_steps`` (fused scoring, the weight net's harvest) both
open through it and read the large side at the same steps, counted from
1, after the small side.

With both cursors, ``fusion.blend_step`` cuts the two sides' replies to
their top-k views, weighs and blends them by the active fusion strategy
in Python floats, and memoizes that on the large side's distribution, so
a pair of distributions that recurs reuses its blend and cuts no view
again. The loop samples the resulting ``FusedDistribution`` over that
union of at most ``2 * TOP_K`` ids, never over a vocabulary-long vector.
With one cursor, the step picks from that side alone at weight 1.0
(small) or 0.0 (large), spreading a sparse distribution, such as a
remote reply, densely (``_dense``). slm-only never opens a large cursor.
The llm-only baselines (either side's prompt) and both halves of
sketch-then-fill (the large model's draft, the small model's fill) step
one cursor through ``decode_single``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple, get_type_hints

from .backends import ContextBundle, Role, check_context_blind, check_shared_vocab, open_cursor
from .core import SamplingConfig, TokenDistribution
from .corpus import check_fields, json_object_lines
from .errors import (
    CorpusError,
    InvalidConfigError,
    InvalidDistributionError,
    InvalidInputError,
    SessionError,
    SketchParseError,
    TransportError,
)
from .fusion import FusionStrategy, blend_step
from .prompting import (
    DEFAULT_LIBRARY,
    TemplateLibrary,
    build_fill_prompt,
    build_request_prompt,
    build_sketch_prompt,
    parse_sketch,
)
from .rng import Splitmix64
from .tokenizer import Tokenizer


@dataclass(frozen=True)
class DecodeMode:
    kind: str
    strategy: FusionStrategy | None = None
    first_k: int | None = None  # logit_fusion fuses only the opening first_k steps; None: all
    sketch_conditioning: str = "sketch"

    KINDS = (
        "slm_only",
        "llm_only_with_context",
        "llm_only_no_context",
        "logit_fusion",
        "sketch_then_fill",
    )

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise InvalidConfigError(f"unknown decode mode {self.kind!r}")
        if self.kind == "logit_fusion" and self.strategy is None:
            raise InvalidConfigError("logit_fusion requires a fusion strategy")
        if self.first_k is not None and self.first_k < 0:
            raise InvalidConfigError("first_k count must be >= 0")
        if self.sketch_conditioning not in ("sketch", "full_content"):
            raise InvalidConfigError("sketch conditioning must be 'sketch' or 'full_content'")

    @classmethod
    def slm_only(cls):
        return cls(kind="slm_only")

    @classmethod
    def llm_with_context(cls):
        return cls(kind="llm_only_with_context")

    @classmethod
    def llm_no_context(cls):
        return cls(kind="llm_only_no_context")

    @classmethod
    def fusion(cls, strategy: FusionStrategy):
        return cls(kind="logit_fusion", strategy=strategy)

    @classmethod
    def first_k_mode(cls, n: int, strategy: FusionStrategy):
        return cls(kind="logit_fusion", strategy=strategy, first_k=n)

    @classmethod
    def sketch(cls, conditioning: str = "sketch"):
        return cls(kind="sketch_then_fill", sketch_conditioning=conditioning)

    def label(self) -> str:
        if self.kind == "logit_fusion":
            head = "logit_fusion" if self.first_k is None else f"first_k({self.first_k})"
            return f"{head}[{self.strategy.label()}]"
        if self.kind == "sketch_then_fill":
            return f"sketch_then_fill[{self.sketch_conditioning}]"
        return self.kind


class TraceStep(NamedTuple):
    """One emitted token's trace row; a tuple, so it cannot change."""

    step: int
    token_id: int
    token: str
    w: float
    p_s_top1: float
    p_l_top1: float


@dataclass
class WeightTrace:
    mode: str
    seed: int
    steps: list[TraceStep] = field(default_factory=list)
    events: list[str] = field(default_factory=list)


class DecodeResult(NamedTuple):
    """A finished session's tokens and, for sketch-then-fill, its sketch
    (or draft text)."""

    token_ids: tuple[int, ...]
    sketch: object | None = None

    def text(self, tokenizer) -> str:
        return tokenizer.detokenize(self.token_ids)


@dataclass(frozen=True)
class GenerationSession:
    """Everything one generation run needs; ``decode`` opens its sides
    through ``_open_sides``, or an llm-only mode's by ``_side_prompt``."""

    slm: object
    llm: object | None
    mode: DecodeMode
    sampling: SamplingConfig
    record: object

    def __post_init__(self) -> None:
        if self.mode.kind != "slm_only" and self.llm is None:
            raise InvalidConfigError(f"mode {self.mode.kind} needs a large backend")
        if self.mode.kind == "logit_fusion":
            check_shared_vocab(self.slm, self.llm)


def session_for_record(record, mode, sampling, slm, llm=None) -> GenerationSession:
    """A session for one corpus record."""
    return GenerationSession(slm=slm, llm=llm, mode=mode, sampling=sampling, record=record)


def _side_prompt(record, small: bool) -> tuple[str, ContextBundle | None]:
    """What a side is sent of a record: the small side the personal task
    and the context, the large side the context-free task and none."""
    return (record.task, record.context_bundle()) if small else (record.llm_task, None)


def _open_sides(slm, llm, record, fused_limit: int | None):
    """A record's small cursor and, unless the window of its opening
    ``fused_limit`` steps (all when None; InvalidConfigError below 0) is
    empty, its large one, after ``check_shared_vocab``; each side opened
    with its ``_side_prompt``, unpacked, as a starred call is slower."""
    if fused_limit is not None and fused_limit < 0:
        raise InvalidConfigError("first_k count must be >= 0")
    instruction, context = _side_prompt(record, True)
    small = open_cursor(slm, instruction, context)
    if fused_limit == 0:
        return small, None
    check_shared_vocab(slm, llm)
    instruction, context = _side_prompt(record, False)
    return small, open_cursor(llm, instruction, context)


def _dense(dist: TokenDistribution) -> TokenDistribution:
    """A dense distribution as it is; a sparse one spread over the
    vocabulary and normalized."""
    if dist.dense_probs is not None:
        return dist
    mass = dist.mass
    if not mass > 0:
        raise InvalidDistributionError("distribution has no mass to sample from")
    # Sparse entries are finite and non-negative from where they enter the
    # program, so dividing by a positive mass needs no second validation.
    return TokenDistribution(vocab_size=dist.vocab_size, dense_probs=dist.to_dense_array() / mass)


def _sample(step, sampling: SamplingConfig, vocab, trace, initial_prefix=()) -> list[int]:
    """The per-token loop of every decode mode; returns the new tokens.

    ``step(tokens, i)`` gives step ``i`` (from 1) the distribution it
    picks from (a dense ``TokenDistribution`` or a fused step's
    ``FusedDistribution``), its blend weight, and the step's two source
    distributions, small and large, whose top-1 probabilities a trace row
    holds, either of which may be None for a side the step did not read
    (the row's 0.0).
    ``tokens`` is the loop's own list of the initial prefix and the tokens
    emitted so far, which the step must not change; from step 2 on its
    last entry is the token emitted by the step before. This loop draws
    from the session's splitmix64 stream and stops at EOS. Only with a
    ``trace`` does it read the two top-1 probabilities and the token's
    string, and append one row per emitted token.

    A transport failure in a step leaves this loop with the step's number
    in its ``failed_step``, which ``decode`` names in its session error.
    """
    rng = Splitmix64(sampling.seed)
    eos_id = vocab.eos_id
    tokens = list(initial_prefix)
    try:
        for i in range(1, sampling.max_new_tokens + 1):
            dist, w, p_s, p_l = step(tokens, i)
            token_id = dist.pick(sampling, rng)
            if token_id == eos_id:
                break
            tokens.append(token_id)
            if trace is not None:
                ps1 = 0.0 if p_s is None else p_s.top1()[1]
                pl1 = 0.0 if p_l is None else p_l.top1()[1]
                trace.steps.append(TraceStep(i, token_id, vocab.token(token_id), w, ps1, pl1))
    except TransportError as exc:
        exc.failed_step = i
        raise
    return tokens[len(initial_prefix):]


def decode_single(
    backend,
    prompt_parts: tuple[str, ContextBundle | None],
    sampling: SamplingConfig,
    audit_log=None,
    context_upload_waiver: bool = False,
    trace: WeightTrace | None = None,
    initial_prefix: tuple[int, ...] = (),
) -> list[int]:
    """Ancestral sampling against one backend; returns the new tokens.

    Remote backends delegate the loop to the service's generate call,
    which runs this same function server-side, so local and remote
    placements emit identical sequences for identical seeds. With a
    ``trace``, each token's row carries weight 1.0 from a small_device
    backend and 0.0 from a large_cloud one, and the backend's top-1
    probability on its own side. A remote trace's top-1 probabilities
    read 0.0, since the generate reply carries none, and one trace event
    says so. Untraced, no step reads a top-1 probability.
    ``audit_log`` records what a large_cloud backend is sent: each step in
    process, the one generate request when remote.
    """
    instruction, context = prompt_parts
    small = backend.role == Role.SMALL_DEVICE
    w = 1.0 if small else 0.0
    audited = audit_log is not None and not small and not context_upload_waiver
    if hasattr(backend, "generate_remote"):
        check_context_blind(backend.role, context)
        if audited:
            audit_log.record_input(instruction, initial_prefix)
        token_ids = list(backend.generate_remote(instruction, initial_prefix, sampling))
        if trace is not None:
            trace.events.append(
                "remote generate: the service reports no probabilities; "
                "p_s_top1 and p_l_top1 read 0.0"
            )
            for i, tid in enumerate(token_ids, start=1):
                trace.steps.append(TraceStep(i, tid, backend.vocab.token(tid), w, 0.0, 0.0))
        return token_ids
    cursor = open_cursor(backend, instruction, context, waiver=context_upload_waiver)
    for token_id in initial_prefix:
        cursor.push(token_id)
    audit = partial(audit_log.record_input, instruction) if audited else None
    sides = (cursor, None) if small else (None, cursor)
    step = _step(*sides, None, None, audit, False, trace)
    return _sample(step, sampling, backend.vocab, trace, initial_prefix)


def _step(small, large, fused_limit, strategy, audit, degrade, trace):
    """The step of every in-process mode over a small and a large cursor,
    either of which may be None. The large side is read, and each read
    recorded by ``audit(prefix)`` when given, at the opening
    ``fused_limit`` steps (every step when None). With ``degrade`` and a
    small side, a transport failure of the large backend ends its reads,
    the session continues on the small model and a ``trace`` records it."""

    def step(tokens, i):
        nonlocal large
        p_s = None
        if small is not None:
            if i > 1:
                small.push(tokens[-1])
            p_s = small.distribution()
        if large is not None and (fused_limit is None or i <= fused_limit):
            if i > 1:
                large.push(tokens[-1])
            if audit is not None:
                audit(tokens)
            try:
                p_l = large.distribution()
            except TransportError:
                if not degrade or small is None:
                    raise
                if trace is not None:
                    trace.events.append(f"step {i}: large backend down, degraded to slm_only")
                large = None
            else:
                if p_s is None:
                    return _dense(p_l), 0.0, None, p_l
                fused, w = blend_step(p_s, p_l, strategy)
                return fused, w, p_s, p_l
        return _dense(p_s), 1.0, p_s, None

    return step


def run_sketch_then_fill(
    llm_backend,
    slm_backend,
    record,
    sampling: SamplingConfig,
    conditioning: str = "sketch",
    library: TemplateLibrary = DEFAULT_LIBRARY,
    audit_log=None,
    trace: WeightTrace | None = None,
):
    """Two-step collaboration: the context-blind large model drafts a
    skeleton (or full draft) from the general instruction only, then the
    context-holding small model writes the response conditioned on
    instruction, context, and that reference. A sketch that does not
    parse is drafted once more with the next seed.

    Returns (response token ids, SketchArtifact or draft text).
    """
    tokenizer = Tokenizer(llm_backend.vocab)
    kind = record.dataset_kind

    def draft(prompt: str, draft_sampling: SamplingConfig) -> str:
        try:
            ids = decode_single(llm_backend, (prompt, None), draft_sampling, audit_log=audit_log)
        except TransportError as exc:
            exc.failed_step = 1  # the fill's first step waits on the draft
            raise
        return tokenizer.detokenize(ids)

    if conditioning == "sketch":
        prompt = build_sketch_prompt(record.llm_task, kind, library)
        try:
            reference = parse_sketch(draft(prompt, sampling))
        except SketchParseError:
            retry = replace(sampling, seed=(sampling.seed + 1) % 2**64)
            reference = parse_sketch(draft(prompt, retry))
    else:
        reference = draft(build_request_prompt(record, False, kind, library).user, sampling)
        if not reference:
            raise InvalidInputError("large model produced an empty draft")

    fill_prompt = build_fill_prompt(record, reference, kind, library)
    tokens = decode_single(
        slm_backend, (fill_prompt, record.context_bundle()), sampling, trace=trace
    )
    return tokens, reference


def decode(
    session: GenerationSession,
    on_transport_error: str = "abort",
    audit_log=None,
    template_library: TemplateLibrary | None = None,
    trace: WeightTrace | None = None,
) -> DecodeResult:
    """Run the session's mode to completion.

    ``on_transport_error`` selects the policy when a remote backend
    fails mid-stream. In every mode ``abort`` raises a session error
    naming the step that failed, with the transport error as its cause.
    ``degrade`` applies to fused modes only: it finishes on the small
    model alone, and a trace records the event. The llm-only modes have
    no small model, and sketch-then-fill's fill needs the large model's
    draft, so both abort under either policy.
    ``audit_log``, when given, captures every payload bound for the
    large backend for the privacy audit. ``trace``, when given, receives
    one row per emitted token (sketch-then-fill: per fill token) and the
    session's events; after an abort it holds the rows emitted before the
    failure. Untraced, no step builds a row or reads what one would hold.
    """
    if on_transport_error not in ("abort", "degrade"):
        raise InvalidConfigError("on_transport_error must be 'abort' or 'degrade'")
    mode, sampling, record = session.mode, session.sampling, session.record
    sketch = None
    try:
        if mode.kind == "sketch_then_fill":
            tokens, sketch = run_sketch_then_fill(
                session.llm,
                session.slm,
                record,
                sampling,
                conditioning=mode.sketch_conditioning,
                library=template_library or DEFAULT_LIBRARY,
                audit_log=audit_log,
                trace=trace,
            )
        elif mode.kind in ("llm_only_with_context", "llm_only_no_context"):
            with_ctx = mode.kind == "llm_only_with_context"
            tokens = decode_single(
                session.llm,
                _side_prompt(record, small=with_ctx),
                sampling,
                audit_log=audit_log,
                context_upload_waiver=with_ctx,
                trace=trace,
            )
        else:
            fused_limit = 0 if mode.kind == "slm_only" else mode.first_k
            small, large = _open_sides(session.slm, session.llm, record, fused_limit)
            audit = None if audit_log is None else partial(audit_log.record_input, record.llm_task)
            degrade = on_transport_error == "degrade"
            step = _step(small, large, fused_limit, mode.strategy, audit, degrade, trace)
            tokens = _sample(step, sampling, session.slm.vocab, trace)
    except TransportError as exc:
        raise SessionError(f"large backend failed at step {exc.failed_step}: {exc}") from exc
    return DecodeResult(tuple(tokens), sketch)


def teacher_forced_steps(slm, llm, record, tokenizer, fused_limit: int | None = None):
    """Walk the record's reference plus the closing EOS, teacher-forced,
    over the cursors a decode opens (``_open_sides``). Yields ``(target,
    p_s, p_l)`` at each position ``i`` from 1; the large side is read
    after the small one while ``i <= fused_limit``, as ``_step`` reads it,
    and ``p_l`` is None past that window."""
    ids = tokenizer.tokenize(record.reference) + [tokenizer.vocab.eos_id]
    small, large = _open_sides(slm, llm, record, fused_limit)
    for i, target in enumerate(ids, start=1):
        p_s = small.distribution()
        p_l = None
        if fused_limit is None or i <= fused_limit:
            p_l = large.distribution()
            large.push(target)
        small.push(target)
        yield target, p_s, p_l


def fused_teacher_forced_ppl(
    slm,
    llm,
    record,
    tokenizer,
    strategy: FusionStrategy | None,
    first_k: int | None = None,
) -> float:
    """Perplexity of ``teacher_forced_steps``' targets under the fused
    distribution: the small model's alone when ``strategy`` is None, and
    past the opening ``first_k`` positions, as a first-k decode fuses; a
    negative ``first_k`` raises ``InvalidConfigError``, as ``DecodeMode``
    does. A target outside the fused support scores infinite perplexity."""
    fused_limit = 0 if strategy is None else first_k
    nll = 0.0
    steps = teacher_forced_steps(slm, llm, record, tokenizer, fused_limit)
    for positions, (target, p_s, p_l) in enumerate(steps, start=1):
        if p_l is None:
            p = p_s.prob_of(target)
        else:
            fused, _ = blend_step(p_s, p_l, strategy)
            p = fused.prob_of(target)
        if p <= 0.0:
            return math.inf
        nll -= math.log(p)
    return math.exp(nll / positions)


def write_trace(trace: WeightTrace, path) -> None:
    """Line-delimited trace: a metadata line, then one ``TraceStep`` per
    line, keyed by its field names."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"mode": trace.mode, "seed": trace.seed, "events": trace.events}) + "\n")
        for s in trace.steps:
            fh.write(json.dumps(s._asdict(), sort_keys=True) + "\n")


# The fields of a trace's metadata line and of each step line, all required.
_META_FIELDS = {"mode": str, "seed": int, "events": list[str]}
_STEP_FIELDS = get_type_hints(TraceStep)


def read_trace(path) -> WeightTrace:
    """The trace ``write_trace`` wrote; a malformed line raises a
    CorpusError that names it."""
    rows = list(json_object_lines(path))
    if not rows:
        raise InvalidConfigError(f"trace file {path} is empty")
    (line_no, meta), *steps = rows
    check_fields(meta, _META_FIELDS, partial(CorpusError, line=line_no), required=_META_FIELDS.keys())
    trace = WeightTrace(**meta)
    for line_no, row in steps:
        check_fields(row, _STEP_FIELDS, partial(CorpusError, line=line_no), required=_STEP_FIELDS.keys())
        trace.steps.append(TraceStep(**row))
    return trace
