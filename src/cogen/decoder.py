"""The collaborative generation loop and its baseline modes.

Every mode samples through one per-token loop, ``_sample``. It owns the
RNG, the pick, the EOS stop and the trace row; a mode only supplies the
step that returns each position's distribution, blend weight and the
two sources' top-1 probabilities.

A step talks to its backends only through cursors (see ``backends``):
each is opened once per session with its instruction and context, which
is where the privacy gate refuses context bound for a large_cloud
backend, and the step pushes the token emitted before it. No step
rebuilds a request from the whole prefix, except the payload an audit
log records for a large-side step.

A fused step queries the context-holding small backend with
instruction, context, and the emitted prefix, and the context-blind
large backend with instruction and prefix only. ``fusion.blend_step``
cuts both to their top-k views, weighs and blends them by the active
fusion strategy in Python floats, and memoizes that on the large side's
distribution, so a pair of distributions that recurs reuses its blend
and cuts no view again. The loop
samples the resulting ``FusedDistribution`` over that union of at most
``2 * TOP_K`` ids, never over a vocabulary-long vector; only a
single-backend step spreads its distribution densely (``_dense``) for
``core.sample_top_p``. first-k mode restricts collaboration to the
opening tokens: after step k the large backend is never queried or
pushed to again and the loop continues on the small model alone.
slm-only is the same step with fusion limited to 0 steps.

The llm-only baselines and both halves of sketch-then-fill (the large
model's draft, the small model's fill) step one backend through
``decode_single``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple, get_type_hints

from .backends import ContextBundle, Role, check_context_blind, open_cursor
from .combmodel import teacher_forced_steps
from .core import SamplingConfig, TokenDistribution
from .corpus import check_fields, json_object_lines
from .errors import (
    CorpusError,
    IncompatibleVocabError,
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


@dataclass(frozen=True)
class DecodeResult:
    token_ids: tuple[int, ...]
    trace: WeightTrace
    sketch: object | None = None

    def text(self, tokenizer) -> str:
        return tokenizer.detokenize(self.token_ids)


@dataclass(frozen=True)
class GenerationSession:
    """Everything one generation run needs, with the privacy split baked in.

    The small backend gets the record's full (possibly personal) task
    and its context; the large backend only ever sees ``record.llm_task``,
    the context-free task variant.
    """

    slm: object
    llm: object | None
    mode: DecodeMode
    sampling: SamplingConfig
    record: object

    def __post_init__(self) -> None:
        if self.mode.kind != "slm_only" and self.llm is None:
            raise InvalidConfigError(f"mode {self.mode.kind} needs a large backend")
        if self.mode.kind == "logit_fusion":
            if self.slm.vocab.digest() != self.llm.vocab.digest():
                raise IncompatibleVocabError(
                    "fused modes require both backends to share one vocabulary"
                )


def session_for_record(record, mode, sampling, slm, llm=None) -> GenerationSession:
    """Session from a corpus record: the small model gets the personal
    task plus private context, the large model the context-free variant."""
    return GenerationSession(slm=slm, llm=llm, mode=mode, sampling=sampling, record=record)


def _dense(dist: TokenDistribution) -> TokenDistribution:
    if dist.is_dense:
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
    ``FusedDistribution``), its blend weight, and the small and large
    top-1 probabilities. ``tokens`` is the loop's own list of the initial
    prefix and the tokens emitted so far, which the step must not change;
    from step 2 on its last entry is the token emitted by the step before.
    This loop draws from the session's splitmix64 stream, stops at EOS,
    and appends one trace row per emitted token when ``trace`` is given.
    """
    rng = Splitmix64(sampling.seed)
    tokens = list(initial_prefix)
    for i in range(1, sampling.max_new_tokens + 1):
        dist, w, ps1, pl1 = step(tokens, i)
        token_id = dist.pick(sampling, rng)
        if token_id == vocab.eos_id:
            break
        tokens.append(token_id)
        if trace is not None:
            trace.steps.append(TraceStep(i, token_id, vocab.token(token_id), w, ps1, pl1))
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
    placements emit identical sequences for identical seeds. A traced
    token carries weight 1.0 from a small_device backend and 0.0 from a
    large_cloud one. A remote trace's top-1 probabilities read 0.0, since
    the generate reply carries none, and one trace event says so.
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

    def step(tokens, i):
        if i > 1:
            cursor.push(tokens[-1])
        if audited:
            audit_log.record_input(instruction, tokens)
        dist = _dense(cursor.distribution())
        top1 = 0.0 if trace is None else dist.top1()[1]
        return (dist, w, top1, 0.0) if small else (dist, w, 0.0, top1)

    return _sample(step, sampling, backend.vocab, trace, initial_prefix)


def _fusion_step(session: GenerationSession, degrade: bool, audit_log, trace: WeightTrace):
    """The step of logit fusion, fused only for the opening first_k steps
    when set (every step when None); slm_only is the same step fused for 0
    steps, so it never touches session.llm. With ``degrade``, a transport
    failure of the large backend ends fusion and the session continues
    on the small model."""
    mode, record, llm = session.mode, session.record, session.llm
    fused_limit = 0 if mode.kind == "slm_only" else mode.first_k
    small = open_cursor(session.slm, record.task, record.context_bundle())
    large = None if fused_limit == 0 else open_cursor(llm, record.llm_task)

    def step(tokens, i):
        nonlocal fused_limit
        if i > 1:
            small.push(tokens[-1])
        p_s = small.distribution()
        if fused_limit is None or i <= fused_limit:
            if i > 1:
                large.push(tokens[-1])
            if audit_log is not None:
                audit_log.record_input(record.llm_task, tokens)
            try:
                p_l = large.distribution()
            except TransportError:
                if not degrade:
                    raise
                trace.events.append(f"step {i}: large backend down, degraded to slm_only")
                fused_limit = 0
            else:
                fused, w, ps_k, pl_k = blend_step(p_s, p_l, mode.strategy)
                return fused, w, ps_k.top1()[1], pl_k.top1()[1]
        return _dense(p_s), 1.0, p_s.top1()[1], 0.0

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
        ids = decode_single(llm_backend, (prompt, None), draft_sampling, audit_log=audit_log)
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

    fill_prompt = build_fill_prompt(record, reference, kind)
    tokens = decode_single(
        slm_backend, (fill_prompt, record.context_bundle()), sampling, trace=trace
    )
    return tokens, reference


def decode(
    session: GenerationSession,
    on_transport_error: str = "abort",
    audit_log=None,
    template_library: TemplateLibrary | None = None,
) -> DecodeResult:
    """Run the session's mode to completion.

    ``on_transport_error`` selects the policy when a remote backend
    fails mid-stream. In every mode ``abort`` raises a session error
    carrying the partial trace and the transport error as its cause.
    ``degrade`` applies to fused modes only: it records the event and
    finishes on the small model alone. The llm-only modes have no small
    model, and sketch-then-fill's fill needs the large model's draft, so
    both abort under either policy.
    ``audit_log``, when given, captures every payload bound for the
    large backend for the privacy audit.
    """
    if on_transport_error not in ("abort", "degrade"):
        raise InvalidConfigError("on_transport_error must be 'abort' or 'degrade'")
    mode, sampling, record = session.mode, session.sampling, session.record
    trace = WeightTrace(mode=mode.label(), seed=sampling.seed)
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
                (record.task, record.context_bundle()) if with_ctx else (record.llm_task, None),
                sampling,
                audit_log=audit_log,
                context_upload_waiver=with_ctx,
                trace=trace,
            )
        else:
            step = _fusion_step(session, on_transport_error == "degrade", audit_log, trace)
            tokens = _sample(step, sampling, session.slm.vocab, trace)
    except TransportError as exc:
        raise SessionError(
            f"large backend failed at step {len(trace.steps) + 1}: {exc}",
            partial_trace=trace,
        ) from exc
    return DecodeResult(token_ids=tuple(tokens), trace=trace, sketch=sketch)


def fused_teacher_forced_ppl(
    slm,
    llm,
    record,
    tokenizer,
    strategy: FusionStrategy | None,
    first_k: int | None = None,
) -> float:
    """Perplexity of the record's reference plus the closing EOS under the
    fused next-token distribution, teacher-forced.

    ``strategy`` None scores the small model alone; ``first_k`` limits
    fusion to the opening steps with the remainder scored on the small
    model, mirroring the generation-time first-k split. A target outside
    the fused support yields infinite perplexity.
    """
    fused_limit = 0 if strategy is None else first_k
    nll = 0.0
    steps = teacher_forced_steps(slm, llm, record, tokenizer, fused_limit)
    for positions, (target, p_s, p_l) in enumerate(steps, start=1):
        if p_l is None:
            p = p_s.prob_of(target)
        else:
            fused, _, _, _ = blend_step(p_s, p_l, strategy)
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
