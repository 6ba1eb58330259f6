"""The collaborative generation loop and its baseline modes.

Each step queries the context-holding small backend with instruction,
context, and the emitted prefix, and (in fused modes) the context-blind
large backend with instruction and prefix only. Both views are truncated
to their top-k entries, aligned, blended by the active fusion strategy,
and one token is sampled from the result. The per-step blend weight,
chosen token, and both sources' top-1 probabilities go into a trace for
later visualization.

first-k mode restricts collaboration to the opening tokens: after step k
the large backend is never queried again and the loop continues on the
small model alone. slm-only is the same loop with fusion limited to 0
steps, so one step rule serves all three modes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

from .backends import ConditioningInput, ContextBundle, Role, check_context_blind
from .combmodel import TOP_K, comb_forward, padded_top_probs, teacher_forced_steps
from .core import SamplingConfig, TokenDistribution, _readonly, argmax_token, sample_top_p
from .errors import (
    IncompatibleVocabError,
    InvalidConfigError,
    InvalidDistributionError,
    SessionError,
    TransportError,
)
from .fusion import FusionStrategy, fuse, top_k_pair
from .rng import Splitmix64


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


@dataclass(frozen=True)
class TraceStep:
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

    ``slm_instruction`` is the full (possibly personal) task; the large
    backend only ever sees ``llm_instruction``, populated from the
    record's context-free task variant.
    """

    slm: object
    llm: object | None
    mode: DecodeMode
    sampling: SamplingConfig
    slm_instruction: str
    llm_instruction: str
    context: ContextBundle | None = None
    record: object | None = None

    def __post_init__(self) -> None:
        if self.mode.kind != "slm_only" and self.llm is None:
            raise InvalidConfigError(f"mode {self.mode.kind} needs a large backend")
        if self.mode.kind == "logit_fusion":
            if self.slm.vocab.digest() != self.llm.vocab.digest():
                raise IncompatibleVocabError(
                    "fused modes require both backends to share one vocabulary"
                )
        if self.mode.kind == "sketch_then_fill" and self.record is None:
            raise InvalidConfigError("sketch mode needs the corpus record for the fill prompt")


def session_for_record(record, mode, sampling, slm, llm=None) -> GenerationSession:
    """Session from a corpus record: the small model gets the personal
    task plus private context, the large model the context-free variant."""
    return GenerationSession(
        slm=slm,
        llm=llm,
        mode=mode,
        sampling=sampling,
        slm_instruction=record.task,
        llm_instruction=record.llm_task,
        context=record.context_bundle(),
        record=record,
    )


def _pick_token(dist: TokenDistribution, sampling: SamplingConfig, rng: Splitmix64) -> int:
    if sampling.greedy:
        return argmax_token(dist)
    return sample_top_p(dist, sampling, rng)


def _dense(dist: TokenDistribution) -> TokenDistribution:
    if dist.is_dense:
        return dist
    mass = dist.mass
    if not mass > 0:
        raise InvalidDistributionError("distribution has no mass to sample from")
    # Sparse entries are finite and non-negative from where they enter the
    # program, so dividing by a positive mass needs no second validation.
    return TokenDistribution(
        vocab_size=dist.vocab_size, dense_probs=_readonly(dist.to_dense_array() / mass)
    )


def blend_step(
    p_s: TokenDistribution, p_l: TokenDistribution, strategy: FusionStrategy
) -> tuple[TokenDistribution, float, TokenDistribution, TokenDistribution]:
    """One fused step: both sources' top-k views, aligned and blended.

    A learnable strategy gets its weight from the weight network on the
    two padded top-k views. Returns the fused distribution, the weight
    used, and the small and large top-k views.
    """
    ps_k, pl_k, pair = top_k_pair(p_s, p_l, TOP_K)
    w_override = None
    if strategy.kind == "learnable":
        w_override = comb_forward(strategy.model, padded_top_probs(pl_k), padded_top_probs(ps_k))
    fused, w = fuse(pair, strategy, w_override=w_override)
    return fused, w, ps_k, pl_k


def decode_single(
    backend,
    prompt_parts: tuple[str, ContextBundle | None],
    sampling: SamplingConfig,
    audit_log=None,
    context_upload_waiver: bool = False,
    trace: WeightTrace | None = None,
    trace_w: float = 1.0,
    initial_prefix: tuple[int, ...] = (),
) -> list[int]:
    """Ancestral sampling against one backend; returns the new tokens.

    Remote backends delegate the loop to the service's generate call,
    which runs this same function server-side, so local and remote
    placements emit identical sequences for identical seeds. When a trace
    is supplied, each emitted token is recorded with the constant weight
    ``trace_w`` (1.0 for small-model decodes, 0.0 for large).
    """
    instruction, context = prompt_parts
    if hasattr(backend, "generate_remote"):
        check_context_blind(backend.role, context)
        token_ids = list(backend.generate_remote(instruction, initial_prefix, sampling))
        if trace is not None:
            for i, tid in enumerate(token_ids, start=1):
                trace.steps.append(
                    TraceStep(i, tid, backend.vocab.token(tid), trace_w, 0.0, 0.0)
                )
        return token_ids
    rng = Splitmix64(sampling.seed)
    tokens: list[int] = list(initial_prefix)
    emitted: list[int] = []
    for step in range(1, sampling.max_new_tokens + 1):
        request = ConditioningInput(
            instruction,
            tuple(tokens),
            context,
            backend.role,
            context_upload_waiver=context_upload_waiver,
        )
        if audit_log is not None and backend.role == Role.LARGE_CLOUD and not context_upload_waiver:
            audit_log.record_input(request)
        dist = _dense(backend.next_distribution(request))
        token_id = _pick_token(dist, sampling, rng)
        if token_id == backend.vocab.eos_id:
            break
        tokens.append(token_id)
        emitted.append(token_id)
        if trace is not None:
            top1 = dist.top1()[1]
            small = trace_w >= 0.5
            trace.steps.append(
                TraceStep(
                    step,
                    token_id,
                    backend.vocab.token(token_id),
                    trace_w,
                    top1 if small else 0.0,
                    0.0 if small else top1,
                )
            )
    return emitted


def decode(
    session: GenerationSession,
    on_transport_error: str = "abort",
    audit_log=None,
    template_library=None,
) -> DecodeResult:
    """Run the session's mode to completion.

    ``on_transport_error`` selects the policy when a remote large backend
    fails mid-stream: ``abort`` raises a session error carrying the
    partial trace, ``degrade`` records the event and finishes on the
    small model alone. ``audit_log``, when given, captures every payload
    bound for the large backend for the privacy audit.
    """
    if on_transport_error not in ("abort", "degrade"):
        raise InvalidConfigError("on_transport_error must be 'abort' or 'degrade'")
    mode = session.mode
    sampling = session.sampling
    trace = WeightTrace(mode=mode.label(), seed=sampling.seed)

    if mode.kind == "sketch_then_fill":
        from .prompting import run_sketch_then_fill  # imported late: prompting builds on decoding

        extra = {} if template_library is None else {"library": template_library}
        tokens, artifact = run_sketch_then_fill(
            session.llm,
            session.slm,
            session.record,
            sampling,
            conditioning=mode.sketch_conditioning,
            dataset_kind=getattr(session.record, "dataset_kind", "context_aware"),
            audit_log=audit_log,
            trace=trace,
            **extra,
        )
        return DecodeResult(token_ids=tuple(tokens), trace=trace, sketch=artifact)

    if mode.kind in ("llm_only_with_context", "llm_only_no_context"):
        with_ctx = mode.kind == "llm_only_with_context"
        tokens = decode_single(
            session.llm,
            (
                session.slm_instruction if with_ctx else session.llm_instruction,
                session.context if with_ctx else None,
            ),
            sampling,
            audit_log=audit_log,
            context_upload_waiver=with_ctx,
            trace=trace,
            trace_w=0.0,
        )
        return DecodeResult(token_ids=tuple(tokens), trace=trace)

    # logit_fusion, limited to the opening first_k steps when set; slm_only
    # is the same loop limited to 0 steps, so it never touches session.llm.
    if mode.kind == "slm_only":
        fused_limit = 0
    elif mode.first_k is None:
        fused_limit = sampling.max_new_tokens
    else:
        fused_limit = mode.first_k
    rng = Splitmix64(sampling.seed)
    vocab = session.slm.vocab
    tokens: list[int] = []
    llm_down = False

    for step in range(1, sampling.max_new_tokens + 1):
        prefix = tuple(tokens)
        p_s = session.slm.next_distribution(
            ConditioningInput(session.slm_instruction, prefix, session.context, session.slm.role)
        )
        fused_step = step <= fused_limit and not llm_down
        if fused_step:
            request = ConditioningInput(session.llm_instruction, prefix, None, session.llm.role)
            if audit_log is not None:
                audit_log.record_input(request)
            try:
                p_l = session.llm.next_distribution(request)
            except TransportError as exc:
                if on_transport_error == "abort":
                    raise SessionError(
                        f"large backend failed at step {step}: {exc}",
                        partial_trace=trace,
                        cause=exc,
                    ) from exc
                trace.events.append(f"step {step}: large backend down, degraded to slm_only")
                llm_down = True
                fused_step = False
        if fused_step:
            fused, w, ps_k, pl_k = blend_step(p_s, p_l, mode.strategy)
            dist = _dense(fused)
            ps1, pl1 = ps_k.top1()[1], pl_k.top1()[1]
        else:
            dist, w, ps1, pl1 = _dense(p_s), 1.0, p_s.top1()[1], 0.0
        token_id = _pick_token(dist, sampling, rng)
        if token_id == vocab.eos_id:
            break
        tokens.append(token_id)
        trace.steps.append(
            TraceStep(step, token_id, vocab.token(token_id), w, ps1, pl1)
        )
    return DecodeResult(token_ids=tuple(tokens), trace=trace)


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
            fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")


def read_trace(path) -> WeightTrace:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise InvalidConfigError("trace file is empty")
    meta = json.loads(lines[0])
    trace = WeightTrace(mode=meta["mode"], seed=meta["seed"], events=list(meta.get("events", [])))
    for line in lines[1:]:
        row = json.loads(line)
        trace.steps.append(TraceStep(**{f.name: row[f.name] for f in fields(TraceStep)}))
    return trace
