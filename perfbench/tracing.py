"""Timing wrappers and replay for the traced benchmark run.

Spans are taken from the benchmark's side of each layer boundary: a
``TimedBackend`` stands between the decoder and a backend (or between
the logit service and its backend, inside the service process), and
``replay`` re-times the public per-step functions on the distributions
the backends actually returned. Nothing under ``src/`` is instrumented.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from cogen.backends import ConditioningInput
from cogen.combmodel import comb_forward, comb_grad, comb_loss, padded_top_probs
from cogen.core import SamplingConfig, TokenDistribution, sample_top_p, top_k_project
from cogen.fusion import FusionStrategy, align_supports, fuse
from cogen.prompting import build_fill_prompt
from cogen.rng import Splitmix64

TOP_K = 10
REPLAY_ITEMS = 1000
REPLAY_REPEATS = 3


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of ``n`` samples beyond it,
    or the maximum when there are fewer than twenty samples."""
    if n < 20:
        return 100.0
    return math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; the median uses ``statistics.median`` instead."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Meter:
    """Call timings shared by the wrappers of one traced pass.

    ``calls[name]`` holds the nanoseconds of every ``next_distribution``
    call and ``busy[name]`` the running sum, generate calls included.
    ``requests`` lists each large-backend request in order as (kind,
    nanoseconds, backend calls it costs the service). ``events`` keeps
    (name, request, distribution) for replay while ``capture`` is set.
    """

    def __init__(self, capture: bool = False) -> None:
        self.calls: dict[str, list[int]] = {"slm": [], "llm": []}
        self.busy: dict[str, int] = {"slm": 0, "llm": 0}
        self.requests: list[tuple[str, int, int]] = []
        self.events: list[tuple] = []
        self.capture = capture

    def total_busy(self) -> int:
        return self.busy["slm"] + self.busy["llm"]


class TimedBackend:
    """Forwards a backend's surface and times each call into it.

    ``vocab``, ``role`` and ``kind`` and the ``generate_remote`` method
    are forwarded only when the wrapped backend has them, because the
    decoder and the prompting layer choose their path by probing for
    those attributes.
    """

    FORWARDED = ("vocab", "role", "kind")

    def __init__(self, inner, name: str, meter: Meter) -> None:
        self.inner = inner
        self.name = name
        self.meter = meter
        for attr in self.FORWARDED:
            if hasattr(inner, attr):
                setattr(self, attr, getattr(inner, attr))
        if hasattr(inner, "generate_remote"):
            self.generate_remote = self._generate_remote

    def next_distribution(self, request):
        start = time.perf_counter_ns()
        dist = self.inner.next_distribution(request)
        elapsed = time.perf_counter_ns() - start
        meter = self.meter
        meter.calls[self.name].append(elapsed)
        meter.busy[self.name] += elapsed
        if self.name == "llm":
            meter.requests.append(("logits", elapsed, 1))
        if meter.capture:
            meter.events.append((self.name, request, dist))
        return dist

    def _generate_remote(self, instruction, prefix_ids, sampling):
        start = time.perf_counter_ns()
        tokens = self.inner.generate_remote(instruction, prefix_ids, sampling)
        elapsed = time.perf_counter_ns() - start
        self.meter.busy[self.name] += elapsed
        # The service runs decode_single: one backend call per token, plus
        # the call that drew end-of-sequence when the cap was not reached.
        cost = len(tokens) + (len(tokens) < sampling.max_new_tokens)
        self.meter.requests.append(("generate", elapsed, cost))
        return tokens


def step_pairs(events) -> list[tuple]:
    """(slm request, p_s, llm request, p_l) for each step that queried both sides."""
    pairs = []
    for before, after in zip(events, events[1:]):
        if (
            before[0] == "slm"
            and after[0] == "llm"
            and before[1].prefix_ids == after[1].prefix_ids
        ):
            pairs.append((before[1], before[2], after[1], after[2]))
    return pairs


def spread(items, limit: int = REPLAY_ITEMS) -> list:
    """At most ``limit`` items, evenly spaced over the whole list."""
    if len(items) <= limit:
        return list(items)
    step = len(items) / limit
    return [items[int(i * step)] for i in range(limit)]


def per_call_us(fn, items) -> float:
    """Median over repeats of the mean microseconds of ``fn(item)``."""
    runs = []
    for _ in range(REPLAY_REPEATS):
        start = time.perf_counter_ns()
        for item in items:
            fn(item)
        runs.append((time.perf_counter_ns() - start) / len(items) / 1e3)
    return statistics.median(runs)


def replay(events, comb, tokenizer, records, examples) -> dict[str, float]:
    """Per-call microseconds of the per-step public functions, on captured inputs."""
    pairs = spread(step_pairs(events))
    slm_requests = spread([e[1] for e in events if e[0] == "slm"])
    if not pairs or not slm_requests:
        raise RuntimeError("the traced pass captured no fused steps to replay")
    mean = FusionStrategy.mean()
    projected = []
    for _, p_s, _, p_l in pairs:
        ps_k = p_s if p_s.is_sparse else top_k_project(p_s, TOP_K)
        pl_k = p_l if p_l.is_sparse else top_k_project(p_l, TOP_K)
        projected.append((ps_k, pl_k))
    aligned = [align_supports(ps_k, pl_k) for ps_k, pl_k in projected]
    tops = [(padded_top_probs(pl_k), padded_top_probs(ps_k)) for ps_k, pl_k in projected]
    fused = []
    for pair in aligned:
        dist, _ = fuse(pair, mean)
        fused.append(TokenDistribution.dense(dist.to_dense_array() / dist.mass))
    sampling = SamplingConfig(max_new_tokens=1)
    rng = Splitmix64(0)

    def tokenize_conditioning(request):
        tokenizer.tokenize(request.instruction)
        if request.context is not None:
            tokenizer.tokenize(request.context.as_text())

    metrics = {
        "core.top_k_project_us": per_call_us(
            lambda p: top_k_project(p[1], TOP_K), pairs
        ),
        "fusion.align_supports_us": per_call_us(lambda p: align_supports(*p), projected),
        "fusion.fuse_us": per_call_us(lambda a: fuse(a, mean), aligned),
        "combmodel.padded_top_probs_us": per_call_us(
            lambda p: padded_top_probs(p[1]), projected
        ),
        "combmodel.comb_forward_us": per_call_us(lambda t: comb_forward(comb, *t), tops),
        "core.sample_top_p_us": per_call_us(lambda d: sample_top_p(d, sampling, rng), fused),
        "backends.conditioning_input_us": per_call_us(
            lambda r: ConditioningInput(r.instruction, r.prefix_ids, r.context, r.receiver_role),
            slm_requests,
        ),
        "tokenizer.tokenize_us": per_call_us(tokenize_conditioning, slm_requests),
        "prompting.fill_prompt_us": per_call_us(
            lambda r: build_fill_prompt(r, r.reference, r.dataset_kind), records
        ),
    }
    sample = spread(examples)
    metrics["combmodel.comb_loss_us"] = per_call_us(lambda ex: comb_loss(comb, ex), sample)
    metrics["combmodel.comb_grad_us"] = per_call_us(lambda ex: comb_grad(comb, ex), sample)
    return metrics


def replay_through_service(events, remote) -> bool:
    """Send the captured large-backend requests over ``remote`` (a wrapped
    RemoteBackend) and check each answer is the top-k slice of the
    distribution the in-process backend returned."""
    exact = True
    for _, request, dist in spread([e for e in events if e[0] == "llm"]):
        got = remote.next_distribution(
            ConditioningInput(request.instruction, request.prefix_ids, None, request.receiver_role)
        )
        want = dist if dist.is_sparse else top_k_project(dist, TOP_K)
        exact &= bool(
            np.array_equal(got.sparse_ids, want.sparse_ids)
            and np.array_equal(got.sparse_probs, want.sparse_probs)
        )
    return exact


def service_metrics(meter: Meter, server_ns: list[int], request_bytes: list[int]):
    """Round trips paired with the service-side backend time of each request.

    Only logits requests enter the round-trip figures: each costs exactly
    one backend call, so server time and overhead split cleanly. Returns
    the metrics, the tail percentile used and the generate round trips.
    """
    expected = sum(cost for _, _, cost in meter.requests)
    if expected != len(server_ns):
        raise RuntimeError(
            f"the service ran {len(server_ns)} backend calls, the client expected {expected}"
        )
    rtt_us, server_us, overhead_us, generate_ms = [], [], [], []
    cursor = 0
    for kind, elapsed, cost in meter.requests:
        if kind == "logits":
            rtt_us.append(elapsed / 1e3)
            server_us.append(server_ns[cursor] / 1e3)
            overhead_us.append((elapsed - server_ns[cursor]) / 1e3)
        else:
            generate_ms.append(elapsed / 1e6)
        cursor += cost
    tail = tail_percentile(len(rtt_us))
    metrics = {
        "service.calls": len(meter.requests),
        "service.rtt_us_p50": statistics.median(rtt_us),
        "service.rtt_us_tail": percentile(rtt_us, tail),
        "service.server_us_p50": statistics.median(server_us),
        "service.overhead_us_p50": statistics.median(overhead_us),
        "service.req_bytes_per_call": sum(request_bytes) / len(request_bytes),
    }
    return metrics, tail, generate_ms
