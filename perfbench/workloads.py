"""Workloads, set-up and the passes the cogen benchmark times.

Every workload is a fixed list of units of work built from the seed: a
decode session for the session workloads, and harvest, training and
scoring for ``train-comb``. One client runs them in a closed loop, as a
device waits for each reply before it sends the next request. A run
repeats the whole list (one "pass") until the measuring time is used up,
and at least ``MIN_PASSES`` times, so every pass does identical work and
must give identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from cogen.audit import AuditRecord, privacy_audit
from cogen.combmodel import CombTrainConfig, comb_train, harvest_examples
from cogen.core import SamplingConfig
from cogen.decoder import DecodeMode, decode, fused_teacher_forced_ppl, session_for_record
from cogen.errors import CogenError
from cogen.fusion import FusionStrategy
from cogen.rng import Splitmix64
from cogen.service import RemoteBackend, ServiceClient
from cogen.synthetic import build_world, large_backend, small_backends

HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 5
SETUP_EPOCHS = 5
TRAIN_EPOCHS = 10
MIN_PASSES = 2
TOP_K = 10
SERVICE_TIMEOUT_S = 30

# The n-gram large model never writes a numbered skeleton, so every
# sketch-conditioned session ends in SketchParseError. The benchmark keeps
# those sessions and counts them as failures; no other failure is expected.
KNOWN_FAILURE = ("sketch_then_fill[sketch]", "SketchParseError")

MODES = {
    "slm_only": lambda comb: DecodeMode.slm_only(),
    "llm_only_no_context": lambda comb: DecodeMode.llm_no_context(),
    "fixed(0.5)": lambda comb: DecodeMode.fusion(FusionStrategy.fixed(0.5)),
    "mean": lambda comb: DecodeMode.fusion(FusionStrategy.mean()),
    "max": lambda comb: DecodeMode.fusion(FusionStrategy.max_pool()),
    "learnable": lambda comb: DecodeMode.fusion(FusionStrategy.learnable(comb)),
    "first_k(8)": lambda comb: DecodeMode.first_k_mode(8, FusionStrategy.mean()),
    "first_k(16)": lambda comb: DecodeMode.first_k_mode(16, FusionStrategy.mean()),
    "sketch": lambda comb: DecodeMode.sketch("sketch"),
    "full_content": lambda comb: DecodeMode.sketch("full_content"),
}

MIX_MODES = (
    "slm_only",
    "llm_only_no_context",
    "fixed(0.5)",
    "mean",
    "max",
    "learnable",
    "first_k(8)",
    "sketch",
    "full_content",
)


@dataclass(frozen=True)
class Workload:
    name: str
    modes: tuple[str, ...]  # keys of MODES; empty for the training workload
    history_len: int = 6  # build_world history length: ~100 context tokens at 6
    max_new_tokens: int = 64
    records: int = 10  # test records the sessions draw from
    seeds_per_pair: int = 1  # sampling seeds per (record, mode) pair
    remote: bool = False
    # The privacy audit costs context length times payloads: minutes at
    # long-context's size, so that workload relies on its pin alone.
    verify: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload("local-mix", MIX_MODES, seeds_per_pair=2),
        Workload("remote-mix", MIX_MODES, seeds_per_pair=2, remote=True),
        Workload(
            "long-context",
            ("slm_only", "mean", "learnable", "first_k(16)", "full_content"),
            history_len=240,
            max_new_tokens=512,
            records=1,
            verify=False,
        ),
        Workload("train-comb", ()),
    )
}


class ServiceProcess:
    """``serve_child.py`` in its own process, driven over its stdin and stdout."""

    def __init__(self, seed: int, history_len: int, trace: bool) -> None:
        command = [
            sys.executable,
            str(HERE / "serve_child.py"),
            "--seed",
            str(seed),
            "--history-len",
            str(history_len),
        ]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("the service process exited before it was ready")
            self.address = tuple(json.loads(line)["address"])
        except BaseException:
            self.close()
            raise

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the service process exited on {command!r}")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return reply

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=SERVICE_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Env:
    """Everything one run works with, built by ``set_up``."""

    workload: Workload
    seed: int
    world: object
    local_llm: object  # the in-process large backend
    llm: object  # the large backend sessions use: remote on remote-mix
    slms: dict
    comb: object
    examples: list  # weight-net examples harvested during set-up
    positions: int  # reference positions that harvest visited
    example_epochs: int  # examples times epochs of the set-up training
    service: ServiceProcess | None = None
    client: ServiceClient | None = None
    remote: RemoteBackend | None = None
    modes: list = field(default_factory=list)

    @property
    def records(self) -> list:
        return self.world.test_records[: self.workload.records]

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.service is not None:
            self.service.close()


def harvest(records, slms, llm, tokenizer) -> tuple[list, int]:
    """Weight-net examples from every record, each with its user's small model."""
    examples, positions = [], 0
    for record in records:
        got, stats = harvest_examples(slms[record.user_id], llm, [record], tokenizer)
        examples.extend(got)
        positions += stats.examples + stats.skipped_missing_target
    return examples, positions


def train_weight_net(examples, seed: int, epochs: int):
    """Fixed-budget training: patience equals the epoch cap, so every epoch runs."""
    cut = int(0.9 * len(examples))
    config = CombTrainConfig(seed=seed, max_epochs=epochs, patience=epochs)
    comb, report = comb_train(examples[:cut], examples[cut:], config)
    return comb, cut * len(report.epochs)


def set_up(workload: Workload, seed: int, with_service: bool, trace: bool):
    """Build one run's world, backends, weight net and service; returns the
    environment and the seconds each phase took."""
    clock = [time.perf_counter()]

    def lap() -> float:
        clock.append(time.perf_counter())
        return clock[-1] - clock[-2]

    phases = {}
    world = build_world(seed, history_len=workload.history_len)
    phases["world"] = lap()
    llm = large_backend(world)
    slms = small_backends(world)
    phases["ngram"] = lap()
    examples, positions = harvest(world.train_records, slms, llm, world.tokenizer)
    phases["harvest"] = lap()
    comb, example_epochs = train_weight_net(examples, seed, SETUP_EPOCHS)
    phases["train"] = lap()
    env = Env(workload, seed, world, llm, llm, slms, comb, examples, positions, example_epochs)
    env.modes = [MODES[key](comb) for key in workload.modes]
    if with_service:
        try:
            env.service = ServiceProcess(seed, workload.history_len, trace)
            env.client = ServiceClient(env.service.address, session_id=f"bench-{seed}")
            env.remote = RemoteBackend(env.client, world.vocab, top_k=TOP_K)
        except BaseException:
            env.close()
            raise
        if workload.remote:
            env.llm = env.remote
    phases["serve"] = lap()
    return env, phases


def set_up_repeatedly(workload: Workload, seed: int, with_service: bool, trace: bool):
    """Set up ``SETUP_REPEATS`` times and keep the last environment; returns it
    with the median of each phase and of the whole set-up, in seconds."""
    env, timings = None, []
    for _ in range(SETUP_REPEATS):
        if env is not None:
            env.close()
        env, phases = set_up(workload, seed, with_service, trace)
        timings.append(phases)
    medians = {name: statistics.median(t[name] for t in timings) for name in timings[0]}
    medians["total"] = statistics.median(sum(t.values()) for t in timings)
    return env, medians


@dataclass(frozen=True)
class SessionSpec:
    record: int
    mode: int
    seed: int


def session_list(workload: Workload, seed: int) -> list[SessionSpec]:
    """The workload's sessions for ``seed``, in a seeded order."""
    rng = Splitmix64(seed)
    specs = [
        SessionSpec(record, mode, rng.next_below(1 << 32))
        for record in range(workload.records)
        for mode in range(len(workload.modes))
        for _ in range(workload.seeds_per_pair)
    ]
    rng.shuffle(specs)
    return specs


@dataclass(frozen=True)
class Outcome:
    tokens: tuple[int, ...]
    error: str  # exception class name; empty on success
    ns: int
    steps: int  # decode steps; zero when the session failed


def decode_steps(token_count: int, cap: int) -> int:
    """Steps of one decode loop: a step per token, plus the step that drew
    end-of-sequence when the loop stopped before the cap."""
    return token_count + (token_count < cap)


def run_session(env: Env, spec: SessionSpec, slms, llm) -> Outcome:
    """Decode one session. A sketch session's steps include the large model's
    draft steps, so its step time is not its draft time over a short fill."""
    record = env.records[spec.record]
    cap = env.workload.max_new_tokens
    sampling = SamplingConfig(seed=spec.seed, max_new_tokens=cap)
    session = session_for_record(record, env.modes[spec.mode], sampling, slms[record.user_id], llm)
    start = time.perf_counter_ns()
    try:
        result = decode(session)
    except CogenError as exc:
        return Outcome((), type(exc).__name__, time.perf_counter_ns() - start, 0)
    ns = time.perf_counter_ns() - start
    steps = decode_steps(len(result.token_ids), cap)
    if result.sketch is not None:
        draft = getattr(result.sketch, "raw_text", result.sketch)
        steps += decode_steps(len(draft.split()), cap)
    return Outcome(tuple(result.token_ids), "", ns, steps)


def run_pass(env: Env, specs, slms, llm, after=None) -> tuple[list[Outcome], int]:
    """Run every session once; ``after(spec, outcome)`` sees each as it ends."""
    start = time.perf_counter_ns()
    outcomes = []
    for spec in specs:
        outcome = run_session(env, spec, slms, llm)
        outcomes.append(outcome)
        if after is not None:
            after(spec, outcome)
    return outcomes, time.perf_counter_ns() - start


def label(env: Env, spec: SessionSpec) -> str:
    return env.modes[spec.mode].label()


def session_digest(env: Env, specs, outcomes) -> str:
    h = hashlib.sha256()
    for spec, out in zip(specs, outcomes):
        tokens = " ".join(map(str, out.tokens))
        h.update(f"{spec.record} {label(env, spec)} {spec.seed} {out.error} {tokens}\n".encode())
    return h.hexdigest()


def unexpected_failures(env: Env, specs, outcomes) -> list[int]:
    return [
        i
        for i, (spec, out) in enumerate(zip(specs, outcomes))
        if out.error and (label(env, spec), out.error) != KNOWN_FAILURE
    ]


def verify(env: Env, specs, outcomes) -> tuple[set[int], int]:
    """Untimed checks after the timed passes: each session again over the
    service with payload capture on, the privacy audit of what the service
    received against the session's context, and each session in-process.
    Both must equal the timed outcome. Returns the indices of sessions that
    failed a check and the number of payloads audited."""
    failed, audited = set(), 0
    env.service.ask("drain")
    env.service.ask("capture")
    for i, (spec, want) in enumerate(zip(specs, outcomes)):
        again = run_session(env, spec, env.slms, env.remote)
        payloads = env.service.ask("drain")["payloads"]
        audited += len(payloads)
        records = [AuditRecord(bytes.fromhex(p)) for p in payloads]
        context = env.records[spec.record].context_bundle()
        twin = run_session(env, spec, env.slms, env.local_llm)
        same = (again.tokens, again.error) == (want.tokens, want.error) == (twin.tokens, twin.error)
        if not same or not privacy_audit(records, context).passed:
            failed.add(i)
    return failed, audited


def finite_mean(values) -> tuple[float, int]:
    """Mean of the finite perplexities, and how many were left out.

    A record whose reference steps outside the fused top-k support scores
    infinite perplexity (see ``fused_teacher_forced_ppl``). One such record
    would make the mean infinite, which no result line can carry, so it is
    left out of the mean and counted instead."""
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        raise RuntimeError("every test record scored infinite perplexity")
    return statistics.fmean(finite), len(values) - len(finite)


def fused_ppl(env: Env) -> tuple[float, int, int, int]:
    """Mean held-out perplexity of learnable fusion with the set-up's weight
    net over the test records (see ``finite_mean``); returns it with the
    records left out, the positions scored and the nanoseconds taken."""
    strategy = FusionStrategy.learnable(env.comb)
    tokenizer = env.world.tokenizer
    values, positions = [], 0
    start = time.perf_counter_ns()
    for record in env.world.test_records:
        slm = env.slms[record.user_id]
        values.append(fused_teacher_forced_ppl(slm, env.local_llm, record, tokenizer, strategy))
        positions += len(tokenizer.tokenize(record.reference)) + 1
    ns = time.perf_counter_ns() - start
    return (*finite_mean(values), positions, ns)


SCORING = (
    ("mean", lambda comb: FusionStrategy.mean()),
    ("max", lambda comb: FusionStrategy.max_pool()),
    ("learnable", FusionStrategy.learnable),
)


@dataclass
class TrainPass:
    """One pass of train-comb: harvest, fixed-epoch training, scoring."""

    harvest_ns: int = 0
    positions: int = 0
    examples: list = field(default_factory=list)
    train_ns: int = 0
    example_epochs: int = 0
    comb: object = None
    score: list = field(default_factory=list)  # (strategy, ns, positions, ppl) per call
    wall_ns: int = 0

    def ppl(self, strategy: str) -> tuple[float, int]:
        """``finite_mean`` of the strategy's perplexities over the test records."""
        return finite_mean([p for name, _, _, p in self.score if name == strategy])

    def digest(self) -> str:
        """Exact over the harvest; perplexities compared separately, with a tolerance."""
        h = hashlib.sha256()
        for ex in self.examples:
            h.update(f"{ex.target_id} {ex.top10_l} {ex.top10_s}\n".encode())
        return h.hexdigest()


def train_pass(env: Env, slms, llm, after_harvest=None) -> TrainPass:
    world = env.world
    result = TrainPass()
    start = time.perf_counter_ns()
    result.examples, result.positions = harvest(world.train_records, slms, llm, world.tokenizer)
    result.harvest_ns = time.perf_counter_ns() - start
    if after_harvest is not None:
        after_harvest()
    mark = time.perf_counter_ns()
    result.comb, result.example_epochs = train_weight_net(result.examples, env.seed, TRAIN_EPOCHS)
    result.train_ns = time.perf_counter_ns() - mark
    for record in world.test_records:
        positions = len(world.tokenizer.tokenize(record.reference)) + 1
        for name, make in SCORING:
            mark = time.perf_counter_ns()
            ppl = fused_teacher_forced_ppl(
                slms[record.user_id], llm, record, world.tokenizer, make(result.comb)
            )
            result.score.append((name, time.perf_counter_ns() - mark, positions, ppl))
    result.wall_ns = time.perf_counter_ns() - start
    return result


def operations(env: Env) -> int:
    """Units of work in one train-comb pass: a harvest per train record,
    one training run and a scoring call per test record and strategy."""
    return len(env.world.train_records) + 1 + len(env.world.test_records) * len(SCORING)
