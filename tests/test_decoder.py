"""The generation loop: mode semantics, traces, degeneracies, failure policy.

``tests/goldens/trace_digests.json`` holds, per decode mode, a SHA-256
over the ``write_trace`` bytes of each session on ``TRACE_WORLDS``: the
token ids pin only the picks, the trace also pins each step's weight and
top-1 probabilities. The learnable mode has no entry, since its weight
comes through the weight net's BLAS product, which differs by kernel.
Regenerate the file only for a change that is meant to alter a trace:

    PYTHONPATH=src python tests/test_decoder.py
"""

import hashlib
import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogen import decoder, fusion
from cogen.audit import AuditedBackend, AuditLog, payload_for_input
from cogen.backends import NGramBackend, Role, TableBackend, train_ngram
from cogen.combmodel import comb_init, harvest_examples
from cogen.core import SamplingConfig, TokenDistribution, Vocab
from cogen.decoder import (
    DecodeMode,
    TraceStep,
    WeightTrace,
    decode,
    decode_single,
    fused_teacher_forced_ppl,
    read_trace,
    session_for_record,
    teacher_forced_steps,
    write_trace,
)
from cogen.errors import (
    CogenError,
    IncompatibleVocabError,
    InvalidConfigError,
    SessionError,
    TransportError,
)
from cogen.fusion import FusionStrategy
from cogen.service import RemoteBackend, ServiceClient, serve
from cogen.synthetic import build_world, large_backend, small_backends
from cogen.tokenizer import Tokenizer
from helpers import CountingBackend, path_backend, perplexity, session_trace, traced_decode
from test_decode_golden import GOLDEN as DECODE_GOLDEN
from test_decode_golden import MAX_NEW_TOKENS, MODES, RECORDS_PER_WORLD, golden_setup

TRACE_GOLDEN = Path(__file__).parent / "goldens" / "trace_digests.json"
TRACE_WORLDS = range(2)
# Modes whose trace bytes do not depend on the BLAS kernel.
TRACE_PINNED = [name for name in MODES if name != "learnable"]


class FlakyBackend:
    """Delegates to a table backend but fails transport after N calls."""

    def __init__(self, inner, fail_after: int):
        self.inner = inner
        self.vocab = inner.vocab
        self.role = inner.role
        self.calls = 0
        self.fail_after = fail_after

    def next_distribution(self, request):
        self.calls += 1
        if self.calls > self.fail_after:
            raise TransportError("injected connection drop")
        return self.inner.next_distribution(request)


class FlakyRemoteBackend(FlakyBackend):
    """A remote large backend whose whole-sequence generate call fails."""

    def generate_remote(self, instruction, prefix_ids, sampling):
        raise TransportError("injected connection drop")


class SparseBackend:
    """A small backend whose every reply is the sparse view {A: 0.3, B: 0.2},
    half the mass, as a remote reply's top-k may be."""

    role = Role.SMALL_DEVICE

    def __init__(self, vocab):
        self.vocab = vocab

    def next_distribution(self, request):
        return TokenDistribution.sparse([0, 1], [0.3, 0.2], self.vocab.size)


def make_session(record, mode, slm, llm, **sampling_kwargs):
    sampling = SamplingConfig(greedy=True, max_new_tokens=16, **sampling_kwargs)
    return session_for_record(record, mode, sampling, slm, llm)


class TestDecodeMode:
    @pytest.mark.parametrize(
        "make, label",
        [
            (lambda: DecodeMode.slm_only(), "slm_only"),
            (lambda: DecodeMode.llm_with_context(), "llm_only_with_context"),
            (lambda: DecodeMode.llm_no_context(), "llm_only_no_context"),
            (lambda: DecodeMode.fusion(FusionStrategy.mean()), "logit_fusion[mean]"),
            (lambda: DecodeMode.fusion(FusionStrategy.fixed(0.25)), "logit_fusion[fixed(0.25)]"),
            (lambda: DecodeMode.fusion(FusionStrategy.max_pool()), "logit_fusion[max]"),
            (lambda: DecodeMode.fusion(FusionStrategy.learnable(comb_init(0))), "logit_fusion[learnable]"),
            (lambda: DecodeMode.first_k_mode(0, FusionStrategy.mean()), "first_k(0)[mean]"),
            (lambda: DecodeMode.first_k_mode(8, FusionStrategy.max_pool()), "first_k(8)[max]"),
            (lambda: DecodeMode.sketch(), "sketch_then_fill[sketch]"),
            (lambda: DecodeMode.sketch("full_content"), "sketch_then_fill[full_content]"),
        ],
    )
    def test_labels(self, make, label):
        # Trace files and benchmark mode names carry these strings.
        assert make().label() == label

    def test_rejects_negative_first_k(self):
        with pytest.raises(InvalidConfigError, match="first_k"):
            DecodeMode.first_k_mode(-1, FusionStrategy.mean())

    @pytest.mark.parametrize("first_k", [None, 3])
    def test_fused_mode_needs_a_strategy(self, first_k):
        with pytest.raises(InvalidConfigError, match="strategy"):
            DecodeMode(kind="logit_fusion", first_k=first_k)


class TestFusedEndpoints:
    def test_weight_one_follows_small_path(self, path_backends, simple_record, abc_vocab):
        slm, llm = path_backends
        session = make_session(simple_record, DecodeMode.fusion(FusionStrategy.fixed(1.0)), slm, llm)
        result = decode(session)
        assert [abc_vocab.token(t) for t in result.token_ids] == ["A", "B", "C"]

    def test_weight_zero_follows_large_path(self, path_backends, simple_record, abc_vocab):
        slm, llm = path_backends
        session = make_session(simple_record, DecodeMode.fusion(FusionStrategy.fixed(0.0)), slm, llm)
        result = decode(session)
        assert [abc_vocab.token(t) for t in result.token_ids] == ["A", "B", "D"]

    def test_mean_fusion_argmax_follows_heavier_mass(self, abc_vocab, simple_record):
        # per-step masses 0.6/0.4 vs 0.2/0.8 fuse to 0.4/0.6: token B wins
        slm = TableBackend(abc_vocab, Role.SMALL_DEVICE, default={"A": 0.6, "B": 0.4})
        llm = TableBackend(abc_vocab, Role.LARGE_CLOUD, default={"A": 0.2, "B": 0.8})
        session = make_session(simple_record, DecodeMode.fusion(FusionStrategy.mean()), slm, llm)
        result = decode(session)
        tokens = {abc_vocab.token(t) for t in result.token_ids}
        assert tokens == {"B"}
        assert len(result.token_ids) == session.sampling.max_new_tokens

    def test_vocab_mismatch_rejected(self, simple_record, abc_vocab):
        from cogen.core import Vocab

        other = Vocab(tokens=("A", "B", "C", "E", "</s>", "<unk>"), eos_id=4, unk_id=5)
        slm = path_backend(abc_vocab, Role.SMALL_DEVICE, ["A"])
        llm = path_backend(other, Role.LARGE_CLOUD, ["A"])
        with pytest.raises(IncompatibleVocabError):
            make_session(simple_record, DecodeMode.fusion(FusionStrategy.mean()), slm, llm)


class TestTraces:
    def test_trace_one_entry_per_token_with_weights(self, path_backends, simple_record):
        slm, llm = path_backends
        session = make_session(simple_record, DecodeMode.fusion(FusionStrategy.fixed(0.7)), slm, llm)
        result, trace = traced_decode(session)
        assert len(trace.steps) == len(result.token_ids)
        assert all(s.w == 0.7 for s in trace.steps)
        assert all(0.0 <= s.w <= 1.0 for s in trace.steps)

    def test_slm_only_trace_all_ones(self, path_backends, simple_record):
        slm, _ = path_backends
        sampling = SamplingConfig(greedy=True, max_new_tokens=16)
        session = session_for_record(simple_record, DecodeMode.slm_only(), sampling, slm)
        result, trace = traced_decode(session)
        assert len(result.token_ids) == 3
        assert all(s.w == 1.0 for s in trace.steps)
        assert all(s.p_l_top1 == 0.0 for s in trace.steps)

    def test_trace_round_trip_through_file(self, path_backends, simple_record, tmp_path):
        slm, llm = path_backends
        session = make_session(simple_record, DecodeMode.fusion(FusionStrategy.mean()), slm, llm)
        _, trace = traced_decode(session)
        trace.events.append("synthetic event for the round trip")
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded.mode == trace.mode
        assert loaded.seed == trace.seed
        assert loaded.steps == trace.steps
        assert loaded.events == trace.events

    def test_a_trace_row_cannot_change(self):
        row = TraceStep(1, 2, "B", 0.5, 0.25, 0.75)
        with pytest.raises(AttributeError):
            row.w = 0.0
        assert row == TraceStep(1, 2, "B", 0.5, 0.25, 0.75)

    def test_each_row_is_written_as_an_object_with_six_sorted_keys(
        self, path_backends, simple_record, tmp_path
    ):
        slm, llm = path_backends
        session = make_session(simple_record, DecodeMode.fusion(FusionStrategy.mean()), slm, llm)
        _, trace = traced_decode(session)
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert len(lines) == len(trace.steps) > 0
        keys = ["p_l_top1", "p_s_top1", "step", "token", "token_id", "w"]
        for line, step in zip(lines, trace.steps):
            row = json.loads(line)
            assert isinstance(row, dict) and list(row) == keys
            assert row == {key: getattr(step, key) for key in keys}

    @settings(max_examples=100, deadline=None)
    @given(
        steps=st.lists(
            st.builds(
                TraceStep,
                step=st.integers(1, 10**6),
                token_id=st.integers(0, 10**6),
                token=st.text(),
                w=st.floats(0.0, 1.0),
                p_s_top1=st.floats(0.0, 1.0),
                p_l_top1=st.floats(0.0, 1.0),
            ),
            max_size=6,
        ),
        events=st.lists(st.text(), max_size=3),
        mode=st.text(),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_any_trace_round_trips_field_for_field(self, tmp_path_factory, steps, events, mode, seed):
        path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
        trace = WeightTrace(mode=mode, seed=seed, steps=steps, events=events)
        write_trace(trace, path)
        assert read_trace(path) == trace


def trace_worlds():
    """Each of ``TRACE_WORLDS`` with backends no session has read yet."""
    worlds = []
    for world_seed in TRACE_WORLDS:
        world = build_world(world_seed)
        worlds.append((world_seed, world, large_backend(world), small_backends(world)))
    return worlds


def run_mode(name, comb, worlds, path=None) -> tuple[list[str], bytes]:
    """Each session of mode ``name`` on ``worlds``, one after another, as
    ``test_decode_golden`` runs it: the outcome lines that golden hashes
    (token ids, or the error's class name), and with ``path`` the
    ``write_trace`` file of each session traced into a fresh
    ``WeightTrace`` (a session that fails adds its error's class name).
    Without ``path`` no session is traced."""
    lines, out = [], []
    for world_seed, world, llm, slms in worlds:
        for r, record in enumerate(world.test_records[:RECORDS_PER_WORLD]):
            sampling = SamplingConfig(seed=100 * world_seed + r, max_new_tokens=MAX_NEW_TOKENS)
            session = session_for_record(record, MODES[name](comb), sampling, slms[record.user_id], llm)
            trace = None if path is None else session_trace(session)
            try:
                outcome = " ".join(map(str, decode(session, trace=trace).token_ids))
            except CogenError as exc:
                outcome = type(exc).__name__
                if trace is not None:
                    out.append(outcome.encode() + b"\n")
            else:
                if trace is not None:
                    write_trace(trace, path)
                    out.append(path.read_bytes())
            lines.append(f"{world_seed}/{r}: {outcome}")
    return lines, b"".join(out)


def trace_bytes(name, comb, worlds, path) -> bytes:
    """The ``write_trace`` bytes of ``run_mode``'s traced sessions."""
    return run_mode(name, comb, worlds, path)[1]


class TestTraceBytes:
    @pytest.mark.parametrize("name", list(MODES))
    def test_warm_pass_writes_the_cold_pass_bytes(self, name, tmp_path, monkeypatch):
        """A second pass over the same backends, where every fused step
        finds its blend in the memo, writes the first pass's trace bytes,
        and those match the golden digest."""
        comb, worlds, path = comb_init(0), trace_worlds(), tmp_path / "trace.jsonl"
        cold = trace_bytes(name, comb, worlds, path)
        fused = []
        fuse_views = fusion.fuse_views
        monkeypatch.setattr(fusion, "fuse_views", lambda *a: fused.append(a) or fuse_views(*a))
        warm = trace_bytes(name, comb, worlds, path)
        assert warm == cold
        assert fused == []
        if name in TRACE_PINNED:
            golden = json.loads(TRACE_GOLDEN.read_text(encoding="utf-8"))
            assert hashlib.sha256(cold).hexdigest() == golden[name]

    @pytest.mark.parametrize("name", list(MODES))
    def test_untraced_passes_emit_the_traced_and_golden_tokens(self, name, tmp_path):
        """Untraced, on fresh backends and again on the same ones, each
        mode emits the token ids of its traced pass on ``TRACE_WORLDS``,
        and on every world of the decode golden hashes to its digest."""
        comb = comb_init(0)
        traced, _ = run_mode(name, comb, trace_worlds(), tmp_path / "trace.jsonl")
        _, worlds = golden_setup()
        assert [w[0] for w in worlds[: len(TRACE_WORLDS)]] == list(TRACE_WORLDS)
        golden = json.loads(DECODE_GOLDEN.read_text(encoding="utf-8"))[name]
        for _ in ("cold", "warm"):
            untraced, _ = run_mode(name, comb, worlds)
            assert untraced[: len(traced)] == traced
            assert hashlib.sha256("\n".join(untraced).encode("utf-8")).hexdigest() == golden

    def test_golden_pins_every_mode_but_learnable(self):
        golden = json.loads(TRACE_GOLDEN.read_text(encoding="utf-8"))
        assert sorted(golden) == sorted(TRACE_PINNED)


def raise_trace_work(*args, **kwargs):
    raise AssertionError("an untraced decode did trace work")


class TestUntracedDecode:
    def test_no_mode_builds_a_row_or_reads_what_one_holds(self, monkeypatch):
        """Untraced, no decode mode builds a trace row or reads a top-1
        probability or a token's string: with all three patched to raise,
        every mode emits its unpatched tokens, in process and against a
        loopback service (whose generate call runs ``decode_single``),
        on fresh backends and again on the same ones. Sampling is not
        greedy, since a greedy pick reads the top-1."""
        comb = comb_init(0)

        def outcomes(remote):
            _, world, llm, slms = trace_worlds()[0]
            if remote:
                llm = RemoteBackend(client, world.vocab)
            rows = []
            for _ in ("cold", "warm"):
                for r, record in enumerate(world.test_records[:RECORDS_PER_WORLD]):
                    sampling = SamplingConfig(seed=r, max_new_tokens=MAX_NEW_TOKENS)
                    for make in MODES.values():
                        session = session_for_record(record, make(comb), sampling, slms[record.user_id], llm)
                        try:
                            rows.append(decode(session).token_ids)
                        except CogenError as exc:
                            rows.append(type(exc).__name__)
            return rows

        with serve(large_backend(trace_worlds()[0][1]), ("127.0.0.1", 0)) as handle:
            client = ServiceClient(handle.address)
            try:
                expected = outcomes(False), outcomes(True)
                monkeypatch.setattr(decoder, "TraceStep", raise_trace_work)
                monkeypatch.setattr(Vocab, "token", raise_trace_work)
                monkeypatch.setattr(TokenDistribution, "top1", raise_trace_work)
                assert (outcomes(False), outcomes(True)) == expected
            finally:
                client.close()
        assert sum(type(row) is tuple and len(row) > 0 for row in expected[1]) > len(MODES)


class TestFirstK:
    def test_zero_matches_slm_only_token_for_token(self, path_backends, simple_record):
        slm, llm = path_backends
        for seed in range(5):
            sampling = SamplingConfig(seed=seed, max_new_tokens=16)
            fused = session_for_record(
                simple_record, DecodeMode.first_k_mode(0, FusionStrategy.fixed(0.0)),
                sampling, slm, llm,
            )
            alone = session_for_record(simple_record, DecodeMode.slm_only(), sampling, slm)
            assert decode(fused).token_ids == decode(alone).token_ids

    def test_large_n_matches_full_fusion_token_for_token(self, path_backends, simple_record):
        slm, llm = path_backends
        for seed in range(5):
            sampling = SamplingConfig(seed=seed, max_new_tokens=16)
            first = session_for_record(
                simple_record, DecodeMode.first_k_mode(64, FusionStrategy.mean()),
                sampling, slm, llm,
            )
            full = session_for_record(
                simple_record, DecodeMode.fusion(FusionStrategy.mean()), sampling, slm, llm,
            )
            (a, a_trace), (b, b_trace) = traced_decode(first), traced_decode(full)
            assert a.token_ids == b.token_ids
            assert [s.w for s in a_trace.steps] == [s.w for s in b_trace.steps]

    def test_prefix_follows_large_then_small_continuation(self, abc_vocab, simple_record):
        # large path A B D; small keyed to continue any prefix with C
        llm = path_backend(abc_vocab, Role.LARGE_CLOUD, ["A", "B", "D"])
        slm = TableBackend(
            abc_vocab,
            Role.SMALL_DEVICE,
            rules=TableBackend.path_rules(abc_vocab, ["A", "B", "C"]),
            default={"C": 1.0},
        )
        session = make_session(
            simple_record, DecodeMode.first_k_mode(2, FusionStrategy.fixed(0.0)), slm, llm
        )
        result, trace = traced_decode(session)
        names = [abc_vocab.token(t) for t in result.token_ids]
        assert names[:2] == ["A", "B"]
        assert set(names[2:]) == {"C"}
        assert [s.w for s in trace.steps[:2]] == [0.0, 0.0]
        assert all(s.w == 1.0 for s in trace.steps[2:])

    def test_no_large_queries_after_step_n(self, path_backends, simple_record):
        slm, llm = path_backends
        counting = CountingBackend(llm)
        session = make_session(
            simple_record, DecodeMode.first_k_mode(1, FusionStrategy.mean()), slm, counting
        )
        decode(session)
        assert len(counting.requests) == 1
        assert all(len(r.prefix_ids) <= 0 for r in counting.requests)


class TestSingleBackendModes:
    def test_deterministic_table_greedy_path(self, path_backends, greedy_sampling):
        slm, _ = path_backends
        tokens = decode_single(slm, ("irrelevant", None), greedy_sampling)
        assert [slm.vocab.token(t) for t in tokens] == ["A", "B", "C"]

    def test_same_seed_same_output(self, world0, world0_backends):
        llm, _ = world0_backends
        sampling = SamplingConfig(seed=11, max_new_tokens=24)
        record = world0.test_records[0]
        a = decode_single(llm, (record.general_task, None), sampling)
        b = decode_single(llm, (record.general_task, None), sampling)
        assert a == b

    def test_context_gap_shows_in_perplexity(self, world0, world0_backends):
        # on a record whose reference is pure personal content, the
        # context-blind large model scores far worse than the
        # context-holding small model
        from dataclasses import replace

        llm, slms = world0_backends
        tok = world0.tokenizer
        worse = 0
        for record in world0.test_records:
            tail = " ".join(record.reference.split()[-6:])
            personal = replace(record, reference=tail)
            ids = tok.tokenize(personal.reference)
            with_ctx = perplexity(
                slms[record.user_id], ids,
                instruction=personal.task, context=personal.context_bundle(),
            )
            without_ctx = perplexity(llm, ids, instruction=personal.general_task)
            worse += without_ctx > with_ctx
        assert worse == len(world0.test_records)

    def test_llm_with_context_uses_waiver(self, abc_vocab, simple_record):
        llm = CountingBackend(path_backend(abc_vocab, Role.LARGE_CLOUD, ["A"]))
        slm = path_backend(abc_vocab, Role.SMALL_DEVICE, ["A"])
        sampling = SamplingConfig(greedy=True, max_new_tokens=4)
        session = session_for_record(
            simple_record, DecodeMode.llm_with_context(), sampling, slm, llm
        )
        result, trace = traced_decode(session)
        assert result.token_ids
        assert all(r.context_upload_waiver for r in llm.requests)
        assert all(s.w == 0.0 for s in trace.steps)

    def test_a_sparse_backend_traces_its_own_top1_in_either_single_backend_step(
        self, abc_vocab, simple_record
    ):
        # Both steps pick from the sparse reply spread over the vocabulary,
        # and each row holds the reply's own top-1, 0.3, not the spread
        # copy's 0.6.
        slm = SparseBackend(abc_vocab)
        sampling = SamplingConfig(seed=5, max_new_tokens=8)
        single = WeightTrace(mode="single", seed=sampling.seed)
        tokens = decode_single(slm, (simple_record.task, simple_record.context_bundle()), sampling, trace=single)
        result, fused = traced_decode(session_for_record(simple_record, DecodeMode.slm_only(), sampling, slm))
        assert tokens == list(result.token_ids) and {abc_vocab.token(t) for t in tokens} == {"A", "B"}
        assert [s.p_s_top1 for s in single.steps] == [0.3] * len(tokens)
        assert single.steps == fused.steps

    def test_sketch_parses_from_a_large_backend_without_a_kind(self, simple_record):
        # The draft is parsed from its text alone, so a double that only
        # answers next_distribution drafts a usable sketch.
        vocab = Vocab(tokens=("1.", "A", "B", "</s>", "<unk>"), eos_id=3, unk_id=4)
        slm = path_backend(vocab, Role.SMALL_DEVICE, ["A", "B"])
        llm = CountingBackend(path_backend(vocab, Role.LARGE_CLOUD, ["1.", "A"]))
        assert not hasattr(llm, "kind")
        result = decode(make_session(simple_record, DecodeMode.sketch(), slm, llm))
        assert result.sketch.points == ("A",)
        assert [vocab.token(t) for t in result.token_ids] == ["A", "B"]


class TestTransportPolicy:
    def test_abort_raises_session_error_with_partial_trace(self, abc_vocab, simple_record):
        slm = path_backend(abc_vocab, Role.SMALL_DEVICE, ["A", "B", "C"])
        llm = FlakyBackend(path_backend(abc_vocab, Role.LARGE_CLOUD, ["A", "B", "D"]), 2)
        session = make_session(simple_record, DecodeMode.fusion(FusionStrategy.fixed(1.0)), slm, llm)
        trace = session_trace(session)
        with pytest.raises(SessionError) as err:
            decode(session, on_transport_error="abort", trace=trace)
        assert len(trace.steps) == 2
        assert "failed at step 3:" in str(err.value)

    def test_degrade_finishes_on_small_model(self, abc_vocab, simple_record):
        slm = path_backend(abc_vocab, Role.SMALL_DEVICE, ["A", "B", "C"])
        llm = FlakyBackend(path_backend(abc_vocab, Role.LARGE_CLOUD, ["A", "B", "D"]), 2)
        session = make_session(simple_record, DecodeMode.fusion(FusionStrategy.fixed(1.0)), slm, llm)
        result, trace = traced_decode(session, on_transport_error="degrade")
        assert [abc_vocab.token(t) for t in result.token_ids] == ["A", "B", "C"]
        assert trace.events
        assert trace.steps[-1].w == 1.0

    @pytest.mark.parametrize("policy", ["abort", "degrade"])
    def test_every_attempted_large_read_is_audited_first(self, abc_vocab, simple_record, policy):
        # The third read fails: its payload is recorded before the call and
        # is the last one; a degraded session reads the large side no more.
        slm = path_backend(abc_vocab, Role.SMALL_DEVICE, ["A", "B", "C"])
        llm = FlakyBackend(path_backend(abc_vocab, Role.LARGE_CLOUD, ["A", "B", "D"]), 2)
        log = AuditLog()
        mode = DecodeMode.fusion(FusionStrategy.fixed(1.0))
        session = make_session(simple_record, mode, slm, AuditedBackend(llm, log))
        if policy == "abort":
            with pytest.raises(SessionError):
                decode(session, on_transport_error=policy)
        else:
            decode(session, on_transport_error=policy)
        assert llm.calls == 3
        prefixes = [(), (0,), (0, 1)]  # A, then A B
        assert [r.payload for r in log.records] == [
            payload_for_input(simple_record.llm_task, prefix) for prefix in prefixes
        ]

    @pytest.mark.parametrize("policy", ["abort", "degrade"])
    @pytest.mark.parametrize("mode", [DecodeMode.llm_no_context(), DecodeMode.llm_with_context()])
    def test_llm_only_aborts_under_either_policy(self, abc_vocab, simple_record, policy, mode):
        # No small model to fall back to: the failure is a session error
        # carrying the two tokens emitted before it.
        slm = path_backend(abc_vocab, Role.SMALL_DEVICE, ["A", "B", "C"])
        llm = FlakyBackend(path_backend(abc_vocab, Role.LARGE_CLOUD, ["A", "B", "D"]), 2)
        session = make_session(simple_record, mode, slm, llm)
        trace = session_trace(session)
        with pytest.raises(SessionError) as err:
            decode(session, on_transport_error=policy, trace=trace)
        assert isinstance(err.value.__cause__, TransportError)
        assert [s.token for s in trace.steps] == ["A", "B"]
        assert all(s.w == 0.0 for s in trace.steps)
        assert "failed at step 3:" in str(err.value)

    @pytest.mark.parametrize("policy", ["abort", "degrade"])
    def test_remote_generate_failure_is_a_session_error(self, abc_vocab, simple_record, policy):
        slm = path_backend(abc_vocab, Role.SMALL_DEVICE, ["A"])
        llm = FlakyRemoteBackend(path_backend(abc_vocab, Role.LARGE_CLOUD, ["A"]), 0)
        session = make_session(simple_record, DecodeMode.llm_no_context(), slm, llm)
        trace = session_trace(session)
        with pytest.raises(SessionError) as err:
            decode(session, on_transport_error=policy, trace=trace)
        assert isinstance(err.value.__cause__, TransportError)
        assert trace.steps == []
        assert "failed at step 1:" in str(err.value)

    @pytest.mark.parametrize("policy", ["abort", "degrade"])
    @pytest.mark.parametrize("conditioning", ["sketch", "full_content"])
    def test_sketch_draft_failure_aborts_under_either_policy(
        self, abc_vocab, simple_record, policy, conditioning
    ):
        # The large model drops mid-draft; the fill never starts.
        slm = path_backend(abc_vocab, Role.SMALL_DEVICE, ["A", "B", "C"])
        llm = FlakyBackend(path_backend(abc_vocab, Role.LARGE_CLOUD, ["A", "B", "D"]), 1)
        session = make_session(simple_record, DecodeMode.sketch(conditioning), slm, llm)
        trace = session_trace(session)
        with pytest.raises(SessionError) as err:
            decode(session, on_transport_error=policy, trace=trace)
        assert isinstance(err.value.__cause__, TransportError)
        assert trace.steps == []
        assert llm.calls == 2
        # The draft failed at its own second step; the session had not begun.
        assert "failed at step 1:" in str(err.value)


class TestTeacherForcedScoring:
    def test_slm_only_matches_perplexity_helper(self, world0, world0_backends):
        llm, slms = world0_backends
        tok = world0.tokenizer
        record = world0.test_records[0]
        ids = tok.tokenize(record.reference) + [tok.vocab.eos_id]
        direct = perplexity(
            slms[record.user_id], ids, instruction=record.task, context=record.context_bundle()
        )
        helper = fused_teacher_forced_ppl(
            slms[record.user_id], llm, record, tok, strategy=None
        )
        assert helper == pytest.approx(direct, rel=1e-12)

    def test_fusion_improves_over_small_alone(self, world0, world0_backends):
        llm, slms = world0_backends
        tok = world0.tokenizer
        alone, fused = [], []
        for record in world0.test_records:
            slm = slms[record.user_id]
            alone.append(fused_teacher_forced_ppl(slm, llm, record, tok, None))
            fused.append(fused_teacher_forced_ppl(slm, llm, record, tok, FusionStrategy.mean()))
        assert sum(fused) / len(fused) < sum(alone) / len(alone)

    @pytest.mark.parametrize("first_k", [0, 1, 3, 4, 10])
    def test_first_k_limits_large_queries(self, path_backends, simple_record, abc_vocab, first_k):
        slm, llm = path_backends
        counting = CountingBackend(llm)
        ppl = fused_teacher_forced_ppl(
            slm, counting, simple_record, Tokenizer(abc_vocab),
            FusionStrategy.mean(), first_k=first_k,
        )
        assert ppl < float("inf")
        positions = len(simple_record.reference.split()) + 1
        expected = min(first_k, positions)
        assert [len(r.prefix_ids) for r in counting.requests] == list(range(expected))
        assert all(r.instruction == simple_record.general_task for r in counting.requests)
        assert all(r.context is None for r in counting.requests)

    @pytest.mark.parametrize("first_k", [None, 1], ids=["fused", "first-k-tail"])
    def test_a_reference_token_outside_the_support_scores_infinite(
        self, path_backends, simple_record, abc_vocab, first_k
    ):
        # After "A B" the small side says C and the large side D, each with
        # probability 1, so the reference's last A has none: at a fused
        # position, and past first_k, where the small side scores alone.
        slm, llm = path_backends
        record = replace(simple_record, reference="A B A")
        ppl = fused_teacher_forced_ppl(
            slm, llm, record, Tokenizer(abc_vocab), FusionStrategy.mean(), first_k=first_k
        )
        assert ppl == math.inf

    def test_small_alone_never_queries_large(self, path_backends, simple_record, abc_vocab):
        slm, llm = path_backends
        counting = CountingBackend(llm)
        fused_teacher_forced_ppl(
            slm, counting, simple_record, Tokenizer(abc_vocab), None, first_k=3
        )
        assert counting.requests == []

    def test_a_pair_of_vocabularies_that_differ_is_refused(self, world0, world0_backends):
        # A large n-gram over world 0's tokens in reverse order: as many ids
        # as the small side's, each naming another token. A walk that reads
        # the large side refuses it, as a fused session does; the small side
        # alone still scores.
        _, slms = world0_backends
        tokens = world0.vocab.tokens[::-1]
        eos, unk = (world0.vocab.token(i) for i in (world0.vocab.eos_id, world0.vocab.unk_id))
        reordered = Vocab(tokens=tokens, eos_id=tokens.index(eos), unk_id=tokens.index(unk))
        llm = NGramBackend(train_ngram(world0.llm_corpus, n=3, alpha=0.02, vocab=reordered), Role.LARGE_CLOUD)
        record = world0.train_records[0]
        slm, tok = slms[record.user_id], world0.tokenizer
        with pytest.raises(IncompatibleVocabError, match="share one vocabulary"):
            harvest_examples(slm, llm, [record], tok)
        with pytest.raises(IncompatibleVocabError, match="share one vocabulary"):
            fused_teacher_forced_ppl(slm, llm, record, tok, FusionStrategy.mean())
        with pytest.raises(IncompatibleVocabError, match="share one vocabulary"):
            fused_teacher_forced_ppl(slm, llm, record, tok, FusionStrategy.mean(), first_k=1)
        assert fused_teacher_forced_ppl(slm, llm, record, tok, None) < math.inf

    def test_a_negative_first_k_is_refused(self, path_backends, simple_record, abc_vocab):
        # As DecodeMode refuses one, rather than scoring the small side
        # alone behind a large side that was opened and never read.
        slm, llm = path_backends
        tok = Tokenizer(abc_vocab)
        with pytest.raises(InvalidConfigError, match="first_k"):
            fused_teacher_forced_ppl(slm, llm, simple_record, tok, FusionStrategy.mean(), first_k=-1)
        with pytest.raises(InvalidConfigError, match="first_k"):
            next(teacher_forced_steps(slm, llm, simple_record, tok, fused_limit=-1))

    @pytest.mark.parametrize("first_k", [0, 1, 3, 4])
    def test_scoring_sends_the_large_side_what_a_decode_of_the_reference_sends(
        self, abc_vocab, simple_record, first_k
    ):
        # Both sides spell the reference, so a greedy fused decode emits it
        # and then EOS, the positions the walk scores. The windows: empty,
        # one step, the reference's tokens, and those with the EOS.
        path = simple_record.reference.split()
        assert first_k in (0, 1, len(path), len(path) + 1)
        slm = path_backend(abc_vocab, Role.SMALL_DEVICE, path)
        decoded = CountingBackend(path_backend(abc_vocab, Role.LARGE_CLOUD, path))
        scored = CountingBackend(path_backend(abc_vocab, Role.LARGE_CLOUD, path))
        tok, strategy = Tokenizer(abc_vocab), FusionStrategy.mean()
        session = make_session(simple_record, DecodeMode.first_k_mode(first_k, strategy), slm, decoded)
        assert decode(session).text(tok) == simple_record.reference
        fused_teacher_forced_ppl(slm, scored, simple_record, tok, strategy, first_k=first_k)
        assert scored.requests == decoded.requests
        assert len(decoded.requests) == min(first_k, len(path) + 1)

    def test_scoring_and_harvest_over_the_wire_match_in_process(self, world0, world0_backends):
        """A loopback large side answers the walk with the top-k views of
        the in-process one: the same harvested example bytes and the same
        perplexity bits under each strategy."""
        llm, slms = world0_backends
        tok = world0.tokenizer

        def example_bytes(examples):
            return [
                (ex.x.tobytes(), [a.hex() for a in ex.a], [b.hex() for b in ex.b], ex.y, ex.target_id)
                for ex in examples
            ]

        scorers = [
            (FusionStrategy.mean(), None),
            (FusionStrategy.max_pool(), 3),
            (FusionStrategy.learnable(comb_init(0)), None),
        ]
        with serve(large_backend(world0), ("127.0.0.1", 0)) as handle:
            client = ServiceClient(handle.address)
            try:
                remote = RemoteBackend(client, world0.vocab, top_k=10)
                for record in world0.train_records[:4]:
                    slm = slms[record.user_id]
                    here, here_stats = harvest_examples(slm, llm, [record], tok)
                    there, there_stats = harvest_examples(slm, remote, [record], tok)
                    assert here and example_bytes(there) == example_bytes(here)
                    assert there_stats == here_stats
                for record in world0.test_records[:5]:
                    slm = slms[record.user_id]
                    for strategy, first_k in scorers:
                        args = (record, tok, strategy, first_k)
                        ppl = fused_teacher_forced_ppl(slm, llm, *args)
                        assert fused_teacher_forced_ppl(slm, remote, *args).hex() == ppl.hex()
            finally:
                client.close()

    def test_harvest_queries_large_at_every_position(self, world0, world0_backends):
        llm, slms = world0_backends
        counting = CountingBackend(llm)
        record = world0.train_records[0]
        harvest_examples(slms[record.user_id], counting, [record], world0.tokenizer)
        positions = len(world0.tokenizer.tokenize(record.reference)) + 1
        assert [len(r.prefix_ids) for r in counting.requests] == list(range(positions))


class SharedLogBackend:
    """Only ``next_distribution``, like perfbench's timing wrapper: every
    request it receives goes into a log shared with the other side, and
    with ``fail_after`` set, its later requests fail in transport."""

    def __init__(self, inner, name, log, fail_after=None):
        self.inner, self.name, self.log, self.fail_after = inner, name, log, fail_after
        self.vocab, self.role = inner.vocab, inner.role
        self.calls = 0

    def next_distribution(self, request):
        self.log.append((self.name, request))
        self.calls += 1
        if self.fail_after is not None and self.calls > self.fail_after:
            raise TransportError("injected connection drop")
        return self.inner.next_distribution(request)


def request_log_digest(log):
    h = hashlib.sha256()
    for name, r in log:
        context = None if r.context is None else asdict(r.context)
        row = [name, r.instruction, list(r.prefix_ids), context, r.receiver_role.value,
               r.context_upload_waiver]
        h.update((json.dumps(row, sort_keys=True) + "\n").encode())
    return h.hexdigest()


CURSOR_MODES = [
    DecodeMode.slm_only(),
    DecodeMode.llm_with_context(),
    DecodeMode.llm_no_context(),
    DecodeMode.fusion(FusionStrategy.mean()),
    DecodeMode.fusion(FusionStrategy.learnable(comb_init(0))),
    DecodeMode.first_k_mode(3, FusionStrategy.max_pool()),
    DecodeMode.sketch(),
    DecodeMode.sketch("full_content"),
]


class TestCursorRequests:
    """Backends without a native cursor see the requests they saw before
    decoding moved to cursors. The digests were taken from the decoder
    that built one ``ConditioningInput`` per backend per step."""

    def test_request_sequence_is_unchanged(self, world0, world0_backends):
        llm, slms = world0_backends
        log = []
        for record in world0.test_records[:3]:
            slm = SharedLogBackend(slms[record.user_id], "slm", log)
            for mode in CURSOR_MODES:
                for greedy in (False, True):
                    sampling = SamplingConfig(seed=5, max_new_tokens=20, greedy=greedy)
                    session = session_for_record(
                        record, mode, sampling, slm, SharedLogBackend(llm, "llm", log)
                    )
                    try:
                        decode(session)
                    except CogenError:
                        pass
            flaky = SharedLogBackend(llm, "llm-flaky", log, fail_after=2)
            session = session_for_record(
                record, DecodeMode.fusion(FusionStrategy.mean()),
                SamplingConfig(seed=5, max_new_tokens=20), slm, flaky,
            )
            decode(session, on_transport_error="degrade")
        for record in world0.train_records[:3]:
            harvest_examples(
                SharedLogBackend(slms[record.user_id], "slm", log),
                SharedLogBackend(llm, "llm", log),
                [record],
                world0.tokenizer,
            )
        assert len(log) == 1303
        # Re-pinned when ContextBundle lost its never-filled activities
        # field; the decoder before that cut gives this digest with the
        # empty key dropped from every context.
        assert request_log_digest(log) == (
            "07b2cd9f1fb2f2e5149b94957563a53e6fbde9db0e519322c1dab67081b8c0e5"
        )

    def test_audited_payloads_are_unchanged(self, world0, world0_backends):
        llm, slms = world0_backends
        audit = AuditLog()
        # slm-only and llm-with-context audit nothing, so the count and
        # digest are those of the other four modes.
        modes = (
            DecodeMode.slm_only(),
            DecodeMode.fusion(FusionStrategy.mean()),
            DecodeMode.first_k_mode(3, FusionStrategy.mean()),
            DecodeMode.llm_no_context(),
            DecodeMode.llm_with_context(),
            DecodeMode.sketch(),
        )
        for record in world0.test_records[:3]:
            for mode in modes:
                sampling = SamplingConfig(seed=5, max_new_tokens=20)
                session = session_for_record(
                    record, mode, sampling, slms[record.user_id], AuditedBackend(llm, audit)
                )
                try:
                    decode(session)
                except CogenError:
                    pass
        h = hashlib.sha256()
        for rec in audit.records:
            h.update(rec.kind.encode() + b"\0" + rec.payload + b"\n")
        assert len(audit.records) == 237
        assert h.hexdigest() == "0992bb0424f57260bd8d66611620f73f552977cd7ef36fa827ee4718dba4e2c9"


if __name__ == "__main__":
    import tempfile

    comb, worlds = comb_init(0), trace_worlds()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        digests = {
            name: hashlib.sha256(trace_bytes(name, comb, worlds, path)).hexdigest()
            for name in TRACE_PINNED
        }
    TRACE_GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {TRACE_GOLDEN}")
