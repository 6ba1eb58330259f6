"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in captured output). Run the whole gate with:

    pytest tests/test_acceptance.py -v -s
"""

import functools
import math
import time

import numpy as np
import pytest

from cogen.audit import AuditLog, privacy_audit
from cogen.backends import ConditioningInput, Role
from cogen.combmodel import (
    CombTrainConfig,
    comb_forward,
    comb_grad,
    comb_init,
    comb_loss,
    comb_train,
    harvest_examples,
    padded_top_probs,
)
from cogen.core import SamplingConfig, TokenDistribution, top_k_project
from cogen.corpus import CorpusRecord, filter_lamp, split_train_val
from cogen.decoder import (
    DecodeMode,
    decode,
    fused_teacher_forced_ppl,
    session_for_record,
)
from cogen.fusion import FusionStrategy, align_supports, fuse
from cogen.prompting import (
    build_judge_prompt,
    build_request_prompt,
    build_sketch_prompt,
)
from cogen.report import bleu, render_weight_trace, rouge_l
from cogen.rng import Splitmix64
from cogen.service import RemoteBackend, ServeConfig, ServiceClient, serve
from cogen.synthetic import build_world, large_backend, small_backends

from golden_fixtures import CONTEXT_RECORD, EMAIL_RECORD, JUDGE_ANSWER, PAPER_RECORD
from helpers import one_sided_examples, path_backend, perturbed_params, random_comb_example
from test_report import make_trace, oracle_bleu, oracle_lcs, random_tokens


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:>2} FAIL  {title}")
                raise
            print(f"\nACCEPTANCE {number:>2} PASS  {title}")

        return wrapper

    return decorate


def _random_dense_pair(rng: np.random.Generator):
    size = int(rng.integers(2, 65))
    a = rng.random(size)
    b = rng.random(size)
    return TokenDistribution.dense(a / a.sum()), TokenDistribution.dense(b / b.sum())


@criterion(1, "fusion correctness over 10000 random pairs, all strategies")
def test_criterion_1_fusion_correctness():
    rng = np.random.default_rng(1)
    comb = comb_init(0)
    strategies = [
        FusionStrategy.fixed(float(rng.random())),
        FusionStrategy.mean(),
        FusionStrategy.max_pool(),
        FusionStrategy.learnable(comb),
    ]
    started = time.monotonic()
    for _ in range(10_000):
        p_s, p_l = _random_dense_pair(rng)
        pair = align_supports(p_s, p_l)
        for strategy in strategies:
            w_override = None
            if strategy.kind == "learnable":
                w_override = comb_forward(
                    comb,
                    padded_top_probs(top_k_project(p_l, 10)),
                    padded_top_probs(top_k_project(p_s, 10)),
                )
            fused, _ = fuse(pair, strategy, w_override=w_override)
            assert abs(fused.mass - 1.0) < 1e-9
        one, _ = fuse(pair, FusionStrategy.fixed(1.0))
        zero, _ = fuse(pair, FusionStrategy.fixed(0.0))
        assert np.array_equal(one.dense_probs, p_s.dense_probs)
        assert np.array_equal(zero.dense_probs, p_l.dense_probs)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"fusion sweep took {elapsed:.2f}s (budget 5s)"


@criterion(2, "analytic gradient matches central finite differences")
def test_criterion_2_gradient_check():
    rng = np.random.default_rng(2)
    h = 1e-5
    started = time.monotonic()

    def check_component(params, ex, grads, t_idx, flat_index):
        plus = [np.array(a) for a in params.arrays()]
        plus[t_idx].ravel()[flat_index] += h
        minus = [np.array(a) for a in params.arrays()]
        minus[t_idx].ravel()[flat_index] -= h
        lp = comb_loss(_rebuild(plus), ex)
        lm = comb_loss(_rebuild(minus), ex)
        fd = (lp - lm) / (2 * h)
        analytic = grads[t_idx].ravel()[flat_index]
        rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6)
        assert rel < 1e-4, f"tensor {t_idx} component {flat_index}: rel err {rel:.2e}"

    # 100 pairs with sampled components from every tensor, plus two pairs
    # checked on every single component
    for trial in range(100):
        params = perturbed_params(comb_init(trial), rng)
        ex = random_comb_example(rng)
        grads = list(comb_grad(params, ex).arrays())
        for t_idx, garr in enumerate(grads):
            count = garr.size if trial < 2 else min(3, garr.size)
            if trial < 2:
                indices = range(garr.size)
            else:
                indices = rng.choice(garr.size, size=count, replace=False)
            for flat_index in indices:
                check_component(params, ex, grads, t_idx, int(flat_index))
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"gradient check took {elapsed:.2f}s (budget 30s)"


def _rebuild(arrays):
    from cogen.combmodel import CombModelParams

    return CombModelParams(
        w1=arrays[0], b1=arrays[1], w2=arrays[2], b2=arrays[3], w3=arrays[4], b3=arrays[5],
    )


@criterion(3, "learnable weight specializes on the one-sided tasks")
def test_criterion_3_learning_sanity():
    started = time.monotonic()
    config = CombTrainConfig()
    assert config.learning_rate == 2e-3 and config.batch_size == 2
    for mirrored in (False, True):
        train = one_sided_examples(11, 300, mirrored=mirrored)
        val = one_sided_examples(12, 60, mirrored=mirrored)
        params, report = comb_train(train, val, CombTrainConfig(seed=5))
        ws = [comb_forward(params, ex.top10_l, ex.top10_s) for ex in val]
        mean_w = sum(ws) / len(ws)
        if mirrored:
            assert mean_w < 0.1, f"mirrored mean w = {mean_w:.4f}"
        else:
            assert mean_w > 0.9, f"mean w = {mean_w:.4f}"

        def endpoint_nll(w_fixed):
            total = 0.0
            for ex in val:
                y = ex.y
                p = w_fixed * ex.a[y] + (1 - w_fixed) * ex.b[y]
                total -= math.log(max(p, 1e-300))
            return total / len(val)

        best_endpoint = min(endpoint_nll(1.0), endpoint_nll(0.0))
        assert report.best_val_loss <= best_endpoint + 0.01
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"learning sanity took {elapsed:.2f}s (budget 60s)"


def _strategy_ppls(world, llm, slms, seed):
    """Held-out mean perplexity per system on one synthetic world."""
    tok = world.tokenizer
    examples = []
    for record in world.train_records:
        harvested, _ = harvest_examples(slms[record.user_id], llm, [record], tok)
        examples.extend(harvested)
    cut = int(0.9 * len(examples))
    comb, _ = comb_train(examples[:cut], examples[cut:], CombTrainConfig(seed=seed))

    def mean_ppl(strategy):
        values = [
            fused_teacher_forced_ppl(slms[r.user_id], llm, r, tok, strategy)
            for r in world.test_records
        ]
        return sum(values) / len(values)

    def single_ppl(use_context):
        values = []
        for r in world.test_records:
            ids = tok.tokenize(r.reference) + [tok.vocab.eos_id]
            backend = slms[r.user_id] if use_context else llm
            instruction = r.task if use_context else r.general_task
            context = r.context_bundle() if use_context else None
            nll = 0.0
            for i, target in enumerate(ids):
                dist = backend.next_distribution(
                    ConditioningInput(instruction, tuple(ids[:i]), context, backend.role)
                )
                p = dist.prob_of(target)
                nll -= math.log(max(p, 1e-300))
            values.append(math.exp(nll / len(ids)))
        return sum(values) / len(values)

    return {
        "slm": single_ppl(True),
        "llm": single_ppl(False),
        "mean": mean_ppl(FusionStrategy.mean()),
        "max": mean_ppl(FusionStrategy.max_pool()),
        "learnable": mean_ppl(FusionStrategy.learnable(comb)),
    }


@criterion(4, "held-out perplexity ordering: learnable best, fusion beats singles")
def test_criterion_4_strategy_ordering():
    passing = 0
    for seed in range(5):
        world = build_world(seed)
        llm = large_backend(world)
        slms = small_backends(world)
        ppl = _strategy_ppls(world, llm, slms, seed)
        best_single = min(ppl["slm"], ppl["llm"])
        ok = (
            ppl["learnable"] <= ppl["max"]
            and ppl["learnable"] <= ppl["mean"]
            and all(ppl[k] <= best_single for k in ("mean", "max", "learnable"))
        )
        passing += ok
    assert passing >= 4, f"ordering held on only {passing}/5 seeds"


@criterion(5, "first-k degeneracies and monotone prefix-perplexity trend")
def test_criterion_5_first_k():
    grid = (0, 2, 4, 8)
    curves = []
    for seed in range(5):
        world = build_world(seed)
        llm = large_backend(world)
        slms = small_backends(world)
        tok = world.tokenizer

        record = world.test_records[0]
        slm = slms[record.user_id]
        for decode_seed in (seed, seed + 50):
            sampling = SamplingConfig(seed=decode_seed, max_new_tokens=24)
            zero = decode(session_for_record(
                record, DecodeMode.first_k_mode(0, FusionStrategy.mean()), sampling, slm, llm))
            alone = decode(session_for_record(
                record, DecodeMode.slm_only(), sampling, slm))
            assert zero.token_ids == alone.token_ids
            big = decode(session_for_record(
                record,
                DecodeMode.first_k_mode(sampling.max_new_tokens, FusionStrategy.mean()),
                sampling, slm, llm))
            full = decode(session_for_record(
                record, DecodeMode.fusion(FusionStrategy.mean()), sampling, slm, llm))
            assert big.token_ids == full.token_ids

        curve = []
        for n in grid:
            values = [
                fused_teacher_forced_ppl(
                    slms[r.user_id], llm, r, tok, FusionStrategy.mean(), first_k=n
                )
                for r in world.test_records
            ]
            curve.append(sum(values) / len(values))
        curves.append(curve)
    averaged = [sum(c[i] for c in curves) / len(curves) for i in range(len(grid))]
    for earlier, later in zip(averaged, averaged[1:]):
        assert later <= earlier + 1e-9, f"prefix-perplexity curve not monotone: {averaged}"


@criterion(6, "remote and in-process decoding agree token for token")
def test_criterion_6_split_equivalence():
    started = time.monotonic()
    world = build_world(7)
    llm = large_backend(world)
    slms = small_backends(world)
    comb = comb_init(0)
    handle = serve(llm, ("127.0.0.1", 0), ServeConfig())
    sessions = 0
    try:
        client = ServiceClient(handle.address, session_id="acceptance-6")
        remote_llm = RemoteBackend(client, world.vocab, top_k=10)
        rng = Splitmix64(6)
        strategies = [
            FusionStrategy.fixed(0.25),
            FusionStrategy.fixed(0.75),
            FusionStrategy.mean(),
            FusionStrategy.max_pool(),
            FusionStrategy.learnable(comb),
        ]
        while sessions < 50:
            record = world.test_records[rng.next_below(len(world.test_records))]
            strategy = strategies[rng.next_below(len(strategies))]
            if rng.next_below(2):
                mode = DecodeMode.fusion(strategy)
            else:
                mode = DecodeMode.first_k_mode(rng.next_below(12), strategy)
            sampling = SamplingConfig(seed=rng.next_below(1 << 32), max_new_tokens=20)
            slm = slms[record.user_id]
            local = decode(session_for_record(record, mode, sampling, slm, llm))
            remote = decode(session_for_record(record, mode, sampling, slm, remote_llm))
            assert local.token_ids == remote.token_ids
            assert local.trace.steps == remote.trace.steps
            sessions += 1
        client.close()
    finally:
        handle.stop()
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"{sessions} sessions took {elapsed:.2f}s (budget 60s)"


@criterion(7, "privacy audit passes on honest sessions and flags planted leaks")
def test_criterion_7_privacy_audit():
    world = build_world(9)
    llm = large_backend(world)
    slms = small_backends(world)
    handle = serve(llm, ("127.0.0.1", 0), ServeConfig(capture_payloads=True))
    try:
        client = ServiceClient(handle.address, session_id="acceptance-7")
        remote_llm = RemoteBackend(client, world.vocab, top_k=10)
        in_process_log = AuditLog()
        for i, record in enumerate(world.test_records[:4]):
            slm = slms[record.user_id]
            sampling = SamplingConfig(seed=i, max_new_tokens=12)
            decode(
                session_for_record(
                    record, DecodeMode.fusion(FusionStrategy.mean()), sampling, slm, remote_llm
                ),
            )
            decode(
                session_for_record(
                    record, DecodeMode.first_k_mode(3, FusionStrategy.mean()), sampling, slm, llm
                ),
                audit_log=in_process_log,
            )
        sketch_log = AuditLog()
        from cogen.decoder import run_sketch_then_fill
        from cogen.backends import TableBackend
        from cogen.tokenizer import build_vocab

        texts = ["1. alpha\\n2. beta", "opening about alpha closing"]
        vocab = build_vocab(texts)
        sk_llm = path_backend(vocab, Role.LARGE_CLOUD, ["1.", "alpha\\n2.", "beta"])
        sk_slm = TableBackend(
            vocab, Role.SMALL_DEVICE,
            keyed=[("alpha", TableBackend.path_rules(vocab, ["opening", "about", "alpha", "closing"]))],
        )
        run_sketch_then_fill(
            sk_llm, sk_slm, CONTEXT_RECORD, SamplingConfig(greedy=True, max_new_tokens=8),
            audit_log=sketch_log,
        )

        for record in world.test_records[:4]:
            assert privacy_audit(handle.service.request_log, record.context_bundle()).passed
            assert privacy_audit(in_process_log, record.context_bundle()).passed
        assert privacy_audit(sketch_log, CONTEXT_RECORD.context_bundle()).passed

        # planted leak: profile text smuggled into the instruction field
        leak_record = world.test_records[0]
        client.next_logits(
            f"{leak_record.general_task} {leak_record.profile}", (), 10, world.vocab.size
        )
        verdict = privacy_audit(handle.service.request_log, leak_record.context_bundle())
        assert not verdict.passed
        assert verdict.hits and verdict.hits[0].offset >= 0
        client.close()
    finally:
        handle.stop()


@criterion(8, "BLEU and ROUGE-L match brute-force oracles")
def test_criterion_8_metric_oracles():
    rng = Splitmix64(2024)
    for _ in range(200):
        cand = random_tokens(rng)
        refs = [random_tokens(rng) or ["x"]]
        assert bleu(cand, refs) == pytest.approx(oracle_bleu(cand, refs), abs=1e-9)
        ref = refs[0]
        got = rouge_l(cand, ref)
        lcs = oracle_lcs(cand, ref)
        p = lcs / len(cand) if cand else 0.0
        r = lcs / len(ref) if ref else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        assert got.f1 == pytest.approx(f, abs=1e-9)
    identity = "a b c d e".split()
    assert bleu(identity, [identity]) == 1.0
    assert rouge_l(identity, identity).f1 == 1.0


@criterion(9, "prompt templates render byte-identically to the golden files")
def test_criterion_9_prompt_fidelity():
    from pathlib import Path

    goldens = Path(__file__).parent / "goldens"
    records = {"context_aware": CONTEXT_RECORD, "email": EMAIL_RECORD, "paper": PAPER_RECORD}
    for kind, record in records.items():
        for with_context in (True, False):
            rendered = build_request_prompt(record, with_context, kind)
            tag = "with_context" if with_context else "no_context"
            expected = (goldens / f"request_{kind}_{tag}.txt").read_text(encoding="utf-8")
            assert rendered.system + "\n<<<SYSTEM/USER>>>\n" + rendered.user == expected
        sketch = build_sketch_prompt(record.general_task, kind)
        assert sketch == (goldens / f"sketch_{kind}.txt").read_text(encoding="utf-8")
    for judge_kind in ("overall_with_profile", "overall_no_profile", "personalization"):
        rendered = build_judge_prompt(judge_kind, CONTEXT_RECORD, JUDGE_ANSWER)
        assert rendered == (goldens / f"judge_{judge_kind}.txt").read_text(encoding="utf-8")
    system = build_request_prompt(CONTEXT_RECORD, True, "context_aware").system
    assert "emulate the author's style and tone" in system
    assert "Generally, the skeleton should have 8-15 points" in build_sketch_prompt(
        "x", "context_aware"
    )


@criterion(10, "corpus length bounds and 9:1 split enforced exactly")
def test_criterion_10_corpus_rules():
    def email(i, n):
        return CorpusRecord(
            user_id=f"u{i}", dataset_kind="email", task=f"t{i}", reference="x" * n
        )

    def paper(i, n):
        return CorpusRecord(
            user_id=f"p{i}", dataset_kind="paper", task=f"t{i}", reference="y" * n
        )

    kept, _ = filter_lamp([email(0, 63), email(1, 64), email(2, 1024), email(3, 1025)], "email")
    assert [r.user_id for r in kept] == ["u1", "u2"]
    kept, _ = filter_lamp([paper(0, 127), paper(1, 128), paper(2, 1024), paper(3, 1025)], "paper")
    assert [r.user_id for r in kept] == ["p1", "p2"]

    records = [email(i, 100) for i in range(1000)]
    train, val = split_train_val(records, seed=3)
    assert len(train) == 900 and len(val) == 100
    assert {r.user_id for r in train}.isdisjoint({r.user_id for r in val})
    train10, val10 = split_train_val(records[:10], seed=3)
    assert len(train10) == 9 and len(val10) == 1


@criterion(11, "weight-trace rendering: white balance, full-hue endpoints, golden bytes")
def test_criterion_11_trace_rendering():
    from pathlib import Path

    html = render_weight_trace(make_trace([0.0, 0.25, 0.5, 0.75, 1.0]))
    golden = (Path(__file__).parent / "goldens" / "trace_render.html").read_text(encoding="utf-8")
    assert html == golden
    balanced = render_weight_trace(make_trace([0.5]))
    assert 'style="background-color:#ffffff"' in balanced
    endpoints = render_weight_trace(make_trace([1.0, 0.0]))
    assert "background-color:#1f56eb" in endpoints
    assert "background-color:#e03030" in endpoints
