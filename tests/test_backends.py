"""Table and n-gram backends, cursors, request privacy, perplexity scoring."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogen.backends import (
    ConditioningInput,
    ContextBundle,
    NGramBackend,
    RequestCursor,
    Role,
    TableBackend,
    open_cursor,
    train_ngram,
)
from cogen.errors import InvalidConfigError, InvalidInputError, PrivacyContractError
from cogen.tokenizer import build_vocab
from helpers import path_backend, perplexity


class TestConditioningInput:
    def test_context_blocked_for_large_cloud(self):
        ctx = ContextBundle(profile="secret profile text")
        with pytest.raises(PrivacyContractError):
            ConditioningInput("do things", (), ctx, Role.LARGE_CLOUD)

    def test_context_allowed_for_small_device(self):
        ctx = ContextBundle(profile="secret profile text")
        request = ConditioningInput("do things", (), ctx, Role.SMALL_DEVICE)
        assert request.context is ctx

    def test_empty_context_allowed_everywhere(self):
        request = ConditioningInput("do things", (), ContextBundle(), Role.LARGE_CLOUD)
        assert request.context is not None and not request.context

    def test_waiver_is_explicit(self):
        ctx = ContextBundle(profile="secret profile text")
        request = ConditioningInput(
            "do things", (), ctx, Role.LARGE_CLOUD, context_upload_waiver=True
        )
        assert request.context_upload_waiver


class TestTableBackend:
    def test_rule_lookup(self, abc_vocab):
        backend = TableBackend(abc_vocab, Role.SMALL_DEVICE, rules={("A",): {"B": 1.0}})
        dist = backend.next_distribution(ConditioningInput("x", (0,)))
        assert dist.dense_probs[abc_vocab.id_of("B")] == 1.0

    def test_path_automaton_ends_in_eos(self, abc_vocab):
        backend = path_backend(abc_vocab, Role.SMALL_DEVICE, ["A", "B"])
        d0 = backend.next_distribution(ConditioningInput("x", ()))
        d2 = backend.next_distribution(ConditioningInput("x", (0, 1)))
        assert d0.top1()[0] == abc_vocab.id_of("A")
        assert d2.top1()[0] == abc_vocab.eos_id

    def test_keyed_rules_select_by_instruction(self, abc_vocab):
        backend = TableBackend(
            abc_vocab,
            Role.SMALL_DEVICE,
            rules=TableBackend.path_rules(abc_vocab, ["A"]),
            keyed=[("magic words", TableBackend.path_rules(abc_vocab, ["D"]))],
        )
        plain = backend.next_distribution(ConditioningInput("nothing here", ()))
        keyed = backend.next_distribution(ConditioningInput("the magic words appear", ()))
        assert plain.top1()[0] == abc_vocab.id_of("A")
        assert keyed.top1()[0] == abc_vocab.id_of("D")

    def test_large_cloud_table_rejects_context(self, abc_vocab):
        backend = path_backend(abc_vocab, Role.LARGE_CLOUD, ["A"])
        request = ConditioningInput("x", (), ContextBundle(profile="p" * 20), Role.SMALL_DEVICE)
        with pytest.raises(PrivacyContractError):
            backend.next_distribution(request)

    def test_invalid_prefix_id(self, abc_vocab):
        backend = path_backend(abc_vocab, Role.SMALL_DEVICE, ["A"])
        with pytest.raises(InvalidInputError):
            backend.next_distribution(ConditioningInput("x", (99,)))

    @pytest.mark.parametrize("p", [math.nan, math.inf, -0.5])
    def test_unusable_rule_probability_rejected_at_construction(self, abc_vocab, p):
        with pytest.raises(InvalidConfigError, match="finite and non-negative"):
            TableBackend(abc_vocab, Role.SMALL_DEVICE, rules={(): {"A": 1.0, "B": p}})


class TestTrainNGram:
    def test_direct_count(self):
        model = train_ngram(["x x x"], n=2, alpha=1.0)
        x = model.vocab.id_of("x")
        assert model.counts[(x,)][x] == 2

    def test_retraining_is_byte_identical(self):
        corpus = ["a b a b a c", "b c a"]
        m1 = train_ngram(corpus, n=2, alpha=0.5)
        m2 = train_ngram(corpus, n=2, alpha=0.5)
        assert m1 == m2

    def test_smoothed_conditional_matches_hand_count(self):
        # bigrams of "a b a b a c": (a,b) x2, (b,a) x2, (a,c) x1, then the
        # appended end marker gives (c,</s>) x1; vocab is {a, b, c} + markers
        model = train_ngram(["a b a b a c"], n=2, alpha=1.0)
        vocab = model.vocab
        a, b = vocab.id_of("a"), vocab.id_of("b")
        dist = model.conditional([a])
        expected = (2 + 1.0) / (3 + vocab.size * 1.0)
        assert dist[b] == pytest.approx(expected, abs=1e-12)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_unseen_history_is_uniform(self):
        model = train_ngram(["a b"], n=2, alpha=1.0)
        c = model.vocab.id_of("<unk>")
        dist = model.conditional([c])
        assert np.allclose(dist, 1.0 / model.vocab.size)

    def test_conditionals_normalize_for_every_history(self):
        model = train_ngram(["a b a c b b a", "c c a"], n=3, alpha=0.25)
        for h1 in range(model.vocab.size):
            for h2 in range(model.vocab.size):
                assert model.conditional([h1, h2]).sum() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_empty_corpus(self):
        with pytest.raises(InvalidInputError):
            train_ngram([], n=2, alpha=1.0)
        with pytest.raises(InvalidInputError):
            train_ngram(["   "], n=2, alpha=1.0)

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(InvalidConfigError):
            train_ngram(["a b"], n=0, alpha=1.0)
        for alpha in (0.0, math.inf, math.nan):
            with pytest.raises(InvalidConfigError):
                train_ngram(["a b"], n=2, alpha=alpha)


class TestNGramBackend:
    def test_context_changes_prediction(self):
        vocab = build_vocab(["alpha beta", "alpha gamma"])
        model = train_ngram(["alpha beta"], n=2, alpha=0.1, vocab=vocab)
        backend = NGramBackend(model, Role.SMALL_DEVICE)
        plain = backend.next_distribution(ConditioningInput("alpha", ()))
        assert plain.top1()[0] == vocab.id_of("beta")

    def test_referential_transparency(self, world0, world0_backends):
        llm, _ = world0_backends
        record = world0.test_records[0]
        request = ConditioningInput(record.general_task, (1, 2), None, Role.LARGE_CLOUD)
        d1 = llm.next_distribution(request)
        d2 = llm.next_distribution(request)
        assert np.array_equal(d1.dense_probs, d2.dense_probs)


class TestNGramConditioning:
    """Only the last n-1 ids of instruction + context + prefix reach the model."""

    def test_full_prefix_ignores_instruction_and_context(self, world0, world0_backends):
        record = world0.test_records[0]
        slm = world0_backends[1][record.user_id]
        prefix = (3, 7)  # the small model is a bigram: one id fills its window
        assert slm.model.n == 2
        variants = [
            ConditioningInput(record.task, prefix, record.context_bundle()),
            ConditioningInput("", prefix, None),
            ConditioningInput("some other instruction", prefix, ContextBundle(profile="x y z")),
        ]
        expected = slm.model.conditional(list(prefix))
        for request in variants:
            got = slm.next_distribution(request).dense_probs
            assert got.tobytes() == expected.tobytes()

    def test_short_prefix_still_reads_context(self):
        model = train_ngram(["a b c", "x b d"], n=3, alpha=0.1)
        backend = NGramBackend(model, Role.SMALL_DEVICE)
        vocab = model.vocab
        prefix = (vocab.id_of("b"),)  # one id short of the trigram window
        plain = backend.next_distribution(ConditioningInput("a", prefix))
        with_ctx = backend.next_distribution(
            ConditioningInput("a", prefix, ContextBundle(profile="x"))
        )
        assert plain.top1()[0] == vocab.id_of("c")
        assert with_ctx.top1()[0] == vocab.id_of("d")
        full = (vocab.id_of("x"), vocab.id_of("b"))
        assert (
            backend.next_distribution(ConditioningInput("a", full)).dense_probs.tobytes()
            == backend.next_distribution(
                ConditioningInput("q", full, ContextBundle(profile="a"))
            ).dense_probs.tobytes()
        )

    def test_empty_prefix_reads_context(self):
        model = train_ngram(["alpha beta", "gamma delta"], n=2, alpha=0.1)
        backend = NGramBackend(model, Role.SMALL_DEVICE)
        vocab = model.vocab
        plain = backend.next_distribution(ConditioningInput("alpha", ()))
        with_ctx = backend.next_distribution(
            ConditioningInput("alpha", (), ContextBundle(history=("gamma",)))
        )
        assert plain.top1()[0] == vocab.id_of("beta")
        assert with_ctx.top1()[0] == vocab.id_of("delta")

    @pytest.mark.parametrize("n", [2, 3])
    def test_fields_before_the_window_are_never_read(self, n):
        """The window is read from the stream's end: a field it does not
        reach is not split, measured or even truth-tested."""

        class Unread(str):
            def _read(self, *args):
                raise AssertionError(f"read {str(self)!r} before the window")

            __len__ = __iter__ = split = rsplit = _read

        model = train_ngram(CURSOR_TEXTS, n=n, alpha=0.1)
        backend = NGramBackend(model, Role.SMALL_DEVICE)
        # Instruction, profile, then history. Each of the last items holds
        # one piece, so the trigram's window crosses into the item before.
        fields = ("a b c", "x b", "c d", "b", "a")
        guarded = [Unread(f) for f in fields[: 1 - n]] + list(fields[1 - n :])
        plain = ContextBundle(profile=fields[1], history=fields[2:])
        context = ContextBundle(profile=guarded[1], history=tuple(guarded[2:]))
        want = backend.open(fields[0], plain).distribution()
        assert backend.open(guarded[0], context).distribution() is want
        request = ConditioningInput(guarded[0], (), context)
        assert backend.next_distribution(request) is want

    def test_large_cloud_given_context_still_raises(self, world0_backends):
        llm, _ = world0_backends
        # Addressed to the small side, so the request itself builds; the
        # prefix fills the window, so the context would never be read.
        request = ConditioningInput(
            "hello", (1, 2, 3), ContextBundle(profile="secret"), Role.SMALL_DEVICE
        )
        with pytest.raises(PrivacyContractError, match="large_cloud backend given context"):
            llm.next_distribution(request)


CURSOR_TEXTS = ["a b c d", "x b d a", "c c a b x", "d d a b c x"]


def cursor_backends():
    """N-gram backends with n of 1, 2 and 3, and a table backend, each on
    both sides of the boundary, over one vocabulary."""
    models = [train_ngram(CURSOR_TEXTS, n=n, alpha=0.1) for n in (1, 2, 3)]
    rules = {("a",): {"b": 1.0}, ("a", "b"): {"c": 0.5, "d": 0.5}}
    backends = []
    for role in (Role.SMALL_DEVICE, Role.LARGE_CLOUD):
        backends += [NGramBackend(model, role) for model in models]
        backends.append(
            TableBackend(models[0].vocab, role, rules=rules, default={"a": 0.7, "x": 0.3})
        )
    return backends


CURSOR_BACKENDS = cursor_backends()
LARGE_BACKENDS = [b for b in CURSOR_BACKENDS if b.role == Role.LARGE_CLOUD]


class TestCursors:
    @settings(max_examples=300, deadline=None)
    @given(
        which=st.integers(0, len(CURSOR_BACKENDS) - 1),
        instruction=st.sampled_from(["", "a", "b x", "q a c", "d d d d"]),
        context=st.sampled_from(
            [None, ContextBundle(), ContextBundle(profile="x"), ContextBundle(history=("c", "d a"))]
        ),
        prefix=st.lists(st.integers(0, 6), max_size=6),
    )
    def test_cursor_returns_the_requested_distribution(self, which, instruction, context, prefix):
        """After each push, the cursor answers with the very object a
        direct request for the same prefix returns, short prefixes included."""
        backend = CURSOR_BACKENDS[which]
        waiver = backend.role == Role.LARGE_CLOUD
        cursor = open_cursor(backend, instruction, context, waiver=waiver)
        assert isinstance(cursor, RequestCursor) == isinstance(backend, TableBackend)
        for end in range(len(prefix) + 1):
            if end:
                cursor.push(prefix[end - 1])
            request = ConditioningInput(
                instruction, tuple(prefix[:end]), context, backend.role, waiver
            )
            assert cursor.distribution() is backend.next_distribution(request)

    @pytest.mark.parametrize("which", range(len(LARGE_BACKENDS)))
    def test_large_cloud_cursor_refuses_context_without_waiver(self, which):
        large = LARGE_BACKENDS[which]
        context = ContextBundle(profile="secret profile text")
        with pytest.raises(PrivacyContractError, match="large_cloud backend given context"):
            open_cursor(large, "a b", context)
        open_cursor(large, "a b", context, waiver=True).distribution()
        open_cursor(large, "a b", ContextBundle()).distribution()

    def test_a_backend_that_names_no_role_gets_no_context(self):
        """A cursor reads its backend's role with no default: a backend, or
        a wrapper, that names none is refused before it sees a request,
        not handed context as a device backend."""
        seen = []

        class RoleLess:
            vocab = CURSOR_BACKENDS[0].vocab

            def next_distribution(self, request):
                seen.append(request)
                return CURSOR_BACKENDS[0].next_distribution(request)

        with pytest.raises(AttributeError, match="role"):
            open_cursor(RoleLess(), "a b", ContextBundle(profile="secret profile text")).distribution()
        assert seen == []

    @pytest.mark.parametrize("which", range(len(CURSOR_BACKENDS)))
    @pytest.mark.parametrize("bad", [-1, 7, 100])
    def test_push_rejects_an_out_of_range_id(self, which, bad):
        """The id is checked before the cursor moves: a rejected push
        leaves it answering for the prefix it had."""
        backend = CURSOR_BACKENDS[which]
        assert backend.vocab.size == 7
        cursor = open_cursor(backend, "a")
        cursor.push(6)
        before = cursor.distribution()
        with pytest.raises(InvalidInputError, match=f"^token id {bad} outside vocab of size 7$"):
            cursor.push(bad)
        assert cursor.distribution() is before


class TestPerplexity:
    def test_certain_path_scores_one(self, abc_vocab):
        backend = path_backend(abc_vocab, Role.SMALL_DEVICE, ["A", "B", "C"])
        ids = [abc_vocab.id_of(t) for t in ("A", "B", "C")]
        assert perplexity(backend, ids) == pytest.approx(1.0)

    def test_uniform_backend_scores_vocab_size(self, abc_vocab):
        uniform = {tok: 1.0 for tok in abc_vocab.tokens}
        backend = TableBackend(abc_vocab, Role.SMALL_DEVICE, default=uniform)
        ids = [abc_vocab.id_of(t) for t in ("A", "B", "C", "D")]
        assert perplexity(backend, ids) == pytest.approx(abc_vocab.size)

    def test_ngram_value_matches_hand_arithmetic(self):
        model = train_ngram(["a b a b a c"], n=2, alpha=1.0)
        vocab = model.vocab
        backend = NGramBackend(model, Role.SMALL_DEVICE)
        a, b = vocab.id_of("a"), vocab.id_of("b")
        v = vocab.size
        # position 1: empty history (unigram fallback over empty key -> uniform);
        # position 2: p(b | a) from the smoothed table
        p1 = model.conditional([])[a]
        p2 = (2 + 1.0) / (3 + v * 1.0)
        expected = math.exp(-(math.log(p1) + math.log(p2)) / 2)
        assert perplexity(backend, [a, b]) == pytest.approx(expected, rel=1e-12)

    def test_zero_probability_reports_infinity(self, abc_vocab):
        backend = path_backend(abc_vocab, Role.SMALL_DEVICE, ["A"])
        ids = [abc_vocab.id_of("D")]
        assert perplexity(backend, ids) == math.inf

    def test_own_user_history_beats_other_users(self, world0, world0_backends):
        # a context model trained on the right user scores that user's
        # held-out reference better than one trained on someone else's text
        _, slms = world0_backends
        tok = world0.tokenizer
        record = world0.test_records[0]
        other = next(r for r in world0.test_records if r.user_id != record.user_id)
        ids = tok.tokenize(record.reference)
        own = perplexity(slms[record.user_id], ids, instruction=record.task,
                         context=record.context_bundle())
        foreign = perplexity(slms[other.user_id], ids, instruction=record.task,
                             context=record.context_bundle())
        assert own < foreign
