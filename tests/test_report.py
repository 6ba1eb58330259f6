"""Metrics against brute-force oracles; aggregation; trace rendering."""

import math
from pathlib import Path

import pytest

from cogen.decoder import TraceStep, WeightTrace
from cogen.errors import InvalidInputError
from cogen.report import (
    aggregate_scores,
    bleu,
    read_scores,
    render_score_grid,
    render_stability_curves,
    render_weight_trace,
    rouge_l,
    win_tie_lose,
)
from cogen.rng import Splitmix64

GOLDENS = Path(__file__).parent / "goldens"


# ---------------------------------------------------------------- oracles


def oracle_bleu(candidate, references, max_n=4):
    """Brute-force mirror of the stated BLEU rule: list-scan n-gram
    counting (no Counter), the same add-one fallback for higher orders,
    closest-length brevity reference."""
    if not candidate:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        cand_grams = [tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1)]
        clipped = 0
        for gram in set(cand_grams):
            best = 0
            for ref in references:
                ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
                best = max(best, ref_grams.count(gram))
            clipped += min(cand_grams.count(gram), best)
        total = len(cand_grams)
        if n == 1:
            if clipped == 0:
                return 0.0
            p = clipped / total
        elif clipped == 0:
            p = 1.0 / (total + 1)
        else:
            p = clipped / total
        log_sum += math.log(p)
    c = len(candidate)
    r = min(references, key=lambda ref: (abs(len(ref) - c), len(ref)))
    r = len(r)
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return bp * math.exp(log_sum / max_n)


def oracle_lcs(a, b):
    """Exhaustive subsequence search (exponential; small inputs only)."""
    best = 0
    for mask in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if mask >> i & 1]
        it = iter(b)
        if all(x in it for x in sub):
            best = max(best, len(sub))
    return best


def random_tokens(rng, max_len=12, vocab=8):
    return [f"t{rng.next_below(vocab)}" for _ in range(rng.next_below(max_len + 1))]


# ---------------------------------------------------------------- tests


class TestBleu:
    def test_identity_scores_exactly_one(self):
        tokens = "the quick brown fox jumps".split()
        assert bleu(tokens, [tokens]) == 1.0

    def test_empty_candidate_scores_zero(self):
        assert bleu([], [["a", "b"]]) == 0.0

    def test_clipping_example(self):
        # "the the the the" vs "the cat": clipped unigram precision 1/4 and
        # BP = 1 (candidate longer); higher orders have zero matches, so
        # they take the add-one fallback 1/(total+1): 1/4, 1/3, 1/2
        score = bleu("the the the the".split(), ["the cat".split()])
        expected = math.exp(
            (math.log(1 / 4) + math.log(1 / 4) + math.log(1 / 3) + math.log(1 / 2)) / 4
        )
        assert score == pytest.approx(expected, abs=1e-12)
        assert score == pytest.approx(oracle_bleu("the the the the".split(), ["the cat".split()]))

    def test_permutation_sensitivity_beyond_unigrams(self):
        ref = ["a", "b", "c", "d"]
        assert bleu(["a", "b", "c", "d"], [ref]) > bleu(["d", "c", "b", "a"], [ref])

    def test_matches_oracle_on_random_cases(self):
        rng = Splitmix64(2024)
        checked = 0
        while checked < 200:
            cand = random_tokens(rng)
            refs = [random_tokens(rng) or ["x"], random_tokens(rng) or ["y"]]
            assert bleu(cand, refs) == pytest.approx(oracle_bleu(cand, refs), abs=1e-9)
            checked += 1


class TestRougeL:
    def test_identity(self):
        score = rouge_l(list("abcd"), list("abcd"))
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_disjoint_vocabularies(self):
        score = rouge_l(["a", "b"], ["c", "d"])
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_interleaved_example(self):
        score = rouge_l("a b c d".split(), "a c b d".split())
        assert score.precision == pytest.approx(0.75)
        assert score.recall == pytest.approx(0.75)
        assert score.f1 == pytest.approx(0.75)

    def test_empty_sequences(self):
        score = rouge_l([], ["a"])
        assert score.f1 == 0.0

    def test_matches_exhaustive_oracle_on_random_cases(self):
        rng = Splitmix64(99)
        for _ in range(200):
            cand = random_tokens(rng, max_len=10)
            ref = random_tokens(rng, max_len=10)
            got = rouge_l(cand, ref)
            lcs = oracle_lcs(cand, ref)
            p = lcs / len(cand) if cand else 0.0
            r = lcs / len(ref) if ref else 0.0
            f = 2 * p * r / (p + r) if p + r else 0.0
            assert got.precision == pytest.approx(p, abs=1e-9)
            assert got.recall == pytest.approx(r, abs=1e-9)
            assert got.f1 == pytest.approx(f, abs=1e-9)
            assert (got.f1 == 0.0) == (lcs == 0)


class TestAggregate:
    def test_simple_mean(self):
        report = aggregate_scores([("s", "ovl_w", "i1", 8.0), ("s", "ovl_w", "i2", 9.0)])
        assert report.means[("s", "ovl_w")] == pytest.approx(8.5)

    def test_out_of_range_rows_rejected_with_count(self):
        report = aggregate_scores(
            [("s", "per", "i1", 5.0), ("s", "per", "i2", 11.0), ("s", "per", "i3", 0.0)]
        )
        assert report.rejected_rows == 2
        assert len(report.curves[("s", "per")]) == 1

    def test_mean_invariant_to_row_order(self):
        rows = [("s", "per", f"i{k}", float(1 + k % 9)) for k in range(30)]
        a = aggregate_scores(rows)
        b = aggregate_scores(list(reversed(rows)))
        assert a.means == b.means

    def test_running_mean_curve_constant_rows_flat(self):
        rows = [("s", "ovl_w", f"i{k}", 7.0) for k in range(20)]
        report = aggregate_scores(rows)
        assert report.curves[("s", "ovl_w")] == [7.0] * 20

    def test_grid_reproduces_fixture_row(self):
        # 100 integer ratings per cell averaging to the printed values
        rows = []
        for metric, nines in (("ovl_w", 12), ("per", 20), ("ovl_wo", 0)):
            base = 8 if metric != "ovl_wo" else 7
            high = [base + 1] * (nines if metric != "ovl_wo" else 86)
            low = [base] * (100 - len(high))
            for i, rating in enumerate(high + low):
                rows.append(("Learnable Weights Fusing", metric, f"i{i}", float(rating)))
        report = aggregate_scores(rows)
        grid = render_score_grid(report)
        assert "Learnable Weights Fusing" in grid
        line = next(l for l in grid.splitlines() if l.startswith("Learnable"))
        assert "8.12" in line and "8.20" in line and "7.86" in line

    def test_parse_rows_and_errors(self, tmp_path):
        from cogen.errors import CorpusError

        path = tmp_path / "scores.tsv"
        path.write_text("setting\tovl_w\titem\t7\n", encoding="utf-8")
        assert read_scores(path) == [("setting", "ovl_w", "item", 7.0)]
        path.write_text("\nonly\ttwo\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2: .*expected 4 tab-separated fields, not 2"):
            read_scores(path)
        path.write_text("setting\tovl_w\titem\tseven\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 1: rating 'seven' is not a number"):
            read_scores(path)
        path.write_bytes(b"setting\tovl_w\titem\t7\n\xff\n")
        with pytest.raises(CorpusError, match="line 2: .*scores.tsv is not valid UTF-8"):
            read_scores(path)

    def test_stability_curves_csv(self):
        report = aggregate_scores([("s", "per", "a", 6.0), ("s", "per", "b", 8.0)])
        csv = render_stability_curves(report)
        assert csv.splitlines()[0] == "setting,metric,n,running_mean"
        assert "s,per,2,7.000000" in csv


class TestWinTieLose:
    def test_percentages(self):
        result = win_tie_lose(["win", "win", "tie", "lose"])
        assert result.percentages() == (50.0, 25.0, 25.0)

    def test_all_tie(self):
        result = win_tie_lose(["tie"] * 8)
        assert result.percentages() == (0.0, 100.0, 0.0)

    def test_cell_format_matches_counts(self):
        judgments = ["win"] * 38 + ["tie"] * 2 + ["lose"] * 10
        result = win_tie_lose(judgments)
        assert result.cell() == "38/2/10"

    def test_unknown_outcome_rejected(self):
        with pytest.raises(InvalidInputError):
            win_tie_lose(["draw"])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            win_tie_lose([])


def make_trace(ws):
    steps = [
        TraceStep(step=i + 1, token_id=i, token=f"tok{i}", w=w, p_s_top1=0.5, p_l_top1=0.5)
        for i, w in enumerate(ws)
    ]
    return WeightTrace(mode="logit_fusion[mean]", seed=7, steps=steps)


class TestRenderWeightTrace:
    def test_balanced_weight_renders_white(self):
        html = render_weight_trace(make_trace([0.5]))
        assert "background-color:#ffffff" in html

    def test_endpoints_render_full_hue(self):
        html = render_weight_trace(make_trace([1.0, 0.0]))
        assert "background-color:#1f56eb" in html  # small-model hue at w=1
        assert "background-color:#e03030" in html  # large-model hue at w=0

    def test_swap_hues_flag(self):
        html = render_weight_trace(make_trace([1.0]), swap_hues=True)
        assert "background-color:#e03030" in html

    def test_intensity_scales_with_distance_from_balance(self):
        html = render_weight_trace(make_trace([0.75]))
        # halfway toward the small-model hue: each channel half blended
        assert "background-color:#8faaf5" in html

    def test_html_deterministic_and_matches_golden(self):
        trace = make_trace([0.0, 0.25, 0.5, 0.75, 1.0])
        rendered = render_weight_trace(trace)
        again = render_weight_trace(make_trace([0.0, 0.25, 0.5, 0.75, 1.0]))
        assert rendered == again
        golden = (GOLDENS / "trace_render.html").read_text(encoding="utf-8")
        assert rendered == golden

    def test_ansi_output_contains_truecolor_escapes(self):
        out = render_weight_trace(make_trace([0.5, 1.0]), format="ansi")
        assert "\x1b[48;2;255;255;255m" in out
        assert "\x1b[48;2;31;86;235m" in out

    def test_empty_trace_rejected(self):
        with pytest.raises(InvalidInputError):
            render_weight_trace(WeightTrace(mode="m", seed=0))

    def test_unknown_format_rejected(self):
        with pytest.raises(InvalidInputError):
            render_weight_trace(make_trace([0.5]), format="pdf")
