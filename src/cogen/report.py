"""Automated metrics, score aggregation, and weight-trace rendering.

BLEU is the clipped n-gram precision geometric mean with a brevity
penalty; orders two and up fall back to add-one smoothing when their
clipped count is zero, and an empty candidate scores 0. ROUGE-L is the
sentence-level LCS precision/recall/F1. Both are checked against
brute-force oracles in the test suite.

The trace renderer colors each token by which side drove it: tokens the
small model dominated render in blue, large-model tokens in red, with
intensity proportional to how far the blend weight sits from the neutral
0.5 (which renders white). A flag swaps the hue assignment.
"""

from __future__ import annotations

import html as html_mod
import math
from collections import Counter
from dataclasses import dataclass
from functools import partial

from .corpus import check_fields, json_object_lines, tsv_lines
from .decoder import WeightTrace
from .errors import CorpusError, InvalidInputError

SLM_HUE = (31, 86, 235)
LLM_HUE = (224, 48, 48)

METRIC_COLUMNS = ("ovl_w", "per", "ovl_wo")
METRIC_LABELS = {"ovl_w": "Ovl.(w)", "per": "Per.", "ovl_wo": "Ovl.(w/o)"}
BLEU_MAX_N = 4  # highest n-gram order BLEU counts


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidate, references) -> float:
    """Corpus-style BLEU-4 for a single candidate against references."""
    candidate = list(candidate)
    references = [list(r) for r in references]
    if not references:
        raise InvalidInputError("bleu needs at least one reference")
    if not candidate:
        return 0.0
    log_sum = 0.0
    for n in range(1, BLEU_MAX_N + 1):
        cand_counts = _ngrams(candidate, n)
        total = max(len(candidate) - n + 1, 0)
        clipped = 0
        if cand_counts:
            max_ref = Counter()
            for ref in references:
                for gram, count in _ngrams(ref, n).items():
                    if count > max_ref[gram]:
                        max_ref[gram] = count
            clipped = sum(min(count, max_ref[gram]) for gram, count in cand_counts.items())
        if n == 1:
            if clipped == 0:
                return 0.0
            precision = clipped / total
        elif clipped == 0:
            precision = (clipped + 1) / (total + 1)
        else:
            precision = clipped / total
        log_sum += math.log(precision)
    c = len(candidate)
    r = min((abs(len(ref) - c), len(ref)) for ref in references)[1]
    brevity = 1.0 if c > r else math.exp(1 - r / c)
    return brevity * math.exp(log_sum / BLEU_MAX_N)


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


def _lcs_length(a, b) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                curr.append(prev[j - 1] + 1)
            else:
                curr.append(max(prev[j], curr[j - 1]))
        prev = curr
    return prev[len(b)]


def rouge_l(candidate, reference) -> RougeScore:
    """Sentence-level LCS precision/recall/F1 (harmonic mean, beta = 1)."""
    candidate = list(candidate)
    reference = list(reference)
    lcs = _lcs_length(candidate, reference)
    p = lcs / len(candidate) if candidate else 0.0
    r = lcs / len(reference) if reference else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return RougeScore(precision=p, recall=r, f1=f)


@dataclass(frozen=True)
class MetricScore:
    bleu: float
    rouge_l_p: float
    rouge_l_r: float
    rouge_l_f: float


def score_pair(candidate_tokens, reference_tokens) -> MetricScore:
    rouge = rouge_l(candidate_tokens, reference_tokens)
    return MetricScore(
        bleu=bleu(candidate_tokens, [reference_tokens]),
        rouge_l_p=rouge.precision,
        rouge_l_r=rouge.recall,
        rouge_l_f=rouge.f1,
    )


@dataclass
class AggregateReport:
    means: dict            # (setting, metric) -> mean rating
    curves: dict           # (setting, metric) -> list of running means
    rejected_rows: int


def read_scores(path) -> list[tuple[str, str, str, float]]:
    """The TSV file of judged scores at ``path``, one row per line with
    exactly setting, metric, item_id and rating, as those four with the
    rating a float."""
    rows = []
    for line_no, (setting, metric, item_id, rating_text) in tsv_lines(path, 4):
        try:
            rating = float(rating_text)
        except ValueError as exc:
            raise CorpusError(f"rating {rating_text!r} is not a number", line=line_no) from exc
        rows.append((setting, metric, item_id, rating))
    return rows


_PAIR_FIELDS = {"item_id": str, "candidate": str, "reference": str}


def read_pairs(path) -> list[tuple[str, str, str]]:
    """The JSONL file of candidate/reference pairs at ``path``, one object
    per line with exactly a string item_id, candidate and reference, as
    (item_id, candidate, reference)."""
    rows = []
    for line_no, obj in json_object_lines(path):
        check_fields(obj, _PAIR_FIELDS, partial(CorpusError, line=line_no), required=_PAIR_FIELDS.keys())
        rows.append((obj["item_id"], obj["candidate"], obj["reference"]))
    return rows


def aggregate_scores(rows) -> AggregateReport:
    """Mean rating per (setting, metric), rejecting out-of-range rows.

    Also emits the running-mean stability curve per cell: entry i is the
    mean of the first i accepted ratings in input order.
    """
    sums: dict = {}
    curves: dict = {}
    rejected = 0
    for setting, metric, _item, rating in rows:
        if not 1.0 <= rating <= 10.0:
            rejected += 1
            continue
        key = (setting, metric)
        sums[key] = sums.get(key, 0.0) + rating
        curve = curves.setdefault(key, [])
        curve.append(sums[key] / (len(curve) + 1))
    means = {key: sums[key] / len(curves[key]) for key in sums}
    return AggregateReport(means=means, curves=curves, rejected_rows=rejected)


def render_score_grid(report: AggregateReport) -> str:
    """Settings as rows, metrics as columns, two-decimal means."""
    settings = sorted({setting for setting, _ in report.means})
    name_width = max([len(s) for s in settings] + [len("Setting")])
    header = f"{'Setting':<{name_width}}  " + "  ".join(
        f"{METRIC_LABELS[m]:>9}" for m in METRIC_COLUMNS
    )
    lines = [header]
    for setting in settings:
        cells = []
        for metric in METRIC_COLUMNS:
            mean = report.means.get((setting, metric))
            cells.append(f"{mean:>9.2f}" if mean is not None else f"{'-':>9}")
        lines.append(f"{setting:<{name_width}}  " + "  ".join(cells))
    return "\n".join(lines)


def render_stability_curves(report: AggregateReport) -> str:
    """CSV rows (setting, metric, n, running_mean) for the stability plot."""
    lines = ["setting,metric,n,running_mean"]
    for (setting, metric) in sorted(report.curves):
        for i, value in enumerate(report.curves[(setting, metric)], start=1):
            lines.append(f"{setting},{metric},{i},{value:.6f}")
    return "\n".join(lines)


@dataclass(frozen=True)
class WtlResult:
    wins: int
    ties: int
    losses: int

    @property
    def total(self) -> int:
        return self.wins + self.ties + self.losses

    def percentages(self) -> tuple[float, float, float]:
        """Win/tie/lose shares in percent, rounded to one decimal."""
        t = self.total
        return (
            round(100.0 * self.wins / t, 1),
            round(100.0 * self.ties / t, 1),
            round(100.0 * self.losses / t, 1),
        )

    def cell(self) -> str:
        """Compact count cell, e.g. '38/2/10'."""
        return f"{self.wins}/{self.ties}/{self.losses}"


def win_tie_lose(judgments) -> WtlResult:
    """Tally win/tie/lose outcomes; input is any iterable of those words."""
    counts = {"win": 0, "tie": 0, "lose": 0}
    for outcome in judgments:
        if outcome not in counts:
            raise InvalidInputError(f"unknown judgment outcome {outcome!r}")
        counts[outcome] += 1
    if not any(counts.values()):
        raise InvalidInputError("win_tie_lose needs at least one judgment")
    return WtlResult(wins=counts["win"], ties=counts["tie"], losses=counts["lose"])


def _blend(hue: tuple[int, int, int], intensity: float) -> tuple[int, int, int]:
    return tuple(round(255 - (255 - channel) * intensity) for channel in hue)


def _step_color(w: float, swap_hues: bool) -> tuple[int, int, int]:
    intensity = abs(w - 0.5) * 2.0
    if intensity == 0.0:
        return (255, 255, 255)
    small_side = w > 0.5
    hue = (SLM_HUE if small_side else LLM_HUE) if not swap_hues else (
        LLM_HUE if small_side else SLM_HUE
    )
    return _blend(hue, intensity)


def render_weight_trace(trace: WeightTrace, format: str = "html", swap_hues: bool = False) -> str:
    """Per-token spans tinted by blend weight; deterministic output bytes.

    A weight of 0.5 renders white; weights of 0 and 1 render at maximal
    hue intensity. HTML output is self-contained; ansi output uses
    truecolor background escapes.
    """
    if not trace.steps:
        raise InvalidInputError("cannot render an empty trace")
    if format == "ansi":
        parts = []
        for s in trace.steps:
            r, g, b = _step_color(s.w, swap_hues)
            parts.append(f"\x1b[48;2;{r};{g};{b}m{s.token}\x1b[0m")
        return " ".join(parts) + "\n"
    if format != "html":
        raise InvalidInputError(f"unknown trace format {format!r}")
    small_hue, large_hue = (SLM_HUE, LLM_HUE) if not swap_hues else (LLM_HUE, SLM_HUE)
    spans = []
    for s in trace.steps:
        r, g, b = _step_color(s.w, swap_hues)
        spans.append(
            f'<span title="w={s.w:.3f}" style="background-color:#{r:02x}{g:02x}{b:02x}">'
            f"{html_mod.escape(s.token)}</span>"
        )
    body = "\n".join(spans)
    return (
        "<!DOCTYPE html>\n"
        '<html><head><meta charset="utf-8"><title>blend weight trace</title>\n'
        "<style>\n"
        "body { font-family: monospace; line-height: 1.9; margin: 2em; }\n"
        ".trace span { padding: 1px 2px; border-radius: 2px; }\n"
        ".legend { margin-bottom: 1em; }\n"
        ".legend span { padding: 1px 6px; }\n"
        "</style></head>\n"
        "<body>\n"
        f'<div class="legend">mode={html_mod.escape(trace.mode)} seed={trace.seed} | '
        f'<span style="background-color:#{small_hue[0]:02x}{small_hue[1]:02x}{small_hue[2]:02x}">'
        "small model (w&#8594;1)</span> "
        '<span style="background-color:#ffffff;border:1px solid #999">balanced (w=0.5)</span> '
        f'<span style="background-color:#{large_hue[0]:02x}{large_hue[1]:02x}{large_hue[2]:02x}">'
        "large model (w&#8594;0)</span></div>\n"
        f'<div class="trace">{body}</div>\n'
        "</body></html>\n"
    )
