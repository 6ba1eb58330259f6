"""Corpus loading, filtering bounds, splitting, statistics."""

import json
from pathlib import Path

import pytest

from cogen.corpus import (
    CorpusRecord,
    corpus_stats,
    filter_lamp,
    load_corpus,
    render_stats,
    render_verb_stats,
    save_corpus,
    split_train_val,
    task_verb_stats,
)
from cogen.errors import CorpusError, InvalidInputError


def email_record(i: int, body: str) -> CorpusRecord:
    return CorpusRecord(
        user_id=f"user{i}",
        dataset_kind="email",
        task=f"subject {i}",
        reference=body,
        history=("an earlier email",),
    )


def write_jsonl(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


VALID_LINE = {
    "user_id": "u1",
    "dataset_kind": "email",
    "task": "subject one",
    "reference": "body text",
    "history": ["older email"],
}


class TestLoadCorpus:
    def test_empty_file_is_empty_list(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_corpus(path) == []

    def test_valid_lines_in_file_order(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        objs = []
        for i in range(10):
            obj = dict(VALID_LINE)
            obj["user_id"] = f"u{i}"
            objs.append(obj)
        write_jsonl(path, objs)
        records = load_corpus(path)
        assert [r.user_id for r in records] == [f"u{i}" for i in range(10)]

    def test_missing_task_names_line_and_field(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        bad = dict(VALID_LINE)
        del bad["task"]
        write_jsonl(path, [VALID_LINE, bad])
        with pytest.raises(CorpusError, match="line 2.*task"):
            load_corpus(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        bad = dict(VALID_LINE, secret="x")
        write_jsonl(path, [bad])
        with pytest.raises(CorpusError, match="unknown"):
            load_corpus(path)

    def test_duplicate_user_task_pair_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [VALID_LINE, VALID_LINE])
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(VALID_LINE) + "\n{broken\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_context_aware_requires_profile_and_history(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        bad = {
            "user_id": "u1",
            "dataset_kind": "context_aware",
            "task": "t",
            "reference": "r",
        }
        write_jsonl(path, [bad])
        with pytest.raises(CorpusError):
            load_corpus(path)

    def test_load_save_load_identity(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        objs = []
        for i in range(6):
            obj = dict(VALID_LINE)
            obj["user_id"] = f"u{i}"
            objs.append(obj)
        write_jsonl(path, objs)
        records = load_corpus(path)
        path2 = tmp_path / "copy.jsonl"
        save_corpus(records, path2)
        assert load_corpus(path2) == records

    def test_save_writes_the_fixture_in_sorted_keys_and_unchanged_bytes(self, tmp_path):
        records = load_corpus(Path(__file__).parent / "fixtures" / "corpus.jsonl")
        save_corpus(records, tmp_path / "corpus.jsonl")
        assert (tmp_path / "corpus.jsonl").read_bytes() == (
            b'{"dataset_kind": "context_aware", "general_task": "A B", "history": '
            b'["Wrote a trail report last weekend.", "Keeps notes terse and factual."], '
            b'"profile": "Meticulous planner fond of alpine hiking and precise checklists.", '
            b'"reference": "A B C", "task": "A B C", "user_id": "fixture-user"}\n'
        )

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_text_with_a_unicode_line_separator_round_trips(self, tmp_path, separator):
        # save_corpus writes non-ASCII text as is; only "\n" ends a line.
        records = [email_record(0, f"first line{separator}second line")]
        save_corpus(records, tmp_path / "corpus.jsonl")
        assert load_corpus(tmp_path / "corpus.jsonl") == records


class TestFilterBounds:
    @pytest.mark.parametrize(
        "length,kept",
        [(63, False), (64, True), (1024, True), (1025, False)],
    )
    def test_email_boundaries(self, length, kept):
        records = [email_record(0, "x" * length)]
        kept_records, rejected = filter_lamp(records, "email")
        assert bool(kept_records) == kept
        if not kept:
            assert rejected[0].reason

    @pytest.mark.parametrize(
        "length,kept",
        [(127, False), (128, True), (1024, True), (1025, False)],
    )
    def test_paper_boundaries(self, length, kept):
        record = CorpusRecord(
            user_id="p0",
            dataset_kind="paper",
            task="a title",
            reference="y" * length,
        )
        kept_records, _ = filter_lamp([record], "paper")
        assert bool(kept_records) == kept

    def test_rejection_reasons_name_the_bound(self):
        records = [email_record(0, "x" * 10), email_record(1, "x" * 2000)]
        _, rejected = filter_lamp(records, "email")
        assert "below minimum 64" in rejected[0].reason
        assert "above maximum 1024" in rejected[1].reason

    def test_characters_are_unicode_scalars(self):
        # 64 two-byte characters must pass the 64-character minimum
        records = [email_record(0, "é" * 64)]
        kept, _ = filter_lamp(records, "email")
        assert kept

    def test_wrong_kind_argument_rejected(self):
        with pytest.raises(InvalidInputError):
            filter_lamp([], "context_aware")


class TestSplit:
    def make(self, n):
        return [email_record(i, "b" * 80) for i in range(n)]

    def test_nine_one_ratio(self):
        train, val = split_train_val(self.make(1000), seed=1)
        assert len(train) == 900 and len(val) == 100

    def test_floor_arithmetic_on_ten(self):
        train, val = split_train_val(self.make(10), seed=1)
        assert len(train) == 9 and len(val) == 1

    def test_partition_disjoint_and_exhaustive(self):
        records = self.make(57)
        train, val = split_train_val(records, seed=3)
        ids = {r.user_id for r in records}
        assert {r.user_id for r in train} | {r.user_id for r in val} == ids
        assert not ({r.user_id for r in train} & {r.user_id for r in val})

    def test_same_seed_same_membership(self):
        records = self.make(40)
        a = split_train_val(records, seed=7)
        b = split_train_val(records, seed=7)
        assert a == b

    def test_too_few_records_rejected(self):
        with pytest.raises(InvalidInputError):
            split_train_val(self.make(9), seed=0)


class TestStats:
    def test_single_record_profile_tokens(self):
        record = CorpusRecord(
            user_id="u",
            dataset_kind="context_aware",
            profile="seven words exactly in this profile string",
            history=("h",),
            task="t",
            reference="three token output",
        )
        stats = corpus_stats([record])
        assert stats.avg_profile_length == 7
        assert stats.avg_output_length == 3
        assert stats.total_users == 1

    def test_empty_set_is_zeros(self):
        stats = corpus_stats([])
        assert stats.total_users == 0
        assert stats.avg_profile_length == 0.0

    def test_fixture_averaging_to_1182(self):
        # two profiles of 1180 and 1184 whitespace tokens average to 1182
        records = [
            CorpusRecord(
                user_id=f"u{i}",
                dataset_kind="context_aware",
                profile=" ".join(["tok"] * n),
                history=("h",),
                task="t",
                reference="r",
            )
            for i, n in enumerate((1180, 1184))
        ]
        stats = corpus_stats(records)
        assert stats.avg_profile_length == 1182
        rendered = render_stats(stats)
        assert "Avg Profile Length" in rendered
        assert "1182" in rendered

    def test_render_has_no_placeholder_rows(self):
        rendered = render_stats(corpus_stats([email_record(0, "b" * 70)]))
        rows = [line.split() for line in rendered.splitlines()]
        assert [row[0] for row in rows] == ["Total", "Avg", "Output"]
        assert all(row[-1] != "N/A" for row in rows)


class TestTaskVerbs:
    def records_for(self, tasks):
        return [
            CorpusRecord(user_id=f"u{i}", dataset_kind="email", task=t, reference="r")
            for i, t in enumerate(tasks)
        ]

    def test_single_verb_dominates(self):
        stats = task_verb_stats(self.records_for(["write a post", "write a plan"]))
        assert stats.verbs[0] == ("write", 100.0)

    def test_object_extraction_skips_determiners(self):
        stats = task_verb_stats(self.records_for(["draft a proposal"]))
        assert stats.objects[0][0] == "proposal"

    def test_object_head_is_phrase_final(self):
        stats = task_verb_stats(self.records_for(["write a blog post about hiking"]))
        assert stats.objects[0][0] == "post"

    def test_lemma_table_applies(self):
        stats = task_verb_stats(self.records_for(["writing a memo", "wrote a memo again"]))
        assert stats.verbs[0] == ("write", 100.0)

    def test_two_column_render(self):
        stats = task_verb_stats(
            self.records_for(["write a post", "draft a speech", "compose an article"])
        )
        rendered = render_verb_stats(stats)
        assert "Verb" in rendered and "Object" in rendered
        assert rendered.count("\n") >= 3

    def test_empty_tasks_rejected(self):
        with pytest.raises(InvalidInputError):
            task_verb_stats([])
