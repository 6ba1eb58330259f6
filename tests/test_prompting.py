"""Prompt rendering fidelity, skeleton parsing, the two-step pipeline."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogen.audit import AuditedBackend, AuditLog, privacy_audit
from cogen.backends import Role, TableBackend
from cogen.core import SamplingConfig
import cogen
from cogen.decoder import DecodeMode, decode, run_sketch_then_fill, session_for_record
from cogen.errors import (
    InvalidConfigError,
    InvalidInputError,
    RatingParseError,
    SketchParseError,
    TemplateError,
)
from cogen.prompting import (
    SketchArtifact,
    TemplateLibrary,
    build_fill_prompt,
    build_judge_prompt,
    build_request_prompt,
    build_sketch_prompt,
    format_sketch,
    parse_rating,
    parse_sketch,
)
from cogen.tokenizer import build_vocab
from golden_fixtures import CONTEXT_RECORD, EMAIL_RECORD, JUDGE_ANSWER, PAPER_RECORD
from helpers import CountingBackend, path_backend, traced_decode

GOLDENS = Path(__file__).parent / "goldens"
RECORDS = {"context_aware": CONTEXT_RECORD, "email": EMAIL_RECORD, "paper": PAPER_RECORD}


def golden(name: str) -> str:
    return (GOLDENS / name).read_text(encoding="utf-8")


def override_library(tmp_path, template_id: str, text: str) -> TemplateLibrary:
    """A library over a copy of the packaged templates in which
    ``template_id`` reads ``text``."""
    shutil.copytree(Path(cogen.__file__).parent / "templates", tmp_path, dirs_exist_ok=True)
    (tmp_path / f"{template_id}.txt").write_text(text, encoding="utf-8")
    return TemplateLibrary(tmp_path)


class TestRequestPrompts:
    @pytest.mark.parametrize("kind", sorted(RECORDS))
    @pytest.mark.parametrize("with_context", [True, False])
    def test_render_matches_golden_bytes(self, kind, with_context):
        rendered = build_request_prompt(RECORDS[kind], with_context, kind)
        tag = "with_context" if with_context else "no_context"
        expected = golden(f"request_{kind}_{tag}.txt")
        assert rendered.system + "\n<<<SYSTEM/USER>>>\n" + rendered.user == expected

    def test_context_aware_headers_present(self):
        rendered = build_request_prompt(CONTEXT_RECORD, True, "context_aware")
        for header in ("## User Profile", "## User Writing History", "## Task"):
            assert header in rendered.user

    def test_with_context_system_prompt_anchor(self):
        rendered = build_request_prompt(CONTEXT_RECORD, True, "context_aware")
        assert "emulate the author's style and tone" in rendered.system

    def test_email_no_context_is_exactly_the_subject_line(self):
        rendered = build_request_prompt(EMAIL_RECORD, False, "email")
        assert rendered.user == "Compose an email for the subject 'Quarterly planning kickoff'"

    @pytest.mark.parametrize("kind", sorted(RECORDS))
    def test_no_context_renders_carry_no_context_bytes(self, kind):
        record = RECORDS[kind]
        rendered = build_request_prompt(record, False, kind)
        combined = rendered.system + "\n\n" + rendered.user
        for text in (record.profile, *record.history):
            for start in range(0, max(len(text) - 12, 0) + 1, 4):
                chunk = text[start : start + 12]
                if len(chunk) == 12:
                    assert chunk not in combined

    def test_render_is_deterministic(self):
        a = build_request_prompt(CONTEXT_RECORD, True, "context_aware")
        b = build_request_prompt(CONTEXT_RECORD, True, "context_aware")
        assert a == b

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidConfigError):
            build_request_prompt(CONTEXT_RECORD, True, "novel")

    def test_template_dir_override(self, tmp_path):
        (tmp_path / "request_user_no_context_email.txt").write_text(
            "OVERRIDE {task}\n", encoding="utf-8"
        )
        library = TemplateLibrary(tmp_path)
        assert library.render("request_user_no_context_email", {"task": "x"}) == "OVERRIDE x"
        with pytest.raises(TemplateError):
            library.text("request_user_with_context_email")

    def test_missing_placeholder_named(self, tmp_path):
        (tmp_path / "custom.txt").write_text("needs {answer}\n", encoding="utf-8")
        library = TemplateLibrary(tmp_path)
        with pytest.raises(TemplateError, match="answer"):
            library.render("custom", {})
        (tmp_path / "first.txt").write_text("{task} {answer} {question}\n", encoding="utf-8")
        with pytest.raises(TemplateError, match=r"'first' needs placeholder \{answer\}"):
            library.render("first", {"task": "t"})

    def test_a_repeated_placeholder_fills_each_place_and_other_braces_stay(self, tmp_path):
        (tmp_path / "custom.txt").write_text("{task}{task} {unknown} {}\n", encoding="utf-8")
        library = TemplateLibrary(tmp_path)
        assert library.render("custom", {"task": "x", "answer": "unused"}) == "xx {unknown} {}"


class TestSketchPrompts:
    @pytest.mark.parametrize("kind", sorted(RECORDS))
    def test_render_matches_golden_bytes(self, kind):
        rendered = build_sketch_prompt(RECORDS[kind].general_task, kind)
        assert rendered == golden(f"sketch_{kind}.txt")

    def test_skeleton_size_instruction_anchor(self):
        rendered = build_sketch_prompt("anything", "context_aware")
        assert "Generally, the skeleton should have 8-15 points" in rendered

    def test_paper_variant_is_high_level(self):
        rendered = build_sketch_prompt("anything", "paper")
        assert "from high-level perspective" in rendered

    def test_task_with_newline_substituted_verbatim(self):
        task = "first line\nsecond line"
        rendered = build_sketch_prompt(task, "email")
        assert task in rendered

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidConfigError):
            build_sketch_prompt("x", "unknown")


class TestParseSketch:
    def test_stated_grammar(self):
        artifact = parse_sketch("1. Alpha\n2. Beta")
        assert artifact.points == ("Alpha", "Beta")

    def test_escaped_newline_separators(self):
        artifact = parse_sketch("1. Alpha\\n2. Beta\\n3. Gamma")
        assert artifact.points == ("Alpha", "Beta", "Gamma")

    def test_shipped_exemplar_skeleton_has_13_points(self):
        text = (
            "1. Warmly lit dining room\\n2. Fine china and gourmet dishes\\n"
            "3. Soft music background\\n4. Invitation opening\\n"
            "5. Guests arriving and networking\\n6. Host's welcoming toast\\n"
            "7. Expertly paired courses and wine\\n8. Animated guest discussions\\n"
            "9. Guest speaker's address\\n10. Post-dinner networking lounge\\n"
            "11. Online community continuation\\n12. Next event date highlighted\\n"
            "13. Closing with logo and contact info"
        )
        artifact = parse_sketch(text)
        assert len(artifact.points) == 13
        assert artifact.points[0] == "Warmly lit dining room"

    def test_no_markers_is_a_parse_error(self):
        with pytest.raises(SketchParseError) as err:
            parse_sketch("no numbers here")
        assert err.value.raw_text == "no numbers here"

    def test_format_parse_round_trip(self):
        artifact = SketchArtifact(("One thing", "Another thing", "Last"), "raw")
        again = parse_sketch(format_sketch(artifact))
        assert again.points == artifact.points

    @given(
        st.lists(
            st.text(alphabet="abcdefghij XYZ'-,", min_size=1, max_size=24).map(str.strip).filter(bool),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_format_parse_identity_property(self, points):
        artifact = SketchArtifact(tuple(points), "raw")
        assert parse_sketch(format_sketch(artifact)).points == artifact.points


class TestFillPrompts:
    def test_sketch_fill_matches_golden(self):
        sk = parse_sketch("1. Opening hook\\n2. Workshop dates\\n3. Signup link")
        assert build_fill_prompt(CONTEXT_RECORD, sk, "context_aware") == golden(
            "fill_context_aware_sketch.txt"
        )

    def test_full_content_fill_matches_golden(self):
        rendered = build_fill_prompt(
            CONTEXT_RECORD, "A complete draft from the large model.", "context_aware"
        )
        assert rendered == golden("fill_context_aware_full.txt")
        assert "## Reference Content" in rendered

    def test_email_sketch_fill_matches_golden(self):
        sk = parse_sketch("1. Kickoff date\\n2. Agenda items\\n3. Owners")
        assert build_fill_prompt(EMAIL_RECORD, sk, "email") == golden("fill_email_sketch.txt")

    def test_paper_full_content_fill_matches_golden(self):
        rendered = build_fill_prompt(
            PAPER_RECORD, "A complete draft from the large model.", "paper"
        )
        assert rendered == golden("fill_paper_full.txt")

    def test_every_sketch_point_verbatim(self):
        sk = parse_sketch("1. Opening hook\\n2. Workshop dates\\n3. Signup link")
        rendered = build_fill_prompt(CONTEXT_RECORD, sk, "context_aware")
        for point in sk.points:
            assert point in rendered

    def test_section_order_fixed(self):
        sk = parse_sketch("1. Only point")
        rendered = build_fill_prompt(CONTEXT_RECORD, sk, "context_aware")
        positions = [
            rendered.index("## User Profile"),
            rendered.index("## User Writing History"),
            rendered.index("## Reference Sketch"),
            rendered.index("## Task"),
        ]
        assert positions == sorted(positions)

    def test_empty_conditioning_rejected(self):
        with pytest.raises(InvalidInputError):
            build_fill_prompt(CONTEXT_RECORD, "", "context_aware")

    @pytest.mark.parametrize("kind", sorted(RECORDS))
    def test_each_layout_has_one_reference_section_just_before_its_task(self, kind):
        text = TemplateLibrary().text(f"request_user_with_context_{kind}")
        assert text.count("{reference_section}") == 1
        assert "\n\n{reference_section}## Task\n" in text

    def test_an_override_without_the_reference_section_raises_on_a_fill(self, tmp_path):
        template_id = "request_user_with_context_email"
        library = override_library(tmp_path, template_id, "## History Emails\n{examples}\n\n## Task\n{task}\n")
        assert build_request_prompt(EMAIL_RECORD, True, "email", library).user.endswith(EMAIL_RECORD.task)
        with pytest.raises(TemplateError, match=template_id):
            build_fill_prompt(EMAIL_RECORD, "A complete draft.", "email", library)

    def test_contextless_record_rejected(self):
        from cogen.corpus import CorpusRecord

        bare = CorpusRecord(
            user_id="bare",
            dataset_kind="email",
            task="subject",
            reference="body",
        )
        with pytest.raises(InvalidInputError):
            build_fill_prompt(bare, "draft", "email")


class TestJudgePrompts:
    @pytest.mark.parametrize("kind", ["overall_with_profile", "overall_no_profile", "personalization"])
    def test_render_matches_golden_bytes(self, kind):
        rendered = build_judge_prompt(kind, CONTEXT_RECORD, JUDGE_ANSWER)
        assert rendered == golden(f"judge_{kind}.txt")

    def test_impartial_evaluator_anchor(self):
        rendered = build_judge_prompt("overall_with_profile", CONTEXT_RECORD, JUDGE_ANSWER)
        assert "Please act as an impartial evaluator" in rendered
        assert '"Rating: [[5]]"' in rendered

    def test_no_profile_variant_has_no_profile_bytes(self):
        rendered = build_judge_prompt("overall_no_profile", CONTEXT_RECORD, JUDGE_ANSWER)
        assert CONTEXT_RECORD.profile[:12] not in rendered

    def test_empty_answer_rejected(self):
        with pytest.raises(InvalidInputError):
            build_judge_prompt("overall_no_profile", CONTEXT_RECORD, "")


class TestParseRating:
    def test_reads_the_documented_format(self):
        assert parse_rating("Some explanation. Rating: [[5]]") == 5
        assert parse_rating("Rating: [[10]]") == 10

    def test_out_of_range_rejected(self):
        with pytest.raises(RatingParseError):
            parse_rating("Rating: [[11]]")
        with pytest.raises(RatingParseError):
            parse_rating("Rating: [[0]]")

    def test_missing_marker_rejected(self):
        with pytest.raises(RatingParseError):
            parse_rating("I give it a 7.")


def _sketch_world():
    """Tiny scripted two-step world over a shared whitespace vocab."""
    texts = [
        "1. alpha\\n2. beta",
        "1. gamma\\n2. delta",
        "opening about alpha closing",
        "opening about gamma closing",
    ]
    vocab = build_vocab(texts)
    llm_a = path_backend(vocab, Role.LARGE_CLOUD, ["1.", "alpha\\n2.", "beta"])
    llm_b = path_backend(vocab, Role.LARGE_CLOUD, ["1.", "gamma\\n2.", "delta"])
    slm = TableBackend(
        vocab,
        Role.SMALL_DEVICE,
        keyed=[
            ("alpha", TableBackend.path_rules(vocab, ["opening", "about", "alpha", "closing"])),
            ("gamma", TableBackend.path_rules(vocab, ["opening", "about", "gamma", "closing"])),
        ],
    )
    return vocab, llm_a, llm_b, slm


class TestSketchThenFill:
    def test_composed_automata_end_to_end(self):
        vocab, llm_a, _, slm = _sketch_world()
        sampling = SamplingConfig(greedy=True, max_new_tokens=12)
        tokens, artifact = run_sketch_then_fill(llm_a, slm, CONTEXT_RECORD, sampling)
        assert [vocab.token(t) for t in tokens] == ["opening", "about", "alpha", "closing"]
        assert artifact.points == ("alpha", "beta")

    def test_fill_trace_is_all_small_model(self):
        vocab, llm_a, _, slm = _sketch_world()
        sampling = SamplingConfig(greedy=True, max_new_tokens=12)
        _, trace = traced_decode(
            session_for_record(CONTEXT_RECORD, DecodeMode.sketch(), sampling, slm, llm_a)
        )
        steps = trace.steps
        assert [s.token for s in steps] == ["opening", "about", "alpha", "closing"]
        assert all(s.w == 1.0 and s.p_l_top1 == 0.0 for s in steps)

    def test_large_model_payloads_carry_no_context(self):
        vocab, llm_a, _, slm = _sketch_world()
        sampling = SamplingConfig(greedy=True, max_new_tokens=12)
        log = AuditLog()
        run_sketch_then_fill(AuditedBackend(llm_a, log), slm, CONTEXT_RECORD, sampling)
        assert len(log) > 0
        verdict = privacy_audit(log, CONTEXT_RECORD.context_bundle())
        assert verdict.passed

    def test_swapping_sketch_backend_changes_output(self):
        vocab, llm_a, llm_b, slm = _sketch_world()
        sampling = SamplingConfig(greedy=True, max_new_tokens=12)
        out_a, _ = run_sketch_then_fill(llm_a, slm, CONTEXT_RECORD, sampling)
        out_b, _ = run_sketch_then_fill(llm_b, slm, CONTEXT_RECORD, sampling)
        assert out_a != out_b

    def test_the_draft_is_read_in_the_large_models_own_vocabulary(self):
        vocab, _, _, slm = _sketch_world()
        # The same draft tokens under other ids: the modes share no vocabulary.
        llm_vocab = build_vocab(["aardvark zebra", "1. alpha\\n2. beta"])
        assert llm_vocab != vocab
        llm = path_backend(llm_vocab, Role.LARGE_CLOUD, ["1.", "alpha\\n2.", "beta"])
        sampling = SamplingConfig(greedy=True, max_new_tokens=12)
        tokens, artifact = run_sketch_then_fill(llm, slm, CONTEXT_RECORD, sampling)
        assert artifact.points == ("alpha", "beta")
        assert [vocab.token(t) for t in tokens] == ["opening", "about", "alpha", "closing"]

    def test_a_with_context_override_reaches_the_request_and_the_fill(self, tmp_path):
        library = override_library(
            tmp_path,
            "request_user_with_context_context_aware",
            "## Override\n{history}\n\n{reference_section}## Task\n{task}\n",
        )
        history = "\n\n".join(CONTEXT_RECORD.history)
        request = build_request_prompt(CONTEXT_RECORD, True, "context_aware", library)
        assert request.user == f"## Override\n{history}\n\n## Task\n{CONTEXT_RECORD.task}"
        vocab, llm_a, _, slm = _sketch_world()
        counting = CountingBackend(slm)
        sampling = SamplingConfig(greedy=True, max_new_tokens=12)
        run_sketch_then_fill(llm_a, counting, CONTEXT_RECORD, sampling, library=library)
        assert {r.instruction for r in counting.requests} == {
            f"## Override\n{history}\n\n## Reference Sketch\n1. alpha\n2. beta\n\n## Task\n{CONTEXT_RECORD.task}"
        }

    def test_unparseable_sketch_retries_then_raises(self):
        vocab, *_ , slm = _sketch_world()
        broken_llm = path_backend(vocab, Role.LARGE_CLOUD, ["opening", "closing"])
        sampling = SamplingConfig(greedy=True, max_new_tokens=8)
        with pytest.raises(SketchParseError):
            run_sketch_then_fill(broken_llm, slm, CONTEXT_RECORD, sampling)


def test_prompting_does_not_load_the_decoder():
    # Prompting only renders and parses; decoding builds on it, not the
    # other way round.
    env = dict(os.environ, PYTHONPATH=str(Path(cogen.__file__).parents[1]))
    code = "import sys, cogen.prompting; assert 'cogen.decoder' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
