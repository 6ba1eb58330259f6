"""End-to-end coverage of every subcommand over the shipped fixtures."""

import json
import math
import re
import shutil
import socket
import struct
from dataclasses import fields
from pathlib import Path

import pytest

from cogen import cli, decoder, service
from cogen.backends import Role
from cogen.cli import main
from cogen.combmodel import comb_init, comb_save
from cogen.config import build_backend, load_config
from cogen.core import SamplingConfig
from cogen.decoder import read_trace
from cogen.errors import InvalidConfigError
from cogen.service import ServeConfig, sampling_to_wire, serve

FIXTURES = Path(__file__).parent / "fixtures"
TABLE_VOCAB = {"tokens": ["A", "B", "</s>", "<unk>"]}


@pytest.fixture()
def workdir(tmp_path):
    for name in (
        "config.json",
        "slm_table.json",
        "llm_table.json",
        "corpus.jsonl",
        "emails.jsonl",
        "scores.tsv",
        "judgments.tsv",
        "pairs.jsonl",
    ):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_slm_mode(self, workdir, capsys):
        code, out, _ = run(
            capsys, "generate", "--config", workdir / "config.json",
            "--corpus", workdir / "corpus.jsonl", "--mode", "slm", "--seed", "0",
        )
        assert code == 0
        assert out.strip() == "A B C"

    def test_fuse_fixed_zero_follows_large(self, workdir, capsys):
        code, out, _ = run(
            capsys, "generate", "--config", workdir / "config.json",
            "--corpus", workdir / "corpus.jsonl", "--mode", "fuse",
            "--strategy", "fixed", "0.0", "--seed", "0",
        )
        assert code == 0
        assert out.strip() == "A B D"

    def test_fuse_max_pooling(self, workdir, capsys):
        # After "A B" the small side's C and the large side's D tie under
        # max pooling, and greedy decoding takes the lower id.
        code, out, _ = run(
            capsys, "generate", "--config", workdir / "config.json",
            "--corpus", workdir / "corpus.jsonl", "--mode", "fuse",
            "--strategy", "max", "--seed", "0",
        )
        assert code == 0
        assert out.strip() == "A B C"

    def test_first_k_zero_matches_slm_stdout(self, workdir, capsys):
        argv_common = [
            "generate", "--config", workdir / "config.json",
            "--corpus", workdir / "corpus.jsonl", "--seed", "11",
        ]
        code_a, out_a, _ = run(capsys, *argv_common, "--mode", "first-k", "0")
        code_b, out_b, _ = run(capsys, *argv_common, "--mode", "slm")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_llm_modes(self, workdir, capsys):
        for mode in ("llm-ctx", "llm-noctx"):
            code, out, _ = run(
                capsys, "generate", "--config", workdir / "config.json",
                "--corpus", workdir / "corpus.jsonl", "--mode", mode, "--seed", "0",
            )
            assert code == 0
            assert out.strip() == "A B D"

    def test_sketch_mode_end_to_end(self, workdir, capsys):
        code, out, _ = run(
            capsys, "generate", "--config", workdir / "config.json",
            "--corpus", workdir / "corpus.jsonl", "--mode", "sketch", "--seed", "0",
        )
        assert code == 0
        assert out.strip() == "opening about alpha closing"

    def test_sketch_full_mode_conditions_on_the_whole_draft(self, workdir, capsys):
        # the large model drafts "A B D" from the context-free task; the
        # fill prompt carries that draft, no keyed needle matches, and the
        # small model follows its base path
        code, out, _ = run(
            capsys, "generate", "--config", workdir / "config.json",
            "--corpus", workdir / "corpus.jsonl", "--mode", "sketch-full", "--seed", "0",
        )
        assert code == 0
        assert out.strip() == "A B C"

    def test_trace_out_and_visualize(self, workdir, capsys):
        trace_path = workdir / "trace.jsonl"
        code, _, _ = run(
            capsys, "generate", "--config", workdir / "config.json",
            "--corpus", workdir / "corpus.jsonl", "--mode", "fuse",
            "--strategy", "mean", "--seed", "0", "--trace-out", trace_path,
        )
        assert code == 0 and trace_path.exists()
        html_path = workdir / "trace.html"
        code, _, _ = run(
            capsys, "visualize", "--trace", trace_path, "--format", "html",
            "--out", html_path,
        )
        assert code == 0
        assert html_path.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
        code, out, _ = run(capsys, "visualize", "--trace", trace_path, "--format", "ansi")
        assert code == 0 and "\x1b[48;2;" in out

    def test_trace_out_holds_one_row_per_printed_token(self, workdir, capsys):
        trace_path = workdir / "trace.jsonl"
        code, out, _ = run(
            capsys, "generate", "--config", workdir / "config.json",
            "--corpus", workdir / "corpus.jsonl", "--mode", "fuse",
            "--strategy", "fixed", "0.0", "--seed", "7", "--trace-out", trace_path,
        )
        assert code == 0
        trace = read_trace(trace_path)
        assert (trace.mode, trace.seed, trace.events) == ("logit_fusion[fixed(0)]", 7, [])
        assert [s.token for s in trace.steps] == out.split() == ["A", "B", "D"]
        assert [s.step for s in trace.steps] == [1, 2, 3]
        assert all(s.w == 0.0 for s in trace.steps)

    @pytest.mark.parametrize("mode", ["fuse", "llm-noctx"])
    def test_without_trace_out_no_trace_is_built(self, workdir, capsys, monkeypatch, mode):
        # Remote: fused steps read logits over loopback, and llm-noctx
        # hands its whole loop to the service's generate call.
        def refuse(*args, **kwargs):
            raise AssertionError("an untraced generate built a trace")

        monkeypatch.setattr(cli, "WeightTrace", refuse)
        monkeypatch.setattr(decoder, "TraceStep", refuse)
        config = load_config(workdir / "config.json")
        handle = serve(build_backend(config.backends["llm"]), ("127.0.0.1", 0), ServeConfig())
        try:
            cfg = json.loads((workdir / "config.json").read_text())
            cfg["service_address"] = f"127.0.0.1:{handle.address[1]}"
            (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
            common = [
                "generate", "--config", workdir / "config.json", "--corpus", workdir / "corpus.jsonl",
                "--mode", mode, "--strategy", "fixed", "0.0", "--seed", "0",
            ]
            local = run(capsys, *common)
            remote = run(capsys, *common, "--remote")
        finally:
            handle.stop()
        assert local == remote == (0, "A B D\n", "")

    def test_configured_audit_catches_leaky_record(self, workdir, capsys):
        # a record whose "context-free" task actually embeds the profile
        # trips the automatic audit and the run is refused
        record = json.loads((workdir / "corpus.jsonl").read_text().splitlines()[0])
        record["general_task"] = f"A B {record['profile']}"
        record["user_id"] = "leaky"
        with open(workdir / "corpus.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        code, _, err = run(
            capsys, "generate", "--config", workdir / "config.json",
            "--corpus", workdir / "corpus.jsonl", "--index", "1",
            "--mode", "fuse", "--strategy", "mean", "--seed", "0",
        )
        assert code == 2
        assert "FAIL" in err and "profile" in err

    def test_dead_service_address_exits_3(self, workdir, capsys):
        config = json.loads((workdir / "config.json").read_text())
        config["service_address"] = "127.0.0.1:1"
        (workdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run(
            capsys, "generate", "--config", workdir / "config.json",
            "--corpus", workdir / "corpus.jsonl", "--mode", "fuse",
            "--strategy", "mean", "--seed", "0", "--remote",
        )
        assert code == 3
        assert "transport" in err.lower()

    @pytest.mark.parametrize("source", ["config", "env"])
    def test_malformed_service_address_exits_2_naming_it(self, workdir, capsys, monkeypatch, source):
        if source == "env":
            monkeypatch.setenv("COGEN_LISTEN", "localhost")
        else:
            config = json.loads((workdir / "config.json").read_text())
            config["service_address"] = "localhost"
            (workdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run(
            capsys, "generate", "--config", workdir / "config.json",
            "--corpus", workdir / "corpus.jsonl", "--mode", "fuse",
            "--strategy", "mean", "--seed", "0", "--remote",
        )
        assert code == 2
        assert "'localhost'" in err and "port" in err

    def test_remote_generate_against_live_service(self, workdir, capsys):
        config = load_config(workdir / "config.json")
        backend = build_backend(config.backends["llm"])
        assert backend.role == Role.LARGE_CLOUD
        handle = serve(backend, ("127.0.0.1", 0), ServeConfig())
        try:
            cfg = json.loads((workdir / "config.json").read_text())
            cfg["service_address"] = f"127.0.0.1:{handle.address[1]}"
            (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
            code, out, _ = run(
                capsys, "generate", "--config", workdir / "config.json",
                "--corpus", workdir / "corpus.jsonl", "--mode", "fuse",
                "--strategy", "fixed", "0.0", "--seed", "0", "--remote",
            )
            assert code == 0
            assert out.strip() == "A B D"
        finally:
            handle.stop()

    def test_service_lost_mid_session_exits_3(self, workdir, capsys, monkeypatch):
        # The service answers the first logits request, then drops the
        # connection and stops: the fused session aborts with a
        # SessionError whose cause is a transport failure.
        config = load_config(workdir / "config.json")
        handle = serve(build_backend(config.backends["llm"]), ("127.0.0.1", 0), ServeConfig())
        send = service._Handler._send

        def send_then_stop(handler, obj):
            send(handler, obj)
            if obj.get("kind") == "logits":
                handler.request.shutdown(socket.SHUT_RDWR)
                handle.stop()

        monkeypatch.setattr(service._Handler, "_send", send_then_stop)
        try:
            cfg = json.loads((workdir / "config.json").read_text())
            cfg["service_address"] = f"127.0.0.1:{handle.address[1]}"
            (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
            code, _, err = run(
                capsys, "generate", "--config", workdir / "config.json",
                "--corpus", workdir / "corpus.jsonl", "--mode", "fuse",
                "--strategy", "mean", "--seed", "0", "--remote",
            )
        finally:
            handle.stop()
        assert code == 3
        assert "transport" in err.lower() and "step 2" in err

    def test_missing_corpus_exits_2(self, workdir, capsys):
        code, _, err = run(
            capsys, "generate", "--config", workdir / "config.json",
            "--corpus", workdir / "missing.jsonl", "--mode", "slm", "--seed", "0",
        )
        assert code == 2

    def test_usage_error_exits_1(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--config", str(workdir / "config.json")])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--mode", "first-k", "x"], "--mode first-k: 'x' is not a valid int"),
            (["--mode", "fuse", "--strategy", "fixed", "abc"], "--strategy fixed: 'abc' is not a valid float"),
            (["--mode", "slm", "--max-new-tokens", "0"], "max_new_tokens must be >= 1"),
            (["--mode", "first-k"], "--mode first-k needs a token count"),
            (["--mode", "nosuch"], "unknown mode 'nosuch'"),
            (["--mode", "fuse", "--strategy", "nosuch"], "unknown strategy 'nosuch'"),
            (["--mode", "fuse", "--strategy", "fixed"], "--strategy fixed needs a weight"),
            (["--mode", "fuse", "--strategy", "learnable"], "--strategy learnable needs a parameter container path"),
            (["--mode", "slm", "--index", "1"], "record index 1 outside corpus of 1 records"),
        ],
        ids=[
            "first-k-count", "fixed-weight", "zero-max-new-tokens", "first-k-without-count",
            "unknown-mode", "unknown-strategy", "fixed-without-weight", "learnable-without-path",
            "index-past-corpus",
        ],
    )
    def test_malformed_argument_exits_2(self, workdir, capsys, argv, message):
        code, out, err = run(
            capsys, "generate", "--config", workdir / "config.json",
            "--corpus", workdir / "corpus.jsonl", "--seed", "0", *argv,
        )
        assert code == 2
        assert message in err and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--slm", "nosuch", "--corpus", "corpus.jsonl", "--mode", "slm"],
            ["serve", "--backend", "nosuch", "--listen", "127.0.0.1:0"],
            [
                "train-comb", "--slm", "nosuch", "--train", "corpus.jsonl",
                "--val", "corpus.jsonl", "--out", "weights.cgcm",
            ],
        ],
        ids=["generate", "serve", "train-comb"],
    )
    def test_unknown_backend_name_exits_2(self, workdir, capsys, monkeypatch, argv):
        monkeypatch.chdir(workdir)
        code, _, err = run(capsys, argv[0], "--config", "config.json", *argv[1:])
        assert code == 2
        assert "config has no backend named 'nosuch'" in err

    def test_learnable_container_with_a_nan_exits_2_naming_the_file(self, workdir, capsys):
        path = workdir / "weights.cgcm"
        comb_save(comb_init(0), path)
        path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", math.nan))
        code, out, err = run(
            capsys, "generate", "--config", workdir / "config.json", "--corpus", workdir / "corpus.jsonl",
            "--mode", "fuse", "--strategy", "learnable", path, "--seed", "0",
        )
        assert code == 2 and out == ""
        assert str(path) in err and "b3 contains non-finite entries" in err

    def test_without_seed_the_configs_seed_samples(self, workdir, capsys):
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["sampling"].update(greedy=False, top_p=1.0, temperature=1.0)
        cfg["backends"]["slm"]["params"] = "coin.json"
        coin = {"vocab": {"tokens": ["A", "B", "</s>", "<unk>"]}, "default": {"A": 1, "B": 1}}
        (workdir / "coin.json").write_text(json.dumps(coin), encoding="utf-8")
        argv = [
            "generate", "--config", workdir / "config.json",
            "--corpus", workdir / "corpus.jsonl", "--mode", "slm", "--max-new-tokens", "8",
        ]
        outputs = set()
        for seed in range(8):
            cfg["sampling"]["seed"] = seed
            (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert run(capsys, *argv, "--seed", seed) == (0, out, "")
            outputs.add(out)
        assert len(outputs) > 1

    def test_ci_mode_requires_seed(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("COGEN_CI", "1")
        code, _, err = run(
            capsys, "generate", "--config", workdir / "config.json",
            "--corpus", workdir / "corpus.jsonl", "--mode", "slm",
        )
        assert code == 2
        assert "--seed" in err


class TestVisualize:
    META = '{"events": [], "mode": "fuse", "seed": 0}'
    STEP = '{"p_l_top1": 0.5, "p_s_top1": 0.5, "step": 0, "token": "A", "token_id": 0, "w": 0.5}'

    @pytest.mark.parametrize(
        "lines, bad_line",
        [
            ([META, STEP, "not json"], 3),
            ([META, STEP, '["a", "list"]'], 3),
            ([META, '{"step": 1, "token": "B"}'], 2),
            ([META, STEP.replace('"w": 0.5', '"w": "high"')], 2),
            (['{"mode": "fuse"}', STEP], 1),
        ],
        ids=["not-json", "not-an-object", "missing-fields", "mistyped-weight", "bad-metadata"],
    )
    def test_malformed_trace_exits_2_naming_its_line(self, workdir, capsys, lines, bad_line):
        trace = workdir / "trace.jsonl"
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "visualize", "--trace", trace)
        assert code == 2
        assert f"line {bad_line}:" in err


class TestCorpusCommands:
    def test_validate(self, workdir, capsys):
        code, out, _ = run(capsys, "corpus", "validate", "--in", workdir / "emails.jsonl")
        assert code == 0 and "14 records valid" in out

    def test_filter_bounds_and_outputs(self, workdir, capsys):
        kept = workdir / "kept.jsonl"
        rejected = workdir / "rejected.jsonl"
        code, out, _ = run(
            capsys, "corpus", "filter", "--in", workdir / "emails.jsonl",
            "--kind", "email", "--out", kept, "--rejected-out", rejected,
        )
        assert code == 0
        assert "kept 12, rejected 2" in out
        reasons = [json.loads(l)["reason"] for l in rejected.read_text().splitlines()]
        assert any("below minimum 64" in r for r in reasons)
        assert any("above maximum 1024" in r for r in reasons)

    def test_split_deterministic_membership(self, workdir, capsys):
        outs = []
        for run_idx in range(2):
            train = workdir / f"train{run_idx}.jsonl"
            val = workdir / f"val{run_idx}.jsonl"
            code, _, _ = run(
                capsys, "corpus", "split", "--in", workdir / "emails.jsonl",
                "--seed", "7", "--train-out", train, "--val-out", val,
            )
            assert code == 0
            outs.append((train.read_text(), val.read_text()))
        assert outs[0] == outs[1]

    def test_stats_table(self, workdir, capsys):
        code, out, _ = run(capsys, "corpus", "stats", "--in", workdir / "emails.jsonl")
        assert code == 0
        assert "Total Users" in out and "Avg Profile Length" in out

    def test_verbs_table(self, workdir, capsys):
        code, out, _ = run(capsys, "corpus", "verbs", "--in", workdir / "corpus.jsonl")
        assert code == 0
        assert "Verb" in out

    def test_bad_file_exits_2(self, workdir, capsys):
        bad = workdir / "bad.jsonl"
        bad.write_text('{"user_id": "x"}\n', encoding="utf-8")
        code, _, err = run(capsys, "corpus", "validate", "--in", bad)
        assert code == 2
        assert "line 1" in err

    def test_mistyped_field_exits_2_naming_line_and_field(self, workdir, capsys):
        # A value of the wrong JSON type is an error, not text: a null
        # profile once loaded as the private context "None".
        lines = (workdir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record.update(user_id="someone else", profile=None)
        bad = workdir / "bad.jsonl"
        bad.write_text(f"{lines[0]}\n{json.dumps(record)}\n", encoding="utf-8")
        code, _, err = run(capsys, "corpus", "validate", "--in", bad)
        assert code == 2
        assert "line 2: profile must be str, not NoneType" in err

    def test_integer_too_long_to_parse_exits_2(self, workdir, capsys):
        # Past the interpreter's int-parsing cap json.loads raises a bare
        # ValueError, not a JSONDecodeError.
        bad = workdir / "bad.jsonl"
        bad.write_text('\n{"user_id": ' + "9" * 5000 + "}\n", encoding="utf-8")
        code, _, err = run(capsys, "corpus", "validate", "--in", bad)
        assert code == 2
        assert "line 2" in err


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "name, argv",
    [
        ("corpus.jsonl", ["corpus", "validate", "--in"]),
        ("config.json", ["generate", "--corpus", "corpus.jsonl", "--mode", "slm", "--seed", "0", "--config"]),
        ("trace.jsonl", ["visualize", "--trace"]),
        ("pairs.jsonl", ["eval", "metrics", "--pairs"]),
    ],
    ids=["corpus", "config", "trace", "pairs"],
)
def test_deeply_nested_input_exits_2_naming_the_file(workdir, capsys, monkeypatch, name, argv):
    """JSON nested past the parser's depth is bad data in the file that
    holds it, not a crash; a JSONL file also names the line."""
    monkeypatch.chdir(workdir)
    (workdir / name).write_text(DEEP_JSON + "\n", encoding="utf-8")
    code, _, err = run(capsys, *argv, name)
    assert code == 2
    assert f"{name} nests JSON deeper than the parser allows" in err
    if name.endswith(".jsonl"):
        assert "line 1:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["corpus", "validate", "--in"],
        ["generate", "--corpus", "corpus.jsonl", "--mode", "slm", "--seed", "0", "--config"],
        ["visualize", "--trace"],
        ["eval", "metrics", "--pairs"],
    ],
    ids=["corpus", "config", "trace", "pairs"],
)
def test_a_directory_given_as_a_file_exits_2(workdir, capsys, monkeypatch, argv):
    """A path that exists but cannot be read as a file is bad input, not a
    crash: the command exits 2 with its one-line failure message."""
    monkeypatch.chdir(workdir)
    (workdir / "subdir").mkdir()
    code, out, err = run(capsys, *argv, "subdir")
    assert code == 2 and out == ""
    assert err.startswith(f"cogen: {argv[0]} failed: ") and "subdir" in err
    assert err.count("\n") == 1


class TestEvalCommands:
    def test_metrics(self, workdir, capsys):
        code, out, _ = run(capsys, "eval", "metrics", "--pairs", workdir / "pairs.jsonl")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("p1\tbleu=1.0000")
        assert lines[-1].startswith("mean\t")

    def test_metrics_char_policy(self, workdir, capsys):
        code, out, _ = run(
            capsys, "eval", "metrics", "--pairs", workdir / "pairs.jsonl",
            "--policy", "char",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("p1\tbleu=1.0000")

    @pytest.mark.parametrize(
        "line",
        ['{"item_id": "p3", "candidate": "a b"', '{"item_id": "p3", "candidate": "a b"}'],
        ids=["not-json", "no-reference"],
    )
    def test_malformed_pair_exits_2_naming_its_line(self, workdir, capsys, line):
        pairs = workdir / "pairs.jsonl"
        text = pairs.read_text(encoding="utf-8")
        pairs.write_text(text + line + "\n", encoding="utf-8")
        code, _, err = run(capsys, "eval", "metrics", "--pairs", pairs)
        assert code == 2
        assert f"line {len(text.splitlines()) + 1}:" in err

    def test_aggregate_grid_matches_fixture_row(self, workdir, capsys):
        code, out, _ = run(capsys, "eval", "aggregate", "--scores", workdir / "scores.tsv")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("Learnable"))
        assert "8.12" in line and "8.20" in line and "7.86" in line

    def test_aggregate_curves_out(self, workdir, capsys):
        curves = workdir / "curves.csv"
        code, *_ = run(
            capsys, "eval", "aggregate", "--scores", workdir / "scores.tsv",
            "--curves-out", curves,
        )
        assert code == 0
        assert curves.read_text().startswith("setting,metric,n,running_mean")

    def test_metrics_on_an_empty_pairs_file_exits_2(self, workdir, capsys):
        empty = workdir / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code, out, err = run(capsys, "eval", "metrics", "--pairs", empty)
        assert (code, out) == (2, "")
        assert err == "cogen: eval failed: no candidate/reference pairs found\n"

    def test_aggregate_reports_rejected_rows_on_stderr(self, workdir, capsys):
        scores = workdir / "scores.tsv"
        text = scores.read_text(encoding="utf-8")
        scores.write_text(text + "Learnable Weights Fusing\tovl_w\titem99\t11\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", "aggregate", "--scores", scores)
        assert code == 0
        assert err == "rejected 1 out-of-range rows\n"
        line = next(l for l in out.splitlines() if l.startswith("Learnable"))
        assert "8.12" in line

    def test_wtl(self, workdir, capsys):
        code, out, _ = run(capsys, "eval", "wtl", "--judgments", workdir / "judgments.tsv")
        assert code == 0
        assert "38/2/10" in out
        assert "76.0%" in out

    @pytest.mark.parametrize("line", ["item9", "item9\twin\textra"], ids=["one-column", "three-columns"])
    def test_malformed_judgment_exits_2_naming_its_line(self, workdir, capsys, line):
        judgments = workdir / "judgments.tsv"
        text = judgments.read_text(encoding="utf-8")
        judgments.write_text(text + line + "\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", "wtl", "--judgments", judgments)
        assert code == 2 and out == ""
        assert f"line {len(text.splitlines()) + 1}: " in err and "judgments.tsv" in err


class TestTrainComb:
    @pytest.fixture()
    def train_comb_argv(self, workdir):
        """A train-comb command over a synthetic world's corpus written as
        files, with n-gram backends trained on it."""
        from cogen.corpus import save_corpus
        from cogen.synthetic import build_world

        world = build_world(1, n_users=4)
        train_path = workdir / "train.jsonl"
        val_path = workdir / "val.jsonl"
        save_corpus(world.train_records, train_path)
        save_corpus(world.test_records, val_path)
        shared_vocab = {
            "tokens": list(world.vocab.tokens),
            "eos": world.vocab.tokens[world.vocab.eos_id],
            "unk": world.vocab.tokens[world.vocab.unk_id],
        }
        ngram_params = {
            "n": 2,
            "alpha": 0.1,
            "vocab": shared_vocab,
            "corpus": [" ".join(r.history) for r in world.train_records],
        }
        (workdir / "slm_ngram.json").write_text(json.dumps(ngram_params), encoding="utf-8")
        (workdir / "llm_ngram.json").write_text(
            json.dumps(
                {"n": 3, "alpha": 0.1, "vocab": shared_vocab, "corpus": world.llm_corpus}
            ),
            encoding="utf-8",
        )
        config = {
            "backends": {
                "slm": {"kind": "ngram", "role": "small_device", "params": "slm_ngram.json"},
                "llm": {"kind": "ngram", "role": "large_cloud", "params": "llm_ngram.json"},
            },
            "sampling": {"seed": 0},
        }
        (workdir / "ngram_config.json").write_text(json.dumps(config), encoding="utf-8")
        return [
            "train-comb", "--config", workdir / "ngram_config.json",
            "--train", train_path, "--val", val_path, "--out", workdir / "weights.cgcm",
            "--seed", "3", "--max-epochs", "3",
        ]

    def test_trains_and_saves_loadable_params(self, train_comb_argv, workdir, capsys):
        code, out, err = run(capsys, *train_comb_argv)
        assert code == 0, err
        assert re.search(r"\(\d+ skipped, \d+ with a floored loss\)", out), out
        from cogen.combmodel import comb_load

        params = comb_load(workdir / "weights.cgcm")
        assert params.w1.shape == (20, 512)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("learning_rate", ["inf", "1e300"])
    def test_diverging_learning_rate_exits_2_and_saves_nothing(
        self, train_comb_argv, workdir, capsys, learning_rate
    ):
        code, _, err = run(capsys, *train_comb_argv, "--learning-rate", learning_rate)
        assert code == 2
        assert "learning_rate" in err
        assert not (workdir / "weights.cgcm").exists()

    def test_a_harvest_without_examples_exits_2(self, workdir, capsys):
        (workdir / "empty.jsonl").write_text("", encoding="utf-8")
        code, out, err = run(
            capsys, "train-comb", "--config", workdir / "config.json", "--train", workdir / "corpus.jsonl",
            "--val", workdir / "empty.jsonl", "--out", workdir / "weights.cgcm", "--seed", "0",
        )
        assert (code, out) == (2, "")
        assert err == "cogen: train-comb failed: harvesting produced no usable examples\n"
        assert not (workdir / "weights.cgcm").exists()

    def test_backends_whose_vocabularies_differ_exit_2(self, workdir, capsys):
        # The large table's tokens in reverse order: as many ids, each
        # naming another token, so the harvest's pairs of views would
        # misalign.
        params = json.loads((workdir / "llm_table.json").read_text())
        params["vocab"]["tokens"].reverse()
        (workdir / "llm_table.json").write_text(json.dumps(params), encoding="utf-8")
        code, out, err = run(
            capsys, "train-comb", "--config", workdir / "config.json", "--train", workdir / "corpus.jsonl",
            "--val", workdir / "corpus.jsonl", "--out", workdir / "weights.cgcm", "--seed", "0",
        )
        assert (code, out) == (2, "")
        assert err == "cogen: train-comb failed: fusing two backends requires them to share one vocabulary\n"
        assert not (workdir / "weights.cgcm").exists()


class TestConfig:
    def test_unknown_top_key_rejected(self, workdir):
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["surprise"] = 1
        (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        with pytest.raises(InvalidConfigError, match="unknown keys"):
            load_config(workdir / "config.json")

    def test_missing_params_file_rejected(self, workdir):
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["backends"]["slm"]["params"] = "nowhere.json"
        (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        with pytest.raises(InvalidConfigError, match="does not exist"):
            load_config(workdir / "config.json")

    def test_sampling_keys_are_the_wire_keys(self, workdir):
        # One list of sampling keys: the config accepts exactly the keys
        # a generate request carries.
        wanted = SamplingConfig(temperature=0.5, top_p=0.8, max_new_tokens=7, seed=3, greedy=True)
        wire = sampling_to_wire(wanted)
        assert set(wire) == {f.name for f in fields(SamplingConfig)}
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["sampling"] = wire
        (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        assert load_config(workdir / "config.json").sampling == wanted
        cfg["sampling"]["top_k"] = 5
        (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        with pytest.raises(InvalidConfigError, match="unknown keys in sampling"):
            load_config(workdir / "config.json")

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("backends",), [], "backends must be dict, not list"),
            (("backends", "slm"), "table", "backends.slm must be dict, not str"),
            (("sampling", "temperature"), "hot", "sampling.temperature must be float, not str"),
            (("external",), {"top_k": "ten"}, "external.top_k must be int, not str"),
            (("audit",), "false", "audit must be bool, not str"),
            (("external",), {"top_k": 0}, "external.top_k must be >= 1, not 0"),
            (("backends", "slm", "kind"), "quantum", "backends.slm: bad kind/role: 'quantum' is not a valid BackendKind"),
            (("backends", "slm", "role"), "edge", "backends.slm: bad kind/role: 'edge' is not a valid Role"),
            (("templates_dir",), "no_templates", "no_templates does not exist"),
        ],
        ids=[
            "backends-list", "backend-string", "sampling-type", "external-top-k", "audit-string",
            "external-top-k-zero", "backend-kind", "backend-role", "templates-dir",
        ],
    )
    def test_mistyped_value_exits_2(self, workdir, capsys, path, value, message):
        cfg = json.loads((workdir / "config.json").read_text())
        target = cfg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        with pytest.raises(InvalidConfigError, match=re.escape(message)):
            load_config(workdir / "config.json")
        code, _, err = run(
            capsys, "generate", "--config", workdir / "config.json",
            "--corpus", workdir / "corpus.jsonl", "--mode", "slm", "--seed", "0",
        )
        assert code == 2
        assert message in err

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("ngram", {"n": 2, "alpha": 0.1}, "missing keys: ['corpus']"),
            ("ngram", {"n": "two", "corpus": ["A B C"]}, "n must be int, not str"),
            ("ngram", {"corpus": ["A B C"], "policy": "char"}, "unknown keys: ['policy']"),
            ("ngram", '{"n": 2, "corpus": ["A B', "is not valid UTF-8 JSON"),
            ("table", {"vocab": TABLE_VOCAB, "rules": [{"prefix": []}]},
             "missing keys in rules[0]: ['next']"),
            ("table", {"vocab": {"tokens": ["A", "</s>"]}}, "vocab tokens must be strings"),
            ("table", {"vocab": TABLE_VOCAB, "rules": [{"prefix": "AB", "next": {"A": 1}}]},
             "rules[0].prefix must be list[str], not str"),
            ("table", {"vocab": TABLE_VOCAB, "rules": [{"prefix": [], "next": {"A": True, "B": 1}}]},
             "rules[0].next must be dict[str, float], not dict"),
            ("table", {"vocab": TABLE_VOCAB, "keyed": [{"needle": "x", "rules": []}]},
             "unknown keys in keyed[0]: ['rules']"),
            ("table", {"vocab": TABLE_VOCAB, "paths": [["Z"]]}, "table rule names unknown token 'Z'"),
            ("table", {"vocab": TABLE_VOCAB, "keyed": [{"needle": "x", "path": ["A", "Z"]}]},
             "table rule names unknown token 'Z'"),
            ("table", {"vocab": TABLE_VOCAB, "rules": [{"prefix": [], "next": {"A": 0}}]},
             "table rule has no probability mass"),
            ("table", {"vocab": TABLE_VOCAB, "default": {"A": -1}},
             "table probabilities must be finite and non-negative"),
        ],
        ids=[
            "no-corpus", "n-string", "policy-key", "truncated", "rule-without-next",
            "vocab-without-unk", "string-prefix", "bool-probability", "keyed-rules",
            "path-unknown-token", "keyed-path-unknown-token", "no-mass", "negative-default",
        ],
    )
    def test_bad_params_file_exits_2_naming_it(self, workdir, capsys, kind, params, message):
        text = params if isinstance(params, str) else json.dumps(params)
        (workdir / "params.json").write_text(text, encoding="utf-8")
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["backends"]["slm"] = {"kind": kind, "role": "small_device", "params": "params.json"}
        (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        code, _, err = run(
            capsys, "generate", "--config", workdir / "config.json",
            "--corpus", workdir / "corpus.jsonl", "--mode", "slm", "--seed", "0",
        )
        assert code == 2
        assert message in err and "params.json" in err
        if "policy" in params:
            assert "['policy']" in err

    def test_listen_env_overrides_address(self, workdir, monkeypatch):
        monkeypatch.setenv("COGEN_LISTEN", "127.0.0.1:9999")
        config = load_config(workdir / "config.json")
        assert config.service_address == "127.0.0.1:9999"

    def test_an_external_large_backend_without_an_endpoint_exits_2(self, workdir, capsys):
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["backends"]["llm"] = {"kind": "external_http", "role": "large_cloud"}
        (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        code, out, err = run(
            capsys, "generate", "--config", workdir / "config.json",
            "--corpus", workdir / "corpus.jsonl", "--mode", "fuse", "--seed", "0",
        )
        assert (code, out) == (2, "")
        assert err == "cogen: generate failed: external_http backend needs external.endpoint in config\n"


class TestServeCommand:
    def test_serve_answers_hello_over_loopback(self, workdir):
        import re
        import subprocess
        import sys
        import time

        from cogen.service import ServiceClient

        proc = subprocess.Popen(
            [
                sys.executable, "-m", "cogen.cli", "serve",
                "--config", str(workdir / "config.json"),
                "--backend", "llm", "--listen", "127.0.0.1:0",
                "--log", str(workdir / "requests.log"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"serving llm on 127\.0\.0\.1:(\d+)", line)
            assert match, line
            port = int(match.group(1))
            client = ServiceClient(("127.0.0.1", port))
            for _ in range(20):
                try:
                    assert len(client.hello()) == 16
                    break
                except Exception:
                    time.sleep(0.05)
                    client = ServiceClient(("127.0.0.1", port))
            else:
                pytest.fail("service never answered")
            client.close()
            log_rows = [
                json.loads(l) for l in (workdir / "requests.log").read_text().splitlines()
            ]
            assert log_rows and "digest" in log_rows[0]
            assert all("payload_hex" not in row for row in log_rows)
        finally:
            proc.terminate()
            proc.communicate(timeout=10)  # waits, and closes both pipes

    def test_a_log_path_that_cannot_be_opened_exits_2_naming_it(self, workdir):
        import subprocess
        import sys

        log_path = workdir / "missing" / "requests.log"
        done = subprocess.run(
            [
                sys.executable, "-m", "cogen.cli", "serve",
                "--config", str(workdir / "config.json"),
                "--backend", "llm", "--listen", "127.0.0.1:0", "--log", str(log_path),
            ],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert done.returncode == 2
        assert "serving" not in done.stdout
        assert str(log_path) in done.stderr

    @pytest.mark.parametrize("address", ["nohost", "127.0.0.1:70000"])
    def test_malformed_listen_address_exits_2_naming_it(self, workdir, capsys, address):
        code, _, err = run(capsys, "serve", "--config", workdir / "config.json", "--listen", address)
        assert code == 2
        assert repr(address) in err and "port" in err

    def test_serving_a_remote_backend_exits_2(self, workdir, capsys):
        # A remote backend is a client of some service, not a model to serve.
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["backends"]["far"] = {"kind": "remote", "role": "large_cloud"}
        (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        code, out, err = run(
            capsys, "serve", "--config", workdir / "config.json", "--backend", "far", "--listen", "127.0.0.1:0"
        )
        assert (code, out) == (2, "")
        assert err == "cogen: serve failed: remote backends are built per session, not from params\n"


class TestHelp:
    def test_top_level_help_matches_golden(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        golden = (Path(__file__).parent / "goldens" / "cli_help.txt").read_text(encoding="utf-8")
        assert out == golden
        for name in ("serve", "generate", "train-comb", "corpus", "eval", "visualize"):
            assert name in out

    def test_generate_help_names_every_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--config", "--corpus", "--index", "--mode", "--strategy",
                     "--seed", "--greedy", "--remote", "--slm", "--llm",
                     "--trace-out", "--max-new-tokens"):
            assert flag in out
