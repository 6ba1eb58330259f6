"""End-to-end coverage of every subcommand over the shipped fixtures."""

import json
import re
import shutil
import socket
from dataclasses import fields
from pathlib import Path

import pytest

from cogen import service
from cogen.backends import Role
from cogen.cli import main
from cogen.config import build_backend, load_config
from cogen.core import SamplingConfig
from cogen.errors import InvalidConfigError
from cogen.service import ServeConfig, sampling_to_wire, serve

FIXTURES = Path(__file__).parent / "fixtures"


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
        ],
        ids=["first-k-count", "fixed-weight", "zero-max-new-tokens"],
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

    def test_integer_too_long_to_parse_exits_2(self, workdir, capsys):
        # Past the interpreter's int-parsing cap json.loads raises a bare
        # ValueError, not a JSONDecodeError.
        bad = workdir / "bad.jsonl"
        bad.write_text('\n{"user_id": ' + "9" * 5000 + "}\n", encoding="utf-8")
        code, _, err = run(capsys, "corpus", "validate", "--in", bad)
        assert code == 2
        assert "line 2" in err


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

    def test_wtl(self, workdir, capsys):
        code, out, _ = run(capsys, "eval", "wtl", "--judgments", workdir / "judgments.tsv")
        assert code == 0
        assert "38/2/10" in out
        assert "76.0%" in out


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
            (("sampling", "temperature"), "hot", "sampling temperature must be float"),
            (("external",), {"top_k": "ten"}, "external.top_k must be int, not str"),
            (("audit",), "false", "audit must be bool, not str"),
        ],
        ids=["backends-list", "backend-string", "sampling-type", "external-top-k", "audit-string"],
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

    def test_listen_env_overrides_address(self, workdir, monkeypatch):
        monkeypatch.setenv("COGEN_LISTEN", "127.0.0.1:9999")
        config = load_config(workdir / "config.json")
        assert config.service_address == "127.0.0.1:9999"


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
            proc.wait(timeout=10)


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
