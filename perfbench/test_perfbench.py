"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402


class _Bare:
    def next_distribution(self, request):
        return request


class _Full(_Bare):
    vocab = "v"
    role = "r"
    kind = "k"

    def generate_remote(self, instruction, prefix_ids, sampling):
        return [1, 2]


def test_wrapper_forwards_only_what_the_backend_has():
    full = tracing.TimedBackend(_Full(), "llm", tracing.Meter())
    assert (full.vocab, full.role, full.kind) == ("v", "r", "k")
    assert hasattr(full, "generate_remote")
    bare = tracing.TimedBackend(_Bare(), "llm", tracing.Meter())
    for attr in ("vocab", "role", "kind", "generate_remote"):
        assert not hasattr(bare, attr), attr


def test_session_list_is_fixed_by_the_seed():
    workload = wl.WORKLOADS["local-mix"]
    first = wl.session_list(workload, 3)
    assert first == wl.session_list(workload, 3)
    assert first != wl.session_list(workload, 4)
    assert len(first) == workload.records * len(workload.modes) * workload.seeds_per_pair
    assert len({(s.record, s.mode, s.seed) for s in first}) == len(first)


def test_perplexity_mean_leaves_out_infinite_records():
    assert wl.finite_mean([1.5, float("inf"), 2.5]) == (2.0, 1)
    assert wl.finite_mean([1.5, 2.5]) == (2.0, 0)
    with pytest.raises(RuntimeError):
        wl.finite_mean([float("inf")])


def test_traced_pass_decodes_like_the_plain_pass():
    workload = wl.Workload(
        "tiny", ("slm_only", "learnable", "first_k(8)", "sketch", "full_content"), records=2
    )
    env, _ = wl.set_up(workload, 5, with_service=False, trace=False)
    specs = wl.session_list(workload, 5)
    plain, _ = wl.run_pass(env, specs, env.slms, env.llm)
    meter = tracing.Meter(capture=True)
    slms = {u: tracing.TimedBackend(s, "slm", meter) for u, s in env.slms.items()}
    traced, _ = wl.run_pass(env, specs, slms, tracing.TimedBackend(env.llm, "llm", meter))
    assert wl.session_digest(env, specs, plain) == wl.session_digest(env, specs, traced)
    assert meter.calls["slm"] and meter.calls["llm"] and tracing.step_pairs(meter.events)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "workload, trace", [("train-comb", "0"), ("train-comb", "1"), ("local-mix", "0")]
)
def test_printed_metrics_match_benchmark_json(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert declared == (PER_LAYER_UNITS if trace == "1" else END_TO_END_UNITS)
    done = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and fields[0] in declared:
            printed[fields[0]] = fields[2]
    assert printed == declared


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "local-mix", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
