"""Benchmark of cogen: split decoding and weight-net training.

Run from the repository root:

    python3 perfbench/run.py --workload local-mix --seed 0 --seconds 12 --trace 0

Workloads: local-mix, remote-mix, long-context, train-comb (see
perfbench/README.md for why each exists). With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates plain
and traced passes and reports the per-layer metrics. Both print a
readable report first and one JSON object as the last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINS = HERE / "pins.json"
DEFAULT_SEED = 0
# Relative tolerance on pinned perplexities: training may legitimately
# reorder float64 sums; a change of quality moves them far more.
PPL_RTOL = 1e-6

END_TO_END_UNITS = {
    "tok_s": "tok/s",
    "step_us_p50": "us",
    "step_us_tail": "us",
    "session_ms_p50": "ms",
    "fused_ppl": "ppl",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "decoder.steps": "count",
    "decoder.self_us_per_step": "us",
    "decoder.score_us_per_pos": "us",
    "backends.slm.calls": "count",
    "backends.slm.us_p50": "us",
    "backends.slm.busy_share": "ratio",
    "backends.llm.calls": "count",
    "backends.llm.us_p50": "us",
    "service.calls": "count",
    "service.rtt_us_p50": "us",
    "service.rtt_us_tail": "us",
    "service.server_us_p50": "us",
    "service.overhead_us_p50": "us",
    "service.req_bytes_per_call": "B",
    "core.top_k_project_us": "us",
    "fusion.align_supports_us": "us",
    "fusion.fuse_us": "us",
    "combmodel.padded_top_probs_us": "us",
    "combmodel.comb_forward_us": "us",
    "core.sample_top_p_us": "us",
    "backends.conditioning_input_us": "us",
    "tokenizer.tokenize_us": "us",
    "prompting.fill_prompt_us": "us",
    "combmodel.harvest_us_per_pos": "us",
    "combmodel.harvest_yield": "ratio",
    "combmodel.train_us_per_ex_epoch": "us",
    "combmodel.comb_loss_us": "us",
    "combmodel.comb_grad_us": "us",
    "setup.world_s": "s",
    "setup.ngram_s": "s",
    "setup.comb_s": "s",
    "setup.serve_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Run:
    """What one run found: metrics, the readable report, and the checks."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.extra: dict[str, tuple[float, str]] = {}  # report-only figures
        self.notes: list[str] = []
        self.attempted = 0
        self.failed: set[int] = set()
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def environment() -> str:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return (
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"nproc={os.cpu_count()} cpu={cpu!r}"
    )


def load_pin(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def passes_until(seconds: float, run_one) -> None:
    """Call ``run_one(i)`` for passes i = 0, 1, ... until ``seconds`` have
    passed and at least MIN_PASSES passes are done."""
    from workloads import MIN_PASSES

    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_PASSES or time.perf_counter() < deadline:
        run_one(i)
        i += 1


def add_setup(run: Run, setup: dict, trace: bool) -> None:
    if trace:
        run.metrics["setup.world_s"] = setup["world"]
        run.metrics["setup.ngram_s"] = setup["ngram"]
        run.metrics["setup.comb_s"] = setup["harvest"] + setup["train"]
        run.metrics["setup.serve_s"] = setup["serve"]
    else:
        run.metrics["setup_s"] = setup["total"]


def add_setup_training(run: Run, env, setup: dict) -> None:
    """Weight-net figures from the set-up's harvest and training."""
    run.metrics["combmodel.harvest_us_per_pos"] = setup["harvest"] * 1e6 / env.positions
    run.metrics["combmodel.harvest_yield"] = len(env.examples) / env.positions
    run.metrics["combmodel.train_us_per_ex_epoch"] = setup["train"] * 1e6 / env.example_epochs


def wrapped(env, meter):
    """The run's backends behind timing wrappers that share ``meter``."""
    import tracing

    slms = {user: tracing.TimedBackend(s, "slm", meter) for user, s in env.slms.items()}
    return slms, tracing.TimedBackend(env.llm, "llm", meter)


def add_service(run: Run, env, meter, server=None) -> None:
    """service.* and backends.llm.* from the first traced pass.

    On remote-mix ``server`` holds what the service saw during that pass.
    Elsewhere the pass's large-backend requests are replayed over the
    run's loopback service, and the answers checked against the
    in-process ones.
    """
    import tracing

    if server is None:
        env.service.ask("reset")
        client = tracing.Meter()
        exact = tracing.replay_through_service(
            meter.events, tracing.TimedBackend(env.remote, "llm", client)
        )
        run.check(exact, "the service answered replayed requests unlike the in-process backend")
        server = env.service.ask("stats")
        backend_ns = meter.calls["llm"]
        run.notes.append("service.* replay this workload's large-backend requests over loopback")
    else:
        client = meter
        backend_ns = server["backend_ns"]
    metrics, tail, generate_ms = tracing.service_metrics(
        client, server["backend_ns"], server["request_bytes"]
    )
    run.metrics.update(metrics)
    run.notes.append(f"service.rtt_us_tail is p{tail:g}")
    if generate_ms:
        run.extra["service.generate_ms_p50"] = (statistics.median(generate_ms), "ms")
    run.metrics["backends.llm.calls"] = len(backend_ns)
    run.metrics["backends.llm.us_p50"] = statistics.median(backend_ns) / 1e3


def mode_table(run: Run, env, specs, first, best) -> None:
    """Per-mode session counts, failures and median step time, for the report."""
    run.notes.append(f"{'mode':34s} {'sessions':>8s} {'failed':>6s} {'step_us_p50':>11s}")
    for index, mode in enumerate(env.modes):
        picked = [i for i, spec in enumerate(specs) if spec.mode == index]
        failed = sum(1 for i in picked if first[i].error)
        steps = [best[i] / first[i].steps / 1e3 for i in picked if first[i].steps]
        median = f"{statistics.median(steps):11.1f}" if steps else f"{'-':>11s}"
        run.notes.append(f"{mode.label():34s} {len(picked):8d} {failed:6d} {median}")


def mean_of_medians(groups) -> float:
    """Mean over the groups of each group's median.

    Modes cost very different amounts, and the mix workloads hold as many
    sessions of cheap modes as of fused ones, so the median over all
    sessions fell between two clusters and noise moved it from one to the
    other. Each mode's own median does not jump.
    """
    return statistics.fmean(statistics.median(g) for g in groups if g)


def mode_throughput(env, specs, first, best) -> float:
    """Tokens per second of each mode that emitted tokens, averaged over the
    modes, so that how many tokens each mode happens to emit under a seed
    does not move the figure."""
    rates = []
    for index in range(len(env.modes)):
        picked = [i for i, spec in enumerate(specs) if spec.mode == index]
        tokens = sum(len(first[i].tokens) for i in picked)
        if tokens:
            rates.append(tokens * 1e9 / sum(best[i] for i in picked))
    return statistics.fmean(rates)


def session_layers(run: Run, env, specs, outs, meter, marks, server) -> None:
    """Per-layer figures of the first traced pass of a session workload."""
    import tracing

    busy = [(b[0] - a[0], b[1] - a[1]) for a, b in zip([(0, 0)] + marks, marks)]
    ok = [i for i, out in enumerate(outs) if not out.error]
    run.metrics["decoder.steps"] = sum(out.steps for out in outs)
    run.metrics["decoder.self_us_per_step"] = (
        sum(outs[i].ns - sum(busy[i]) for i in ok) / sum(outs[i].steps for i in ok) / 1e3
    )
    run.metrics["backends.slm.calls"] = len(meter.calls["slm"])
    run.metrics["backends.slm.us_p50"] = statistics.median(meter.calls["slm"]) / 1e3
    run.metrics["backends.slm.busy_share"] = meter.busy["slm"] / sum(out.ns for out in outs)
    sketch = [i for i in ok if env.modes[specs[i].mode].kind == "sketch_then_fill"]
    if sketch:
        run.extra["prompting.draft_share"] = (
            sum(busy[i][1] for i in sketch) / sum(outs[i].ns for i in sketch),
            "ratio",
        )
    add_service(run, env, meter, server)
    run.metrics.update(
        tracing.replay(
            meter.events, env.comb, env.world.tokenizer, env.world.test_records, env.examples
        )
    )


class Passes:
    """Folds passes as they end, so memory does not grow with their count.

    Keeps the first pass whole, each unit's fastest time, the pass wall
    times and the distinct output digests; a unit's time is the fastest
    of its repeats, because contention from other work on the machine
    only ever slows a run down.
    """

    def __init__(self, digest) -> None:
        self.digest = digest  # pass -> digest of its outputs
        self.first = None
        self.best: list[int] = []
        self.walls: list[int] = []
        self.digests: set[str] = set()

    def add(self, units, unit_ns, wall_ns: int) -> None:
        self.digests.add(self.digest(units))
        self.walls.append(wall_ns)
        if self.first is None:
            self.first, self.best = units, list(unit_ns)
        else:
            self.best = [min(a, b) for a, b in zip(self.best, unit_ns)]


def measure_sessions(workload, seed: int, seconds: float, trace: bool) -> Run:
    import tracing
    import workloads as wl

    run = Run()
    with_service = workload.remote or workload.verify or trace
    env, setup = wl.set_up_repeatedly(workload, seed, with_service, trace)
    try:
        specs = wl.session_list(workload, seed)
        plain = Passes(lambda outs: wl.session_digest(env, specs, outs))
        traced = Passes(plain.digest)
        meter = tracing.Meter(capture=True)
        marks: list[tuple[int, int]] = []  # cumulative (slm, llm) busy ns after each session
        server: dict = {}

        def add(passes: Passes, result) -> None:
            outs, wall = result
            passes.add(outs, [out.ns for out in outs], wall)

        def run_one(i: int) -> None:
            if not trace or i % 2 == 0:
                add(plain, wl.run_pass(env, specs, env.slms, env.llm))
            elif traced.first is not None:  # later traced passes only feed the overhead ratio
                add(traced, wl.run_pass(env, specs, *wrapped(env, tracing.Meter())))
            else:
                if workload.remote:
                    env.service.ask("reset")
                after = lambda spec, out: marks.append((meter.busy["slm"], meter.busy["llm"]))  # noqa: E731
                add(traced, wl.run_pass(env, specs, *wrapped(env, meter), after))
                if workload.remote:
                    server.update(env.service.ask("stats"))

        passes_until(seconds, run_one)
        upload = env.service.ask("stats") if workload.remote and not trace else None
        first, best = plain.first, plain.best
        digest = wl.session_digest(env, specs, first)
        run.notes.append(f"digest {digest}")
        run.check(len(plain.digests | traced.digests) == 1, "passes disagree on the session outputs")
        run.attempted = len(specs)
        run.failed = {i for i, out in enumerate(first) if out.error}
        unexpected = wl.unexpected_failures(env, specs, first)
        run.check(not unexpected, f"{len(unexpected)} sessions failed other than by the known sketch defect")
        pin = load_pin(workload.name, seed)
        if pin is not None and pin != digest:
            run.check(False, f"digest differs from the pin {pin}")
            run.failed = set(range(len(specs)))
        if workload.verify and not trace:
            bad, audited = wl.verify(env, specs, first)
            run.failed |= bad
            run.check(not bad, f"{len(bad)} sessions failed remote = local or the privacy audit")
            run.notes.append(f"verify: remote = local and privacy audit over {audited} payloads; {len(bad)} failed")
        ppl, left_out, positions, score_ns = wl.fused_ppl(env)
        run.notes.append(f"fused_ppl leaves out {left_out} test records at infinite perplexity")
        mode_table(run, env, specs, first, best)

        if trace:
            server = server if workload.remote else None
            session_layers(run, env, specs, traced.first, meter, marks, server)
            run.metrics["decoder.score_us_per_pos"] = score_ns / positions / 1e3
            add_setup_training(run, env, setup)
            run.metrics["trace.overhead_ratio"] = statistics.median(
                traced.walls
            ) / statistics.median(plain.walls)
        else:
            ok = [i for i, out in enumerate(first) if not out.error]
            step_us = [best[i] / first[i].steps / 1e3 for i in ok]
            tail = tracing.tail_percentile(len(step_us))
            run.notes.append(
                f"each session timed as the fastest of {len(plain.walls)} passes; "
                f"step_us_tail is p{tail:g} of {len(step_us)} sessions"
            )
            run.metrics.update(
                tok_s=mode_throughput(env, specs, first, best),
                step_us_p50=mean_of_medians(
                    [best[i] / first[i].steps / 1e3 for i in ok if specs[i].mode == mode]
                    for mode in range(len(env.modes))
                ),
                step_us_tail=tracing.percentile(step_us, tail),
                session_ms_p50=mean_of_medians(
                    [best[i] / 1e6 for i in ok if specs[i].mode == mode]
                    for mode in range(len(env.modes))
                ),
                fused_ppl=ppl,
            )
            run.extra["fused_ppl_left_out"] = (left_out, "records")
            if upload is not None:
                tokens = sum(len(out.tokens) for out in first) * len(plain.walls)
                run.extra["upload_bytes_per_tok"] = (sum(upload["request_bytes"]) / tokens, "B/tok")
        add_setup(run, setup, trace)
    finally:
        env.close()
    return run


def measure_training(workload, seed: int, seconds: float, trace: bool) -> Run:
    import tracing
    import workloads as wl

    run = Run()
    env, setup = wl.set_up_repeatedly(workload, seed, trace, trace)
    try:
        # A pass's units: its harvest, its training, then each scoring call.
        plain = Passes(lambda p: f"{p.digest()} {[s[3] for s in p.score]}")
        traced = Passes(plain.digest)
        meter = tracing.Meter(capture=True)
        marks: list[int] = []

        def add(passes: Passes, p) -> None:
            passes.add(p, [p.harvest_ns, p.train_ns] + [s[1] for s in p.score], p.wall_ns)

        def run_one(i: int) -> None:
            if not trace or i % 2 == 0:
                add(plain, wl.train_pass(env, env.slms, env.llm))
            elif traced.first is not None:
                add(traced, wl.train_pass(env, *wrapped(env, tracing.Meter())))
            else:
                after = lambda: marks.append(meter.total_busy())  # noqa: E731
                add(traced, wl.train_pass(env, *wrapped(env, meter), after))

        passes_until(seconds, run_one)
        first = plain.first
        scored = {name: first.ppl(name) for name, _ in wl.SCORING}
        ppl = {name: value for name, (value, _) in scored.items()}
        left_out = {name: n for name, (_, n) in scored.items()}
        run.notes.append(
            f"harvest digest {first.digest()}; perplexity {ppl}; "
            f"test records left out at infinite perplexity {left_out}"
        )
        run.check(
            len(plain.digests | traced.digests) == 1,
            "passes disagree on the harvest or the perplexities",
        )
        run.attempted = wl.operations(env)
        pin = load_pin(workload.name, seed)
        if pin is not None and not (
            pin["harvest"] == first.digest()
            and not any(left_out.values())
            and all(abs(ppl[k] - v) <= PPL_RTOL * v for k, v in pin["ppl"].items())
        ):
            run.check(False, f"harvest or perplexity differs from the pin {pin}")
            run.failed = set(range(run.attempted))
        harvest_ns, train_ns, *score_ns = plain.best
        positions = [s[2] for s in first.score]
        score_us_per_pos = sum(score_ns) / sum(positions) / 1e3
        if not trace:
            step_us = [ns / n / 1e3 for ns, n in zip(score_ns, positions)]
            tail = tracing.tail_percentile(len(step_us))
            run.notes.append(
                f"sessions are the {len(step_us)} scoring calls, each timed as the fastest of "
                f"{len(plain.walls)} passes; step_us_tail is p{tail:g}"
            )
            # Every phase handles token positions: a harvested position, an
            # example trained for one epoch, a scored position.
            handled = first.positions + first.example_epochs + sum(positions)
            run.metrics.update(
                tok_s=handled * 1e9 / (harvest_ns + train_ns + sum(score_ns)),
                step_us_p50=statistics.median(step_us),
                step_us_tail=tracing.percentile(step_us, tail),
                session_ms_p50=statistics.median(score_ns) / 1e6,
                fused_ppl=ppl["learnable"],
            )
            run.extra["train_ex_s"] = (first.example_epochs * 1e9 / train_ns, "ex/s")
            run.extra["harvest_pos_s"] = (first.positions * 1e9 / harvest_ns, "pos/s")
            run.extra["score_pos_s"] = (1e6 / score_us_per_pos, "pos/s")
            for name in ("mean", "max"):
                run.extra[f"fused_ppl[{name}]"] = (ppl[name], "ppl")
            run.extra["fused_ppl_left_out"] = (left_out["learnable"], "records")
        else:
            t = traced.first
            scored = sum(s[2] for s in t.score)
            run.metrics["decoder.steps"] = scored
            run.metrics["decoder.self_us_per_step"] = (
                (sum(s[1] for s in t.score) - (meter.total_busy() - marks[0])) / scored / 1e3
            )
            run.metrics["decoder.score_us_per_pos"] = score_us_per_pos
            run.metrics["backends.slm.calls"] = len(meter.calls["slm"])
            run.metrics["backends.slm.us_p50"] = statistics.median(meter.calls["slm"]) / 1e3
            run.metrics["backends.slm.busy_share"] = meter.busy["slm"] / t.wall_ns
            add_service(run, env, meter)
            run.metrics.update(
                tracing.replay(meter.events, t.comb, env.world.tokenizer, env.world.test_records, t.examples)
            )
            run.metrics["combmodel.harvest_us_per_pos"] = harvest_ns / first.positions / 1e3
            run.metrics["combmodel.harvest_yield"] = len(first.examples) / first.positions
            run.metrics["combmodel.train_us_per_ex_epoch"] = train_ns / first.example_epochs / 1e3
            run.metrics["trace.overhead_ratio"] = statistics.median(
                traced.walls
            ) / statistics.median(plain.walls)
        add_setup(run, setup, trace)
    finally:
        env.close()
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cogen" / "__init__.py").is_file():
        print(f"run.py: no cogen sources at {SRC}; run it from a cogen checkout", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy is first imported here or in the
    # service process: the weight net's small products only lose time
    # handing work to a second thread, which waits on whatever else the
    # other core is running (3-epoch training took 174 ms with one thread
    # and 246 ms with two on a 2-core machine).
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)
    measure = measure_sessions if workload.modes else measure_training
    run = measure(workload, args.seed, args.seconds, trace)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    if not trace:
        run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.extra["fail_ratio"] = (len(run.failed) / run.attempted, "ratio")
    if set(run.metrics) != set(units):
        raise RuntimeError(f"measured {sorted(run.metrics)}, declared {sorted(units)}")

    print(f"# cogen benchmark: workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env: {environment()}")
    for note in run.notes:
        print(f"# {note}")
    for problem in run.problems:
        print(f"# CHECK FAILED: {problem}")
    for name, value in run.metrics.items():
        print(f"{name:34s} {value:16.6f} {units[name]}")
    for name, (value, unit) in run.extra.items():
        print(f"{name:34s} {value:16.6f} {unit}  (report only)")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {name: {"value": run.metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
