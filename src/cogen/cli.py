"""Command-line entry point wiring every module together.

Exit codes: 0 success, 1 usage error, 2 data/contract error, 3 transport
error. With the COGEN_CI environment variable set, subcommands that
consume randomness demand an explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .audit import AuditedBackend, AuditLog, privacy_audit
from .backends import BackendKind
from .combmodel import CombTrainConfig, comb_load, comb_save, comb_train, harvest_examples
from .config import build_backend, load_config
from .corpus import (
    corpus_stats,
    filter_lamp,
    load_corpus,
    render_stats,
    render_verb_stats,
    save_corpus,
    split_train_val,
    task_verb_stats,
    tsv_lines,
)
from .decoder import DecodeMode, WeightTrace, decode, read_trace, session_for_record, write_trace
from .errors import (
    CogenError,
    InvalidConfigError,
    InvalidInputError,
    ProtocolError,
    ServiceStartupError,
    SessionError,
    TransportError,
)
from .fusion import FusionStrategy
from .prompting import TemplateLibrary
from .report import (
    aggregate_scores,
    read_pairs,
    read_scores,
    render_score_grid,
    render_stability_curves,
    render_weight_trace,
    score_pair,
    win_tie_lose,
)
from .service import ServeConfig, ServiceClient, RemoteBackend, serve
from .tokenizer import Tokenizer, split_text

CI_ENV = "COGEN_CI"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRANSPORT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cogen", description="collaborative split-inference text generation")
    parser.add_argument("--version", action="version", version=f"cogen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the context-blind logit service")
    p.add_argument("--config", required=True, help="config file path")
    p.add_argument("--backend", default="llm", help="config backend name to serve")
    p.add_argument("--listen", default=None, help="listen address host:port")
    p.add_argument("--log", default=None, help="request-log path (digests only)")
    p.add_argument("--debug-payloads", action="store_true", help="persist raw payloads in the log")

    p = sub.add_parser("generate", help="generate one response for a corpus record")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", required=True, help="corpus file path")
    p.add_argument("--index", type=int, default=0, help="record index in the corpus")
    p.add_argument(
        "--mode",
        nargs="+",
        required=True,
        metavar="MODE [N]",
        help="slm | llm-ctx | llm-noctx | fuse | first-k N | sketch | sketch-full",
    )
    p.add_argument(
        "--strategy",
        nargs="+",
        default=["mean"],
        metavar="STRATEGY [ARG]",
        help="fixed W | mean | max | learnable PATH",
    )
    p.add_argument("--seed", type=int, default=None, help="sampling seed")
    p.add_argument("--greedy", action="store_true", help="argmax decoding")
    p.add_argument("--remote", action="store_true", help="reach the llm through the logit service")
    p.add_argument("--slm", default="slm", help="config backend name for the small model")
    p.add_argument("--llm", default="llm", help="config backend name for the large model")
    p.add_argument("--trace-out", default=None, help="write the weight trace here")
    p.add_argument("--max-new-tokens", type=int, default=None)
    p.add_argument("--template-dir", default=None, help="override the packaged prompt templates")

    p = sub.add_parser("train-comb", help="train the fusion-weight network")
    p.add_argument("--config", required=True)
    p.add_argument("--train", required=True, help="training corpus file")
    p.add_argument("--val", required=True, help="validation corpus file")
    p.add_argument("--out", required=True, help="output parameter container")
    p.add_argument("--slm", default="slm")
    p.add_argument("--llm", default="llm")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=CombTrainConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=CombTrainConfig.batch_size)
    p.add_argument("--max-epochs", type=int, default=CombTrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=CombTrainConfig.patience)

    p = sub.add_parser("corpus", help="corpus tooling")
    csub = p.add_subparsers(dest="corpus_command", required=True)
    c = csub.add_parser("validate", help="validate a corpus file")
    c.add_argument("--in", dest="path", required=True)
    c = csub.add_parser("filter", help="apply the length bounds")
    c.add_argument("--in", dest="path", required=True)
    c.add_argument("--kind", choices=("email", "paper"), required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--rejected-out", default=None)
    c = csub.add_parser("split", help="seeded 9:1 train/val split")
    c.add_argument("--in", dest="path", required=True)
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--train-out", required=True)
    c.add_argument("--val-out", required=True)
    c = csub.add_parser("stats", help="corpus statistics table")
    c.add_argument("--in", dest="path", required=True)
    c = csub.add_parser("verbs", help="task verb/object distribution")
    c.add_argument("--in", dest="path", required=True)

    p = sub.add_parser("eval", help="metrics and aggregation")
    esub = p.add_subparsers(dest="eval_command", required=True)
    e = esub.add_parser("metrics", help="BLEU/ROUGE-L over candidate/reference pairs")
    e.add_argument("--pairs", required=True, help="JSONL with item_id, candidate, reference")
    e.add_argument("--policy", choices=("whitespace", "char"), default="whitespace")
    e = esub.add_parser("aggregate", help="mean judged scores per setting")
    e.add_argument("--scores", required=True, help="TSV rows: setting, metric, item_id, rating")
    e.add_argument("--curves-out", default=None, help="write running-mean curves CSV here")
    e = esub.add_parser("wtl", help="win/tie/lose percentages")
    e.add_argument("--judgments", required=True, help="TSV rows: item_id, outcome")

    p = sub.add_parser("visualize", help="render a weight trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--format", choices=("html", "ansi"), default="html")
    p.add_argument("--swap-hues", action="store_true", help="swap the small/large hue assignment")
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")

    return parser


def _require_seed(args, default: int = 0) -> int:
    """``--seed``, else ``default``; with COGEN_CI set, ``--seed`` is required."""
    if args.seed is None:
        if os.environ.get(CI_ENV):
            raise InvalidInputError("this subcommand requires an explicit --seed when COGEN_CI is set")
        return default
    return args.seed


def _number(kind, text: str, option: str):
    try:
        return kind(text)
    except ValueError:
        raise InvalidInputError(f"{option}: {text!r} is not a valid {kind.__name__}") from None


def _parse_mode(parts: list[str], strategy: FusionStrategy) -> DecodeMode:
    name = parts[0]
    if name == "slm":
        return DecodeMode.slm_only()
    if name == "llm-ctx":
        return DecodeMode.llm_with_context()
    if name == "llm-noctx":
        return DecodeMode.llm_no_context()
    if name == "fuse":
        return DecodeMode.fusion(strategy)
    if name == "first-k":
        if len(parts) != 2:
            raise InvalidInputError("--mode first-k needs a token count, e.g. --mode first-k 8")
        return DecodeMode.first_k_mode(_number(int, parts[1], "--mode first-k"), strategy)
    if name == "sketch":
        return DecodeMode.sketch("sketch")
    if name == "sketch-full":
        return DecodeMode.sketch("full_content")
    raise InvalidInputError(f"unknown mode {name!r}")


def _parse_strategy(parts: list[str]) -> FusionStrategy:
    name = parts[0]
    if name == "mean":
        return FusionStrategy.mean()
    if name == "max":
        return FusionStrategy.max_pool()
    if name == "fixed":
        if len(parts) != 2:
            raise InvalidInputError("--strategy fixed needs a weight, e.g. --strategy fixed 0.7")
        return FusionStrategy.fixed(_number(float, parts[1], "--strategy fixed"))
    if name == "learnable":
        if len(parts) != 2:
            raise InvalidInputError("--strategy learnable needs a parameter container path")
        return FusionStrategy.learnable(comb_load(parts[1]))
    raise InvalidInputError(f"unknown strategy {name!r}")


def _record_at(path: str, index: int):
    records = load_corpus(path)
    if not 0 <= index < len(records):
        raise InvalidInputError(f"record index {index} outside corpus of {len(records)} records")
    return records[index]


def _cmd_serve(args) -> int:
    config = load_config(args.config)
    backend = build_backend(config.backend(args.backend))
    address = args.listen or config.service_address
    handle = serve(
        backend,
        address,
        ServeConfig(log_path=args.log, debug_payloads=args.debug_payloads),
    )
    host, port = handle.address
    print(f"serving {args.backend} on {host}:{port}", flush=True)
    try:
        handle._thread.join()
    except KeyboardInterrupt:
        handle.stop()
    return EXIT_OK


def _cmd_generate(args) -> int:
    config = load_config(args.config)
    seed = _require_seed(args, config.sampling.seed)
    sampling = replace(config.sampling, seed=seed, greedy=args.greedy or config.sampling.greedy)
    if args.max_new_tokens is not None:
        sampling = replace(sampling, max_new_tokens=args.max_new_tokens)
    strategy = _parse_strategy(args.strategy)
    mode = _parse_mode(args.mode, strategy)
    record = _record_at(args.corpus, args.index)

    slm = build_backend(config.backend(args.slm))
    client = None
    try:
        llm = None
        if mode.kind != "slm_only":
            llm_spec = None if args.remote else config.backend(args.llm)
            if llm_spec is None or llm_spec.kind == BackendKind.REMOTE:
                client = ServiceClient(config.service_address)
                llm = RemoteBackend(client, slm.vocab)
            elif llm_spec.kind == BackendKind.EXTERNAL_HTTP:
                from .external import ExternalBackend, HttpCompletionsClient

                if not config.external_endpoint:
                    raise InvalidConfigError("external_http backend needs external.endpoint in config")
                client = HttpCompletionsClient(config.external_endpoint)
                llm = ExternalBackend(client, slm.vocab, top_k=config.external_top_k)
            else:
                llm = build_backend(llm_spec)

        template_dir = args.template_dir or config.templates_dir
        library = TemplateLibrary(template_dir) if template_dir else None
        audit_log = AuditLog() if config.audit else None
        if audit_log is not None and llm is not None:
            llm = AuditedBackend(llm, audit_log)
        session = session_for_record(record, mode, sampling, slm, llm)
        trace = WeightTrace(mode=mode.label(), seed=sampling.seed) if args.trace_out else None
        result = decode(session, template_library=library, trace=trace)
    finally:
        if client is not None:
            client.close()
    # slm_only sends the large backend nothing and its wrapper skips the
    # waived llm_only_with_context upload, so an empty log has no verdict.
    if audit_log:
        verdict = privacy_audit(audit_log, record.context_bundle())
        if not verdict.passed:
            print(verdict.render(), file=sys.stderr)
            return EXIT_DATA
    speaker = llm if mode.kind in ("llm_only_with_context", "llm_only_no_context") else slm
    print(result.text(Tokenizer(speaker.vocab)))
    if trace is not None:
        write_trace(trace, args.trace_out)
    return EXIT_OK


def _cmd_train_comb(args) -> int:
    config = load_config(args.config)
    seed = _require_seed(args)
    slm = build_backend(config.backend(args.slm))
    llm = build_backend(config.backend(args.llm))
    tokenizer = Tokenizer(slm.vocab)
    train_records = load_corpus(args.train)
    val_records = load_corpus(args.val)
    train_examples, train_stats = harvest_examples(slm, llm, train_records, tokenizer)
    val_examples, _ = harvest_examples(slm, llm, val_records, tokenizer)
    if not train_examples or not val_examples:
        raise InvalidInputError("harvesting produced no usable examples")
    train_config = CombTrainConfig(
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
        seed=seed,
    )
    params, report = comb_train(train_examples, val_examples, train_config)
    comb_save(params, args.out)
    print(
        f"trained on {len(train_examples)} examples "
        f"({train_stats.skipped_missing_target} skipped, {report.degenerate_examples} with a floored loss), "
        f"best val loss {report.best_val_loss:.6f} at epoch {report.best_epoch}, "
        f"{'stopped early' if report.stopped_early else 'ran all epochs'}; saved to {args.out}"
    )
    return EXIT_OK


def _cmd_corpus(args) -> int:
    if args.corpus_command == "validate":
        records = load_corpus(args.path)
        print(f"{len(records)} records valid")
        return EXIT_OK
    if args.corpus_command == "filter":
        records = load_corpus(args.path)
        kept, rejected = filter_lamp(records, args.kind)
        save_corpus(kept, args.out)
        if args.rejected_out:
            rows = (
                {"user_id": r.record.user_id, "task": r.record.task, "reason": r.reason} for r in rejected
            )
            text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
            Path(args.rejected_out).write_text(text, encoding="utf-8")
        print(f"kept {len(kept)}, rejected {len(rejected)}")
        return EXIT_OK
    if args.corpus_command == "split":
        seed = _require_seed(args)
        records = load_corpus(args.path)
        train, val = split_train_val(records, seed)
        save_corpus(train, args.train_out)
        save_corpus(val, args.val_out)
        print(f"train {len(train)}, val {len(val)}")
        return EXIT_OK
    if args.corpus_command == "stats":
        print(render_stats(corpus_stats(load_corpus(args.path))))
        return EXIT_OK
    # verbs
    print(render_verb_stats(task_verb_stats(load_corpus(args.path))))
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.eval_command == "metrics":
        rows = read_pairs(args.pairs)
        if not rows:
            raise InvalidInputError("no candidate/reference pairs found")
        bleus, fs = [], []
        for item_id, candidate, reference in rows:
            score = score_pair(split_text(candidate, args.policy), split_text(reference, args.policy))
            bleus.append(score.bleu)
            fs.append(score.rouge_l_f)
            print(
                f"{item_id}\tbleu={score.bleu:.4f}\t"
                f"rouge_l_p={score.rouge_l_p:.4f}\trouge_l_r={score.rouge_l_r:.4f}\t"
                f"rouge_l_f={score.rouge_l_f:.4f}"
            )
        print(f"mean\tbleu={sum(bleus)/len(bleus):.4f}\trouge_l_f={sum(fs)/len(fs):.4f}")
        return EXIT_OK
    if args.eval_command == "aggregate":
        report = aggregate_scores(read_scores(args.scores))
        print(render_score_grid(report))
        if report.rejected_rows:
            print(f"rejected {report.rejected_rows} out-of-range rows", file=sys.stderr)
        if args.curves_out:
            Path(args.curves_out).write_text(render_stability_curves(report), encoding="utf-8")
        return EXIT_OK
    # wtl
    result = win_tie_lose(outcome for _, (_item_id, outcome) in tsv_lines(args.judgments, 2))
    w, t, l = result.percentages()
    print(f"win/tie/lose: {result.cell()}  ({w}% / {t}% / {l}%)")
    return EXIT_OK


def _cmd_visualize(args) -> int:
    trace = read_trace(args.trace)
    rendered = render_weight_trace(trace, format=args.format, swap_hues=args.swap_hues)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


_COMMANDS = {
    "serve": _cmd_serve,
    "generate": _cmd_generate,
    "train-comb": _cmd_train_comb,
    "corpus": _cmd_corpus,
    "eval": _cmd_eval,
    "visualize": _cmd_visualize,
}


_TRANSPORT_ERRORS = (TransportError, ProtocolError, ServiceStartupError)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CogenError as exc:
        # A session that aborted on a transport failure is a transport error.
        cause = exc.__cause__ if isinstance(exc, SessionError) else exc
        if isinstance(cause, _TRANSPORT_ERRORS):
            print(f"cogen: transport error in {args.command}: {exc}", file=sys.stderr)
            return EXIT_TRANSPORT
        print(f"cogen: {args.command} failed: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # a path that is missing, a directory or unreadable
        print(f"cogen: {args.command} failed: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
