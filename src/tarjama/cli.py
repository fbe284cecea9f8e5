"""Command-line interface exposing the pipeline stages as subcommands.

Exit codes: 0 success, 1 validation/usage errors, 2 I/O or configuration
errors.  Every run appends a machine-readable line to the run manifest
(config hash, input hashes, versions) for reproducibility.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

from . import __version__, uniscript
from .backends import BackendError, HttpRewardScorer, TranslatorBackend
from .chunking import ChunkPolicy, plan_chunks
from .config import BackendConfig, ConfigurationError, PipelineConfig, load_config, _parse_ratios
from .corpus import (Candidate, Conversation, CorpusError, TranslatedUnit,
                     conversation_from_dict, conversation_to_dict, decompose,
                     group_units_by_conversation, identity_translate,
                     load_corpus, read_units, reconstruct, split_parts,
                     unit_from_dict, write_corpus, write_units)
from .metrics import score_example
from .ranking import FitError, PreferenceRecord, bt_fit, combine_scores
from .stats import (FilterPolicy, ReportMeta, StrataPolicy, aggregate_split,
                    apply_filter, emit_report, stratified_sample,
                    summarize_config)
from .tokenizers import TokenizerSpec
from .workqueue import enqueue, init_queue, queue_status, worker_loop

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 instead of argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_chunk_plan(conversation: Conversation, spec: TokenizerSpec,
                     policy: ChunkPolicy) -> dict[tuple[int, int], list[str]]:
    """Chunk every part of every message under the given policy."""
    plan: dict[tuple[int, int], list[str]] = {}
    for msg in conversation.messages:
        for part_index, part in enumerate(split_parts(msg.content)):
            plan[(msg.index, part_index)] = [
                c.text for c in plan_chunks(part.text, spec, policy)]
    return plan


def _read_jsonl(path: str) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def _write_jsonl(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def _chunk_policy(args, cfg: PipelineConfig) -> ChunkPolicy:
    base = cfg.chunk_policy
    return ChunkPolicy(
        target_tokens=args.target_tokens or base.target_tokens,
        window_tokens=base.window_tokens if args.window_tokens is None
        else args.window_tokens,
        hard_cap_tokens=args.hard_cap_tokens or base.hard_cap_tokens,
    )


def _backend_from_config(bc: BackendConfig) -> TranslatorBackend:
    table = {}
    if bc.table_path:
        table = json.loads(Path(bc.table_path).read_text(encoding="utf-8"))
    return TranslatorBackend(
        id=bc.id, kind=bc.kind, endpoint=bc.endpoint, model=bc.model,
        temperature=bc.temperature, max_input_tokens=bc.max_input_tokens,
        api_key_env=bc.api_key_env, table=table,
    )


def _resolve_backend(args, cfg: PipelineConfig) -> TranslatorBackend:
    bc = cfg.backend
    if getattr(args, "backend", None):
        kind = args.backend
        bc = replace(bc, kind=kind, id=getattr(args, "translator_id", None) or kind)
    if getattr(args, "endpoint", None):
        bc = replace(bc, kind="http-endpoint", endpoint=args.endpoint)
    if getattr(args, "model", None):
        bc = replace(bc, model=args.model)
    if getattr(args, "table", None):
        bc = replace(bc, kind="mock-table", table_path=args.table)
    return _backend_from_config(bc)


# -- subcommand handlers -----------------------------------------------------


def cmd_decompose(args, cfg: PipelineConfig) -> int:
    policy = _chunk_policy(args, cfg)
    conversations = load_corpus(args.input, strict=cfg.strict)
    units = []
    for conv in conversations:
        units.extend(decompose(conv, build_chunk_plan(
            conv, cfg.chunking_tokenizer, policy)))
    write_units(units, args.units_out)
    print(f"decomposed {len(conversations)} conversations into {len(units)} units")
    return 0


def cmd_enqueue(args, cfg: PipelineConfig) -> int:
    units = list(read_units(args.units))
    tasks = enqueue(args.queue, units, args.translator_id,
                    batch_size=args.batch_size or cfg.batch_size)
    print(f"enqueued {len(units)} units as {len(tasks)} tasks in {args.queue}")
    return 0


def cmd_work(args, cfg: PipelineConfig) -> int:
    backend = _resolve_backend(args, cfg)
    processed = worker_loop(
        args.queue, backend, worker_id=args.worker_id,
        ttl=args.ttl if args.ttl is not None else cfg.ttl_seconds,
        max_attempts=cfg.max_attempts,
        prompt_template=cfg.prompt_template,
        target_language=cfg.target_language,
    )
    print(f"worker {args.worker_id} completed {processed} tasks")
    return 0


def collect_translated_units(queue_dir) -> list[TranslatedUnit]:
    """Gather translated units from every done/ record."""
    units: list[TranslatedUnit] = []
    done = Path(queue_dir) / "done"
    for path in sorted(done.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        for obj in record["units"]:
            unit = unit_from_dict(obj)
            if not isinstance(unit, TranslatedUnit):
                raise CorpusError(f"{path}: done record holds a unit "
                                  "without 'translated_text'")
            units.append(unit)
    return units


def _reconstruct_corpus(units: list[TranslatedUnit],
                        sources: Optional[list[Conversation]]) -> list[Conversation]:
    grouped = group_units_by_conversation(units)
    by_id = {c.id: c for c in sources} if sources else {}
    order = [c.id for c in sources] if sources else list(grouped)
    out = []
    for conv_id in order:
        if conv_id not in grouped:
            raise CorpusError(f"no translated units for conversation {conv_id!r}")
        source = by_id.get(conv_id)
        conv = reconstruct(grouped[conv_id], split=source.split if source else "")
        if source is not None:
            conv.category = source.category
        out.append(conv)
    return out


def cmd_reconstruct(args, cfg: PipelineConfig) -> int:
    if args.translated_units:
        units = [u for u in read_units(args.translated_units)
                 if isinstance(u, TranslatedUnit)]
    else:
        units = collect_translated_units(args.from_queue)
    sources = load_corpus(args.corpus, strict=cfg.strict) if args.corpus else None
    conversations = _reconstruct_corpus(units, sources)
    write_corpus(conversations, args.out)
    print(f"reconstructed {len(conversations)} conversations")
    return 0


def _load_candidates(path: str) -> list[Candidate]:
    candidates = []
    for row in _read_jsonl(path):
        candidates.append(Candidate(
            conversation_id=row["conversation_id"],
            translator_id=row["translator_id"],
            conversation=conversation_from_dict(row["conversation"]),
        ))
    return candidates


def cmd_score(args, cfg: PipelineConfig) -> int:
    alpha = args.alpha if args.alpha is not None else cfg.alpha
    tau = args.tau if args.tau is not None else cfg.tau
    scorer = HttpRewardScorer(args.reward_endpoint) if args.reward_endpoint else None
    sources = {c.id: c for c in load_corpus(args.corpus, strict=cfg.strict)}
    rows = []
    for candidate in _load_candidates(args.candidates):
        source = sources.get(candidate.conversation_id)
        if source is None:
            raise CorpusError(
                f"candidate references unknown conversation {candidate.conversation_id!r}")
        quality = score_example(source, candidate, alpha=alpha, tau=tau,
                                tokenizer=cfg.analysis_tokenizer)
        row = {
            "conversation_id": candidate.conversation_id,
            "translator_id": candidate.translator_id,
            "split": source.split,
            "lr": quality.lr,
            "scr": quality.scr,
            "tokens": quality.tokens,
            "turns": quality.turns,
        }
        if scorer is not None:
            try:
                row["rm"] = scorer(source, candidate.conversation)
            except Exception as exc:
                logger.warning("reward scorer failed for %s/%s: %s",
                               candidate.conversation_id,
                               candidate.translator_id, exc)
        rows.append(row)
    _write_jsonl(rows, args.out)
    print(f"scored {len(rows)} candidates")
    return 0


def _parse_weights(value: Optional[str], cfg: PipelineConfig):
    if not value:
        return cfg.combine_weights
    parts = [float(x) for x in value.split(",")]
    if len(parts) != 3:
        raise ValueError("weights must be three comma-separated numbers")
    return tuple(parts)


def cmd_rank(args, cfg: PipelineConfig) -> int:
    weights = _parse_weights(args.weights, cfg)
    by_conv: dict[str, list[dict]] = {}
    for row in _read_jsonl(args.scored):
        by_conv.setdefault(row["conversation_id"], []).append(row)
    winners, rankings = [], []
    for conv_id, rows in by_conv.items():
        scored = [(row["translator_id"],
                   combine_scores(row["lr"], row["scr"], row.get("rm"), weights))
                  for row in rows]
        scored.sort(key=lambda item: (-item[1], item[0]))
        winners.append({"conversation_id": conv_id, "translator_id": scored[0][0]})
        rankings.append({
            "conversation_id": conv_id,
            "ranking": [{"translator_id": t, "score": s} for t, s in scored],
        })
    _write_jsonl(winners, args.winners_out)
    if args.ranking_out:
        _write_jsonl(rankings, args.ranking_out)
    print(f"ranked candidates for {len(winners)} conversations")
    return 0


def cmd_bt_fit(args, cfg: PipelineConfig) -> int:
    records = []
    with open(args.prefs, encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().lower() == "winner":
                continue
            count = int(row[2]) if len(row) > 2 and row[2].strip() else 1
            records.append(PreferenceRecord(row[0].strip(), row[1].strip(), count))
    result = bt_fit(records, epsilon=args.epsilon, tol=args.tol,
                    max_iters=args.max_iters)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["system", "score"])
        for system, score in sorted(result.scores.items(), key=lambda kv: -kv[1]):
            writer.writerow([system, f"{score:.6f}"])
    status = "converged" if result.converged else "did NOT converge"
    print(f"bt-fit {status} after {result.iterations} iterations "
          f"({len(result.scores)} systems)")
    return 0


def _split_stats(rows: list[dict]) -> list:
    from .metrics import QualityScore
    by_split: dict[str, list[QualityScore]] = {}
    for row in rows:
        if "split" not in row:
            raise CorpusError("scored rows carry no 'split' field; "
                              "re-run score with a source corpus")
        by_split.setdefault(row["split"], []).append(QualityScore(
            lr=row["lr"], scr=row["scr"], tokens=row["tokens"], turns=row["turns"]))
    return [aggregate_split(scores, split) for split, scores in sorted(by_split.items())]


def cmd_stats(args, cfg: PipelineConfig) -> int:
    rows = _read_jsonl(args.scored)
    splits = _split_stats(rows)
    meta = ReportMeta(tokenizer_name=cfg.analysis_tokenizer.name, alpha=cfg.alpha,
                      tau=cfg.tau, unicode_version=uniscript.TABLE_VERSION)
    report = emit_report(splits, fmt=args.format, meta=meta)
    Path(args.out).write_text(report, encoding="utf-8")
    if splits:
        summary = summarize_config(splits)
        print(f"examples={summary.total_examples} tokens={summary.total_tokens:.0f} "
              f"mean_lr={summary.mean_lr:.4f} mean_scr={summary.mean_scr:.4f} "
              f"median_turns={summary.median_turns:.2f} p95_tokens={summary.p95_tokens:.2f}")
    print(f"wrote {args.format} report to {args.out}")
    return 0


def cmd_filter(args, cfg: PipelineConfig) -> int:
    policy = FilterPolicy(
        min_lr=cfg.filter_policy.min_lr if args.min_lr is None else args.min_lr,
        min_scr=cfg.filter_policy.min_scr if args.min_scr is None else args.min_scr,
        reject_cjk=cfg.filter_policy.reject_cjk if args.reject_cjk is None
        else args.reject_cjk,
        per_split_overrides=cfg.filter_policy.per_split_overrides,
    )
    conversations = load_corpus(args.corpus, strict=cfg.strict)
    from .metrics import QualityScore
    scores: dict[str, QualityScore] = {}
    for row in _read_jsonl(args.scored):
        if row["conversation_id"] in scores:
            raise CorpusError(
                f"multiple scored rows for {row['conversation_id']!r}; rank first")
        scores[row["conversation_id"]] = QualityScore(
            lr=row["lr"], scr=row["scr"], tokens=row["tokens"], turns=row["turns"])
    items = []
    for conv in conversations:
        if conv.id not in scores:
            raise CorpusError(f"no score for conversation {conv.id!r}")
        items.append((conv, scores[conv.id]))
    kept, rejected = apply_filter(items, policy)
    logger.info("filter thresholds: min_lr=%s min_scr=%s reject_cjk=%s",
                policy.min_lr, policy.min_scr, policy.reject_cjk)
    write_corpus([conv for conv, _ in kept], args.kept_out)
    _write_jsonl([{"id": conv.id, "reasons": reasons}
                  for conv, _, reasons in rejected], args.rejected_out)
    print(f"kept {len(kept)}, rejected {len(rejected)} "
          f"(min_lr={policy.min_lr}, min_scr={policy.min_scr}, "
          f"reject_cjk={policy.reject_cjk})")
    return 0


def cmd_sample(args, cfg: PipelineConfig) -> int:
    ratios = _parse_ratios(args.ratios) if args.ratios else cfg.strata_ratios
    policy = StrataPolicy(ratios=ratios, total=args.total or cfg.sample_total)
    seed = cfg.seed if args.seed is None else args.seed
    conversations = load_corpus(args.corpus, strict=cfg.strict)
    sampled = stratified_sample(conversations, policy, seed=seed,
                                strict=not args.allow_shortfall)
    write_corpus(sampled, args.out)
    print(f"sampled {len(sampled)} of {len(conversations)} examples "
          f"(ratios={ratios}, seed={seed})")
    return 0


def cmd_queue_status(args, cfg: PipelineConfig) -> int:
    print(json.dumps(queue_status(args.queue)))
    return 0


def cmd_pipeline(args, cfg: PipelineConfig) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    backend = _resolve_backend(args, cfg)
    policy = _chunk_policy(args, cfg)
    if backend.max_input_tokens < policy.hard_cap_tokens:
        raise ValueError(
            f"backend input window ({backend.max_input_tokens} tokens) is smaller "
            f"than the chunk hard cap ({policy.hard_cap_tokens}); lower "
            f"--hard-cap-tokens or raise max_input_tokens")
    translate_system = cfg.translate_system_messages and not args.no_translate_system

    conversations = load_corpus(args.input, strict=cfg.strict)
    all_units, passthrough, translatable = [], [], []
    for conv in conversations:
        units = decompose(conv, build_chunk_plan(conv, cfg.chunking_tokenizer, policy))
        all_units.extend(units)
        for unit in units:
            if unit.role == "system" and not translate_system:
                passthrough.append(unit)
            else:
                translatable.append(unit)
    write_units(all_units, out / "units.jsonl")

    queue_dir = out / "queue"
    init_queue(queue_dir)
    if translatable:
        enqueue(queue_dir, translatable, backend.id, batch_size=cfg.batch_size)
        worker_loop(queue_dir, backend, worker_id="pipeline-worker",
                    ttl=cfg.ttl_seconds, max_attempts=cfg.max_attempts,
                    prompt_template=cfg.prompt_template,
                    target_language=cfg.target_language)
    translated = collect_translated_units(queue_dir)
    translated.extend(identity_translate(u, "passthrough") for u in passthrough)
    write_units(translated, out / "translated_units.jsonl")

    rebuilt = _reconstruct_corpus(translated, conversations)
    write_corpus(rebuilt, out / "translated_corpus.jsonl")

    candidates = [Candidate(conv.id, backend.id, conv) for conv in rebuilt]
    _write_jsonl([{
        "conversation_id": c.conversation_id,
        "translator_id": c.translator_id,
        "conversation": conversation_to_dict(c.conversation),
    } for c in candidates], out / "candidates.jsonl")

    sources = {c.id: c for c in conversations}
    scored_rows = []
    for candidate in candidates:
        quality = score_example(sources[candidate.conversation_id], candidate,
                                alpha=cfg.alpha, tau=cfg.tau,
                                tokenizer=cfg.analysis_tokenizer)
        scored_rows.append({
            "conversation_id": candidate.conversation_id,
            "translator_id": candidate.translator_id,
            "split": sources[candidate.conversation_id].split,
            "lr": quality.lr, "scr": quality.scr,
            "tokens": quality.tokens, "turns": quality.turns,
        })
    _write_jsonl(scored_rows, out / "scored.jsonl")
    _write_jsonl([{"conversation_id": r["conversation_id"],
                   "translator_id": r["translator_id"]} for r in scored_rows],
                 out / "winners.jsonl")

    splits = _split_stats(scored_rows)
    meta = ReportMeta(tokenizer_name=cfg.analysis_tokenizer.name, alpha=cfg.alpha,
                      tau=cfg.tau, unicode_version=uniscript.TABLE_VERSION)
    ext = {"markdown": "md", "csv": "csv", "json": "json"}[args.format]
    report_path = out / f"report.{ext}"
    report_path.write_text(emit_report(splits, fmt=args.format, meta=meta),
                           encoding="utf-8")
    print(f"pipeline complete: {len(conversations)} conversations -> {out}")
    print(f"report: {report_path}")
    return 0


# -- parser / dispatch -------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI config file")
    sub.add_argument("--manifest", help="run manifest path (JSONL, appended)")
    sub.add_argument("--lenient", action="store_true",
                     help="skip malformed corpus lines with a logged report "
                          "instead of failing")


def _add_chunk_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--target-tokens", type=int, default=None)
    sub.add_argument("--window-tokens", type=int, default=None)
    sub.add_argument("--hard-cap-tokens", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tarjama",
                     description="Ensemble translation curation pipeline")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("decompose", help="split a corpus into translation units")
    p.add_argument("--input", required=True)
    p.add_argument("--units-out", required=True)
    _add_chunk_flags(p)
    _add_common(p)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("enqueue", help="batch units into queue tasks")
    p.add_argument("--units", required=True)
    p.add_argument("--queue", required=True)
    p.add_argument("--translator-id", required=True)
    p.add_argument("--batch-size", type=int, default=None)
    _add_common(p)
    p.set_defaults(handler=cmd_enqueue)

    p = sub.add_parser("work", help="run one worker until the queue drains")
    p.add_argument("--queue", required=True)
    p.add_argument("--worker-id", required=True)
    p.add_argument("--ttl", type=float, default=None)
    p.add_argument("--backend", choices=("mock-identity", "mock-table", "http-endpoint"))
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--table", help="JSON lookup table for mock-table")
    _add_common(p)
    p.set_defaults(handler=cmd_work)

    p = sub.add_parser("reconstruct", help="rebuild conversations from translated units")
    p.add_argument("--translated-units")
    p.add_argument("--from-queue", help="queue dir to collect done/ records from")
    p.add_argument("--corpus", help="source corpus for split labels and ordering")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_reconstruct)

    p = sub.add_parser("score", help="score candidates with LR/SCR")
    p.add_argument("--corpus", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--reward-endpoint",
                   help="reward model URL; adds an 'rm' field to each row")
    _add_common(p)
    p.set_defaults(handler=cmd_score)

    p = sub.add_parser("rank", help="rank scored candidates per conversation")
    p.add_argument("--scored", required=True)
    p.add_argument("--winners-out", required=True)
    p.add_argument("--ranking-out")
    p.add_argument("--weights", help="lr,scr,rm weights (default 1,1,2)")
    _add_common(p)
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("bt-fit", help="fit Bradley-Terry scores from preferences")
    p.add_argument("--prefs", required=True, help="CSV: winner,loser,count")
    p.add_argument("--out", required=True, help="output CSV: system,score")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=1000)
    _add_common(p)
    p.set_defaults(handler=cmd_bt_fit)

    p = sub.add_parser("stats", help="aggregate scored rows into a per-split report")
    p.add_argument("--scored", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("markdown", "csv", "json"),
                   default="markdown")
    _add_common(p)
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("filter", help="apply quality thresholds and the CJK check")
    p.add_argument("--corpus", required=True)
    p.add_argument("--scored", required=True)
    p.add_argument("--kept-out", required=True)
    p.add_argument("--rejected-out", required=True)
    p.add_argument("--min-lr", type=float, default=None)
    p.add_argument("--min-scr", type=float, default=None)
    cjk = p.add_mutually_exclusive_group()
    cjk.add_argument("--reject-cjk", dest="reject_cjk", action="store_true",
                     default=None)
    cjk.add_argument("--keep-cjk", dest="reject_cjk", action="store_false")
    _add_common(p)
    p.set_defaults(handler=cmd_filter)

    p = sub.add_parser("sample", help="stratified sample by category labels")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ratios", help="e.g. code:1,science:1,math:2")
    p.add_argument("--total", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--allow-shortfall", action="store_true")
    _add_common(p)
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("queue-status", help="pending/leased/done/failed counts")
    p.add_argument("--queue", required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_queue_status)

    p = sub.add_parser("pipeline", help="end-to-end run with a mock or real backend")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--backend", choices=("mock-identity", "mock-table", "http-endpoint"),
                   default="mock-identity")
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--table")
    p.add_argument("--translator-id")
    p.add_argument("--format", choices=("markdown", "csv", "json"),
                   default="markdown")
    p.add_argument("--no-translate-system", action="store_true",
                   help="pass system messages through untranslated")
    _add_chunk_flags(p)
    _add_common(p)
    p.set_defaults(handler=cmd_pipeline)

    return parser


_INPUT_ARGS = ("input", "corpus", "candidates", "scored", "units",
               "translated_units", "prefs", "table", "config")


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _append_manifest(args, cfg: PipelineConfig, exit_code: int) -> None:
    path = getattr(args, "manifest", None) or cfg.manifest_path
    inputs = {}
    for name in _INPUT_ARGS:
        value = getattr(args, name, None)
        if isinstance(value, str) and Path(value).is_file():
            inputs[value] = _sha256_file(Path(value))
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "subcommand": args.subcommand,
        "config_hash": cfg.config_hash(),
        "inputs": inputs,
        "versions": {
            "tarjama": __version__,
            "python": sys.version.split()[0],
            "script_table": uniscript.TABLE_VERSION,
            "unicodedata": uniscript.runtime_unicodedata_version(),
        },
        "exit_code": exit_code,
    }
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
    except OSError as exc:
        logger.warning("could not append run manifest %s: %s", path, exc)


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = load_config(getattr(args, "config", None))
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "lenient", False):
        cfg.strict = False
    try:
        rc = args.handler(args, cfg)
    except (ConfigurationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        rc = 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        rc = 2
    except (CorpusError, FitError, BackendError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        rc = 1
    _append_manifest(args, cfg, rc)
    return rc


if __name__ == "__main__":
    sys.exit(main())
