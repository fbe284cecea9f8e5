"""Command-line interface exposing the pipeline stages as subcommands.

Exit codes: 0 success, 1 validation/usage errors, 2 I/O or configuration
errors.  Every run appends a machine-readable line to the run manifest
(config hash, input hashes, versions) for reproducibility.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import shutil
import sys
import time
from bisect import bisect_left, bisect_right
from contextlib import ExitStack
from itertools import accumulate, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn, Optional, Sequence

from . import __version__, uniscript
from .backends import BackendError, HttpRewardScorer, TranslatorBackend
from .chunking import ChunkPolicy, chunker
from .config import (BackendConfig, ConfigurationError, PipelineConfig, checked_alpha,
                     checked_positive, checked_tau, checked_weights, load_config,
                     _parse_ratios)
from .corpus import (Candidate, CorpusError, check_translated_record, check_unit_record,
                     conversation_from_dict, conversation_to_dict, decompose, json_text,
                     jsonl_line, load_corpus, rebuild_conversations, unit_from_dict,
                     unit_to_dict, write_corpus, write_jsonl, write_units)
from .metrics import QualityScore
from .ranking import (FitError, PreferenceRecord, bt_fit, row_field, row_quality,
                      score_row, winner_and_ranking)
from .stats import (ReportMeta, StrataPolicy, aggregate_split,
                    apply_filter, emit_report, stratified_sample,
                    summarize_config)
from .workqueue import done_unit_dicts, enqueue, pack_batches, queue_status, worker_loop

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 instead of argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _read_rows(path: str, check: Optional[Callable[[dict], None]] = None) -> Iterator[dict]:
    """The JSON object on each non-blank line of *path*.  CorpusError names
    the line of one that is not an object or that *check* rejects."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError("not a JSON object")
                if check is not None:
                    check(row)
            except ValueError as exc:
                raise CorpusError(f"{path} line {line_no}: {exc}") from None
            yield row


def _open_out(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def _backend_from_config(bc: BackendConfig) -> TranslatorBackend:
    table = {}
    if bc.table_path:
        table = json.loads(Path(bc.table_path).read_text(encoding="utf-8"))
    return TranslatorBackend(
        id=bc.id, kind=bc.kind, endpoint=bc.endpoint, model=bc.model,
        temperature=bc.temperature, max_input_tokens=bc.max_input_tokens,
        api_key_env=bc.api_key_env, table=table,
    )


def _parse_weights(value: str) -> tuple[float, float, float]:
    parts = [float(x) for x in value.split(",")]
    if len(parts) != 3:
        raise ValueError("weights must be three comma-separated numbers")
    return checked_weights(parts)


# Override flags whose dest is the config field they replace, each with
# the check its config value passes too.
_FIELD_FLAGS = {"batch_size": checked_positive("batch_size"),
                "ttl_seconds": checked_positive("ttl_seconds"), "alpha": checked_alpha,
                "tau": checked_tau, "combine_weights": _parse_weights,
                "strata_ratios": _parse_ratios, "sample_total": None, "seed": None,
                "translate_system_messages": None, "strict": None}


def _apply_flags(args, cfg: PipelineConfig) -> None:
    """Put every override flag the user gave in place of the config value
    it overrides.  An override flag left at None was not given; the
    handlers and the run manifest read only the resulting config."""
    given = {name: value for name, value in vars(args).items() if value is not None}
    for name, check in _FIELD_FLAGS.items():
        if name in given:
            setattr(cfg, name, given[name] if check is None else check(given[name]))
    policy = cfg.chunk_policy
    if given.keys() & set(policy.__slots__):
        cfg.chunk_policy = ChunkPolicy(*(given.get(name, getattr(policy, name))
                                         for name in policy.__slots__))
    cfg.filter_policy = cfg.filter_policy._replace(**{
        name: given[name] for name in ("min_lr", "min_scr", "reject_cjk") if name in given})
    backend = cfg.backend
    if "backend" in given:
        backend = backend._replace(kind=given["backend"], id=given["backend"])
    if "endpoint" in given:
        backend = backend._replace(kind="http-endpoint", endpoint=given["endpoint"])
    if "table" in given:
        backend = backend._replace(kind="mock-table", table_path=given["table"])
    cfg.backend = backend._replace(id=given.get("backend_id", backend.id),
                                   model=given.get("model", backend.model))


# -- subcommand handlers -----------------------------------------------------


def cmd_decompose(args, cfg: PipelineConfig) -> int:
    conversations = load_corpus(args.input, strict=cfg.strict)
    chunk = chunker(cfg.chunking_tokenizer, cfg.chunk_policy)
    units = []
    for conv in conversations:
        units.extend(decompose(conv, chunk))
    write_units(units, args.units_out)
    print(f"decomposed {len(conversations)} conversations into {len(units)} units")
    return 0


def cmd_enqueue(args, cfg: PipelineConfig) -> int:
    units = [unit_from_dict(row) for row in _read_rows(args.units, check_unit_record)]
    tasks = enqueue(args.queue, units, args.translator_id, batch_size=cfg.batch_size,
                    char_budget=cfg.batch_size * cfg.chunk_policy.hard_cap_tokens)
    print(f"enqueued {len(units)} units as {len(tasks)} tasks in {args.queue}")
    return 0


def cmd_work(args, cfg: PipelineConfig) -> int:
    processed = worker_loop(
        args.queue, _backend_from_config(cfg.backend), worker_id=args.worker_id,
        ttl=cfg.ttl_seconds, max_attempts=cfg.max_attempts,
        prompt_template=cfg.prompt_template,
        target_language=cfg.target_language,
    )
    print(f"worker {args.worker_id} completed {processed} tasks")
    return 0


def cmd_reconstruct(args, cfg: PipelineConfig) -> int:
    if args.translated_units:
        objs = _read_rows(args.translated_units, check_translated_record)
    else:
        objs = done_unit_dicts(args.from_queue)
    grouped: dict[str, list[dict]] = {}  # in first-seen order
    for obj in objs:
        grouped.setdefault(obj["conversation_id"], []).append(obj)
    if args.corpus:
        sources = [(c.id, c.split, c.category)
                   for c in load_corpus(args.corpus, strict=cfg.strict)]
    else:
        sources = [(conv_id, "", None) for conv_id in grouped]
    conversations = [conv for _, conv in rebuild_conversations(
        sources, (obj for conv_id, _, _ in sources for obj in grouped.get(conv_id, ())))]
    write_corpus(conversations, args.out)
    print(f"reconstructed {len(conversations)} conversations")
    return 0


def _check_candidate(row: dict) -> None:
    for field in Candidate._fields:
        if field not in row:
            raise ValueError(f"candidate row has no {field!r} field")


def _load_candidates(path: str) -> list[Candidate]:
    """The candidates file's rows; CorpusError names a row's missing field."""
    return [Candidate(row["conversation_id"], row["translator_id"],
                      conversation_from_dict(row["conversation"]))
            for row in _read_rows(path, _check_candidate)]


def cmd_score(args, cfg: PipelineConfig) -> int:
    scorer = HttpRewardScorer(args.reward_endpoint) if args.reward_endpoint else None
    sources = {c.id: c for c in load_corpus(args.corpus, strict=cfg.strict)}
    rows = []
    for candidate in _load_candidates(args.candidates):
        source = sources.get(candidate.conversation_id)
        if source is None:
            raise CorpusError(
                f"candidate references unknown conversation {candidate.conversation_id!r}")
        rows.append(score_row(source, candidate, cfg.alpha, cfg.tau,
                              cfg.analysis_tokenizer, scorer))
    write_jsonl(rows, args.out)
    print(f"scored {len(rows)} candidates")
    return 0


def cmd_rank(args, cfg: PipelineConfig) -> int:
    by_conv: dict[str, list[dict]] = {}
    for row in _read_rows(args.scored):
        by_conv.setdefault(row_field(row, "conversation_id"), []).append(row)
    ranked = [winner_and_ranking(conv_id, rows, cfg.combine_weights)
              for conv_id, rows in by_conv.items()]
    write_jsonl([winner for winner, _ in ranked], args.winners_out)
    if args.ranking_out:
        write_jsonl([ranking for _, ranking in ranked], args.ranking_out)
    print(f"ranked candidates for {len(ranked)} conversations")
    return 0


def cmd_bt_fit(args, cfg: PipelineConfig) -> int:
    import csv  # only bt-fit reads and writes CSV

    records = []
    with open(args.prefs, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].strip().lower() == "winner":
                continue
            if len(row) < 2:
                raise ValueError(f"{args.prefs} line {reader.line_num}: want winner,loser")
            try:
                count = int(row[2]) if len(row) > 2 and row[2].strip() else 1
            except ValueError:
                raise ValueError(f"{args.prefs} line {reader.line_num}: count "
                                 f"{row[2]!r} is not an integer") from None
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


def _split_report(rows: Iterable[dict], fmt: str, cfg: PipelineConfig) -> tuple[list, str]:
    """Per-split statistics of scored rows and their rendered report."""
    by_split: dict[str, list[QualityScore]] = {}
    for row in rows:
        by_split.setdefault(row_field(row, "split"), []).append(row_quality(row))
    splits = [aggregate_split(scores, split) for split, scores in sorted(by_split.items())]
    meta = ReportMeta(tokenizer_name=cfg.analysis_tokenizer.name, alpha=cfg.alpha,
                      tau=cfg.tau, unicode_version=uniscript.TABLE_VERSION)
    return splits, emit_report(splits, fmt=fmt, meta=meta)


def cmd_stats(args, cfg: PipelineConfig) -> int:
    splits, report = _split_report(_read_rows(args.scored), args.format, cfg)
    Path(args.out).write_text(report, encoding="utf-8")
    if splits:
        summary = summarize_config(splits)
        print(f"examples={summary.total_examples} tokens={summary.total_tokens:.0f} "
              f"mean_lr={summary.mean_lr:.4f} mean_scr={summary.mean_scr:.4f} "
              f"median_turns={summary.median_turns:.2f} p95_tokens={summary.p95_tokens:.2f}")
    print(f"wrote {args.format} report to {args.out}")
    return 0


def cmd_filter(args, cfg: PipelineConfig) -> int:
    policy = cfg.filter_policy
    conversations = load_corpus(args.corpus, strict=cfg.strict)
    scores: dict[str, QualityScore] = {}
    for row in _read_rows(args.scored):
        conv_id = row_field(row, "conversation_id")
        if conv_id in scores:
            raise CorpusError(f"multiple scored rows for {conv_id!r}; rank first")
        scores[conv_id] = row_quality(row)
    items = []
    for conv in conversations:
        if conv.id not in scores:
            raise CorpusError(f"no score for conversation {conv.id!r}")
        items.append((conv, scores[conv.id]))
    kept, rejected = apply_filter(items, policy)
    logger.info("filter thresholds: min_lr=%s min_scr=%s reject_cjk=%s",
                policy.min_lr, policy.min_scr, policy.reject_cjk)
    write_corpus([conv for conv, _ in kept], args.kept_out)
    write_jsonl([{"id": conv.id, "reasons": reasons}
                 for conv, _, reasons in rejected], args.rejected_out)
    print(f"kept {len(kept)}, rejected {len(rejected)} "
          f"(min_lr={policy.min_lr}, min_scr={policy.min_scr}, "
          f"reject_cjk={policy.reject_cjk})")
    return 0


def cmd_sample(args, cfg: PipelineConfig) -> int:
    policy = StrataPolicy(ratios=cfg.strata_ratios, total=cfg.sample_total)
    conversations = load_corpus(args.corpus, strict=cfg.strict)
    sampled = stratified_sample(conversations, policy, seed=cfg.seed,
                                strict=not args.allow_shortfall)
    write_corpus(sampled, args.out)
    print(f"sampled {len(sampled)} of {len(conversations)} examples "
          f"(ratios={cfg.strata_ratios}, seed={cfg.seed})")
    return 0


def cmd_queue_status(args, cfg: PipelineConfig) -> int:
    print(json.dumps(queue_status(args.queue, ttl=cfg.ttl_seconds)))
    return 0


# Source characters per process below which a fork costs `pipeline` more
# than it saves: on a 2-vCPU host, two processes first beat one at about
# twice this many characters, on prefixes of both perfbench's many-short
# chats and its long-think traces.
_CHARS_PER_PROCESS = 45_000

# The files of pass 2, one line per conversation or unit, in shard order.
_SHARDED_OUTPUTS = ("translated_units", "translated_corpus", "candidates", "scored",
                    "winners")


def _process_count(source_chars: int) -> int:
    """How many processes `pipeline` runs: one per usable CPU, but none that
    would get fewer than ``_CHARS_PER_PROCESS`` source characters, and one at
    least."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, source_chars // _CHARS_PER_PROCESS))


def _shard_bounds(sizes: Sequence[int], w: int) -> list[int]:
    """Cut items of *sizes* into *w* contiguous shards of about equal total
    size: shard k holds items ``bounds[k]`` to ``bounds[k + 1] - 1``.  Each
    cut follows the first item at which the running total reaches k/w of
    the whole."""
    ends = list(accumulate(sizes))
    total = ends[-1] if ends else 0
    return [0, *(bisect_left(ends, -(-total * k // w)) + 1 for k in range(1, w)),
            len(sizes)]


def _child(fn: Callable[[int], object], k: int, write_fd: int, inherited) -> NoReturn:
    """Run ``fn(k)`` in a forked child, send its result or exception to the
    parent through *write_fd*, and leave through ``os._exit``: a child runs no
    exit handler, writes no manifest line and flushes no buffer of the
    parent's.  It closes the parent's read ends it *inherited* first, so a
    parent that stops reading one of them does not block that child."""
    import pickle

    code = 1
    try:
        for pipe in inherited:
            pipe.close()
        try:
            outcome = True, fn(k)
        except Exception as exc:  # the parent raises it again
            outcome = False, exc.__reduce__()
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        code = 0
    finally:
        os._exit(code)


def _fork_map(fn: Callable[[int], object], w: int) -> list:
    """``[fn(0), ..., fn(w - 1)]``: ``fn(0)`` runs here and each other call in
    a forked child, whose result comes back over a pipe.  With *w* = 1
    nothing is forked.  Every child is reaped before this returns or raises.
    The exception of the lowest k that raised one is raised again with its
    own type, arguments and attributes, so a caller reports it as it would
    the same exception raised here."""
    if w == 1:
        return [fn(0)]
    import pickle

    pids, pipes = [], []
    try:
        for k in range(1, w):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, k, write_fd, pipes)
            finally:
                os.close(write_fd)  # in the parent: a child never returns
            pids.append(pid)
        results = [fn(0)]
        sent = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for k, (data, status) in enumerate(zip(sent, statuses), start=1):
        if status or not data:
            raise ChildProcessError(f"pipeline process {k} ended without a result "
                                    f"(wait status {status})")
        ok, value = pickle.loads(data)
        if not ok:
            cls, exc_args, *state = value
            exc = cls.__new__(cls, *exc_args)
            exc.__dict__.update(*state)
            raise exc
        results.append(value)
    return results


def cmd_pipeline(args, cfg: PipelineConfig) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    backend = _backend_from_config(cfg.backend)
    policy = cfg.chunk_policy
    if backend.max_input_tokens < policy.hard_cap_tokens:
        raise ValueError(
            f"backend input window ({backend.max_input_tokens} tokens) is smaller "
            f"than the chunk hard cap ({policy.hard_cap_tokens}); lower "
            f"--hard-cap-tokens or raise max_input_tokens")

    conversations = load_corpus(args.input, strict=cfg.strict)
    queue_dir = out / "queue"
    sizes = [sum(len(m.content) for m in conv.messages) for conv in conversations]
    w = _process_count(sum(sizes))

    # Pass 1, per conversation: write its units, keep its untranslated system
    # units' dicts, and stream translatable units through pack_batches,
    # enqueueing each batch as one task as soon as it closes.  Each unit is
    # encoded once: its JSON text is its units.jsonl line and its part of
    # the task.  unit_starts[i] counts the translatable units before
    # conversation i, and task_ends[t] those in tasks 0 to t.
    passthrough: dict[str, list[dict]] = {}
    task_ids: list[str] = []
    task_ends: list[int] = []
    unit_starts: list[int] = []
    texts: list[str] = []  # JSON texts of the units pack_batches has taken

    def translatable(units_fh) -> Iterator:
        chunk = chunker(cfg.chunking_tokenizer, policy)
        taken = 0
        for conv in conversations:
            unit_starts.append(taken)
            for unit in decompose(conv, chunk):
                obj = unit_to_dict(unit)
                text = json_text(obj)
                units_fh.write(text + "\n")
                if unit.role == "system" and not cfg.translate_system_messages:
                    passthrough.setdefault(conv.id, []).append(dict(
                        obj, translated_text=unit.source_text, translator_id="passthrough"))
                    continue
                texts.append(text)
                taken += 1
                yield unit

    with _open_out(out / "units.jsonl") as units_fh:
        for batch in pack_batches(translatable(units_fh), cfg.batch_size,
                                  cfg.batch_size * policy.hard_cap_tokens):
            # pack_batches may already hold the unit after the batch.
            batch_texts = texts[:len(batch)]
            del texts[:len(batch)]
            (task,) = enqueue(queue_dir, batch, backend.id, batch_size=len(batch),
                              unit_texts=batch_texts)
            task_ids.append(task.task_id)
            task_ends.append(len(batch) + (task_ends[-1] if task_ends else 0))

    # The drain: w processes run a worker each, under its own worker id,
    # until every task has ended.
    def drain(k: int) -> int:
        return worker_loop(queue_dir, backend,
                           worker_id=f"pipeline-{os.uname().nodename}-{os.getpid()}",
                           ttl=cfg.ttl_seconds, max_attempts=cfg.max_attempts,
                           prompt_template=cfg.prompt_template,
                           target_language=cfg.target_language)

    if task_ids:
        _fork_map(drain, w)

    # Pass 2, per conversation: rebuild, score and write it before reading
    # on; keep only the score rows.  The done/ records, read in enqueue
    # order, hold each conversation's translated units together; its
    # passthrough units join them there.  A unit's translated_units.jsonl
    # line is the JSON of its dict, and the rebuilt conversation's JSON
    # serves both corpus and candidate line.  Shard k of the w contiguous
    # shards goes to process k, which reads the done/ stream from the
    # shard's first translatable unit on; process 0 writes the output
    # files, each other process the part files that are appended to them.
    bounds = _shard_bounds(sizes, w)
    parts = out / ".pipeline-parts"
    translator_json = json_text(backend.id)

    def write_shard(k: int) -> list[dict]:
        shard = conversations[bounds[k]:bounds[k + 1]]
        first = unit_starts[bounds[k]] if shard else 0
        t = bisect_right(task_ends, first)  # the task holding unit `first`
        done = islice(done_unit_dicts(queue_dir, task_ids[t:]),
                      first - (task_ends[t - 1] if t else 0), None)

        def translated_units() -> Iterator[dict]:
            obj = next(done, None)
            for conv in shard:
                yield from passthrough.pop(conv.id, ())
                while obj is not None and obj["conversation_id"] == conv.id:
                    yield obj
                    obj = next(done, None)

        rebuilt_convs = rebuild_conversations(
            ((c.id, c.split, c.category) for c in shard), translated_units())
        scored_rows = []
        with ExitStack() as stack:
            fh = {name: stack.enter_context(_open_out(
                      out / f"{name}.jsonl" if k == 0 else parts / f"{name}.{k}.jsonl"))
                  for name in _SHARDED_OUTPUTS}
            for conv, (objs, rebuilt) in zip(shard, rebuilt_convs):
                fh["translated_units"].writelines(map(jsonl_line, objs))
                rebuilt_json = json_text(conversation_to_dict(rebuilt))
                fh["translated_corpus"].write(rebuilt_json + "\n")
                fh["candidates"].write(  # jsonl_line's text of the candidate row
                    f'{{"conversation_id": {json_text(conv.id)}, '
                    f'"translator_id": {translator_json}, "conversation": {rebuilt_json}}}\n')
                row = score_row(conv, Candidate(conv.id, backend.id, rebuilt),
                                cfg.alpha, cfg.tau, cfg.analysis_tokenizer)
                fh["scored"].write(jsonl_line(row))
                fh["winners"].write(jsonl_line(
                    winner_and_ranking(conv.id, [row], cfg.combine_weights)[0]))
                scored_rows.append(row)
        return scored_rows

    if w > 1:
        parts.mkdir(exist_ok=True)
    try:
        shards = _fork_map(write_shard, w)
        for name in _SHARDED_OUTPUTS:
            for k in range(1, w):
                with open(out / f"{name}.jsonl", "ab") as dest, \
                        open(parts / f"{name}.{k}.jsonl", "rb") as part:
                    shutil.copyfileobj(part, dest)
    finally:
        if w > 1:
            shutil.rmtree(parts, ignore_errors=True)

    ext = {"markdown": "md", "csv": "csv", "json": "json"}[args.format]
    report_path = out / f"report.{ext}"
    report_path.write_text(
        _split_report((row for rows in shards for row in rows), args.format, cfg)[1],
        encoding="utf-8")
    print(f"pipeline complete: {len(conversations)} conversations -> {out}")
    print(f"report: {report_path}")
    return 0


# -- parser / dispatch -------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI config file")
    sub.add_argument("--manifest", help="run manifest path (JSONL, appended)")
    sub.add_argument("--lenient", dest="strict", action="store_false", default=None,
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
    p.add_argument("--batch-size", type=int, default=None,
                   help="least units per task; a task takes more only while "
                        "their source text fits in batch-size chunks of the "
                        "configured hard cap (default: [queue] batch_size)")
    _add_common(p)
    p.set_defaults(handler=cmd_enqueue)

    p = sub.add_parser("work", help="run one worker until the queue drains")
    p.add_argument("--queue", required=True)
    p.add_argument("--worker-id", required=True)
    p.add_argument("--ttl", dest="ttl_seconds", type=float,
                   help="a lease lasts ttl seconds after its lock file's mtime (the "
                        "claim time, or the holder's last retry), by each worker's own ttl")
    p.add_argument("--backend", choices=("mock-identity", "mock-table", "http-endpoint"))
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--table", help="JSON lookup table for mock-table")
    _add_common(p)
    p.set_defaults(handler=cmd_work)

    p = sub.add_parser("reconstruct", help="rebuild conversations from translated units")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--translated-units")
    source.add_argument("--from-queue", help="queue dir to collect done/ records from")
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
    p.add_argument("--weights", dest="combine_weights",
                   help="lr,scr,rm weights (default: [ranking], else 1,1,2)")
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
    cjk.add_argument("--keep-cjk", dest="reject_cjk", action="store_false",
                     default=None)
    _add_common(p)
    p.set_defaults(handler=cmd_filter)

    p = sub.add_parser("sample", help="stratified sample by category labels")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ratios", dest="strata_ratios", help="e.g. code:1,science:1,math:2")
    p.add_argument("--total", dest="sample_total", type=int)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--allow-shortfall", action="store_true")
    _add_common(p)
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("queue-status", help="pending/leased/done/failed task counts; "
                       "a pending task is leased while a lock of it is younger than the ttl")
    p.add_argument("--queue", required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_queue_status)

    p = sub.add_parser("pipeline", help="end-to-end run with a mock or real backend")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--backend", choices=("mock-identity", "mock-table", "http-endpoint"),
                   help="default: [backend], else mock-identity")
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--table")
    p.add_argument("--translator-id", dest="backend_id")
    p.add_argument("--format", choices=("markdown", "csv", "json"),
                   default="markdown")
    p.add_argument("--no-translate-system", dest="translate_system_messages",
                   action="store_false", default=None,
                   help="pass system messages through untranslated")
    _add_chunk_flags(p)
    _add_common(p)
    p.set_defaults(handler=cmd_pipeline)

    return parser


# The arguments that name input files; the backend's table file is hashed
# from the resolved config, which holds a --table flag's value too.
_INPUT_ARGS = ("input", "corpus", "candidates", "scored", "units",
               "translated_units", "prefs", "config")


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _append_manifest(args, cfg: PipelineConfig, exit_code: int) -> None:
    path = getattr(args, "manifest", None) or cfg.manifest_path
    inputs = {}
    for value in [*(getattr(args, name, None) for name in _INPUT_ARGS),
                  cfg.backend.table_path]:
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
            fh.write(jsonl_line(entry))
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
    try:
        _apply_flags(args, cfg)
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
