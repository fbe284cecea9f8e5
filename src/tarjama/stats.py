"""Per-split aggregation, filtering, stratified sampling, and reports."""

from __future__ import annotations

import io
import json
import math
import random
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence, TypeVar

from . import uniscript
from .corpus import Conversation
from .metrics import DEFAULT_ALPHA, DEFAULT_TAU, QualityScore, contains_cjk

T = TypeVar("T")

REPORT_COLUMNS = ("Split", "Num Examples", "Mean LR", "Mean SCR", "Mean Turns",
                  "Mean Total Tokens", "P95 Tokens")

REASON_LOW_LR = "low_lr"
REASON_LOW_SCR = "low_scr"
REASON_CJK = "cjk"


class SplitStats(NamedTuple):
    split: str
    num_examples: int
    mean_lr: float
    mean_scr: float
    mean_turns: float
    mean_total_tokens: float
    p95_tokens: float


class ConfigSummary(NamedTuple):
    total_examples: int
    total_tokens: float
    mean_lr: float
    mean_scr: float
    median_turns: float
    mean_tokens_per_example: float
    p95_tokens: float


class FilterPolicy(NamedTuple):
    min_lr: float = 0.3
    min_scr: float = 0.3
    reject_cjk: bool = True
    # read-only, so the default can be shared by every instance
    per_split_overrides: Mapping[str, tuple[float, float]] = MappingProxyType({})

    def thresholds(self, split: str) -> tuple[float, float]:
        return self.per_split_overrides.get(split, (self.min_lr, self.min_scr))


class StrataPolicy:
    __slots__ = ("ratios", "total")

    def __init__(self, ratios: dict[str, int], total: int) -> None:
        if not ratios:
            raise ValueError("ratios must not be empty")
        if any(r <= 0 for r in ratios.values()):
            raise ValueError("ratios must be positive")
        if total < 0:
            raise ValueError("total must be non-negative")
        self.ratios = ratios
        self.total = total


def nearest_rank_p95(values: Sequence[float]) -> float:
    """ceil(0.95 * n)-th order statistic, no interpolation."""
    if not values:
        raise ValueError("p95 of empty sequence")
    return _weighted_order_statistic([(value, 1) for value in values], 0.95)


def aggregate_split(scores: Sequence[QualityScore], split: str) -> SplitStats:
    if not scores:
        raise ValueError(f"no scores for split {split!r}")
    n = len(scores)
    return SplitStats(
        split=split,
        num_examples=n,
        mean_lr=sum(s.lr for s in scores) / n,
        mean_scr=sum(s.scr for s in scores) / n,
        mean_turns=sum(s.turns for s in scores) / n,
        mean_total_tokens=sum(s.tokens for s in scores) / n,
        p95_tokens=nearest_rank_p95([s.tokens for s in scores]),
    )


def _weighted_order_statistic(pairs: Sequence[tuple[float, int]],
                              fraction: float) -> float:
    """The ceil(fraction * n)-th smallest of a multiset of n values given as
    (value, multiplicity) pairs: 0.5 gives the lower median."""
    rank = math.ceil(fraction * sum(w for _, w in pairs))
    seen = 0
    for value, weight in sorted(pairs):
        seen += weight
        if seen >= rank:
            return value
    raise ValueError("empty multiset")


def summarize_config(splits: Sequence[SplitStats]) -> ConfigSummary:
    """Summary across splits: totals plus example-weighted statistics.

    Median turns and the p95 are weighted statistics over split-level
    values (each split contributing its mean/p95 with multiplicity
    num_examples); exact per-example order statistics are not
    recoverable from the split aggregates."""
    if not splits:
        raise ValueError("no splits to summarize")
    total_examples = sum(s.num_examples for s in splits)
    total_tokens = sum(s.num_examples * s.mean_total_tokens for s in splits)
    return ConfigSummary(
        total_examples=total_examples,
        total_tokens=total_tokens,
        mean_lr=sum(s.num_examples * s.mean_lr for s in splits) / total_examples,
        mean_scr=sum(s.num_examples * s.mean_scr for s in splits) / total_examples,
        median_turns=_weighted_order_statistic(
            [(s.mean_turns, s.num_examples) for s in splits], 0.5),
        mean_tokens_per_example=total_tokens / total_examples,
        p95_tokens=_weighted_order_statistic(
            [(s.p95_tokens, s.num_examples) for s in splits], 0.95),
    )


def apply_filter(
    items: Sequence[tuple[Conversation, QualityScore]],
    policy: FilterPolicy,
) -> tuple[list[tuple[Conversation, QualityScore]],
           list[tuple[Conversation, QualityScore, list[str]]]]:
    """Partition scored examples into kept and rejected-with-reasons."""
    kept = []
    rejected = []
    for conv, score in items:
        min_lr, min_scr = policy.thresholds(conv.split)
        reasons = []
        if score.lr < min_lr:
            reasons.append(REASON_LOW_LR)
        if score.scr < min_scr:
            reasons.append(REASON_LOW_SCR)
        if policy.reject_cjk and any(contains_cjk(m.content) for m in conv.messages):
            reasons.append(REASON_CJK)
        if reasons:
            rejected.append((conv, score, reasons))
        else:
            kept.append((conv, score))
    return kept, rejected


def largest_remainder_counts(ratios: dict[str, int], total: int) -> dict[str, int]:
    """Integer quotas proportional to ratios, summing exactly to total.

    Floors first, then hands out the remainder by largest fractional
    part; ties break toward the lexicographically smaller category."""
    weight = sum(ratios.values())
    quotas = {c: total * r / weight for c, r in ratios.items()}
    counts = {c: math.floor(q) for c, q in quotas.items()}
    leftover = total - sum(counts.values())
    order = sorted(ratios, key=lambda c: (-(quotas[c] - counts[c]), c))
    for category in order[:leftover]:
        counts[category] += 1
    return counts


def stratified_sample(examples: Sequence[T], policy: StrataPolicy, seed: int,
                      strict: bool = True) -> list[T]:
    """Sample without replacement in fixed category proportions.

    Only categories named in the policy participate.  In strict mode a
    category that cannot fill its quota raises; otherwise the shortfall
    is redistributed to categories that still have spare examples.
    Deterministic for a given seed; output preserves input order."""
    pools: dict[str, list[int]] = {c: [] for c in policy.ratios}
    for idx, example in enumerate(examples):
        cat = getattr(example, "category", None)
        if cat in pools:
            pools[cat].append(idx)

    available = {c: len(p) for c, p in pools.items()}
    target = min(policy.total, sum(available.values()))
    active = dict(policy.ratios)
    counts: dict[str, int] = {c: 0 for c in policy.ratios}
    remaining = target
    while remaining > 0 and active:
        share = largest_remainder_counts(active, remaining)
        overfull = False
        for category, want in share.items():
            capacity = available[category] - counts[category]
            if want > capacity:
                overfull = True
                if strict:
                    raise ValueError(
                        f"category {category!r} has {available[category]} examples; "
                        f"{counts[category] + want} required")
                counts[category] = available[category]
                del active[category]
            else:
                counts[category] += want
        remaining = target - sum(counts.values())
        if not overfull:
            break

    rng = random.Random(seed)
    chosen: list[int] = []
    for category in sorted(pools):
        if counts.get(category):
            chosen.extend(rng.sample(pools[category], counts[category]))
    return [examples[i] for i in sorted(chosen)]


# -- report emission ---------------------------------------------------------


class ReportMeta(NamedTuple):
    tokenizer_name: str = "builtin-ws"
    alpha: float = DEFAULT_ALPHA
    tau: float = DEFAULT_TAU
    unicode_version: str = uniscript.TABLE_VERSION


def _format_row(stats: SplitStats) -> list[str]:
    return [
        stats.split,
        str(stats.num_examples),
        f"{stats.mean_lr:.4f}",
        f"{stats.mean_scr:.4f}",
        f"{stats.mean_turns:.2f}",
        f"{stats.mean_total_tokens:.2f}",
        f"{stats.p95_tokens:.2f}",
    ]


def emit_report(splits: Sequence[SplitStats], fmt: str = "markdown",
                meta: ReportMeta = ReportMeta()) -> str:
    """Render per-split statistics as markdown, csv, or json."""
    rows = [_format_row(s) for s in sorted(splits, key=lambda s: s.split)]
    header_note = (f"tokenizer={meta.tokenizer_name} alpha={meta.alpha} "
                   f"tau={meta.tau} unicode={meta.unicode_version}")
    if fmt == "markdown":
        out = io.StringIO()
        out.write("# Per-split statistics\n\n")
        out.write(header_note + "\n\n")
        out.write("| " + " | ".join(REPORT_COLUMNS) + " |\n")
        out.write("|" + "|".join(["---"] + ["---:"] * (len(REPORT_COLUMNS) - 1)) + "|\n")
        for row in rows:
            out.write("| " + " | ".join(row) + " |\n")
        return out.getvalue()
    if fmt == "csv":
        out = io.StringIO()
        out.write("# " + header_note + "\n")
        out.write(",".join(REPORT_COLUMNS) + "\n")
        for row in rows:
            out.write(",".join(
                f'"{cell}"' if "," in cell else cell for cell in row) + "\n")
        return out.getvalue()
    if fmt == "json":
        return json.dumps({
            "meta": {
                "tokenizer": meta.tokenizer_name,
                "alpha": meta.alpha,
                "tau": meta.tau,
                "unicode": meta.unicode_version,
            },
            "columns": list(REPORT_COLUMNS),
            "rows": [dict(zip(REPORT_COLUMNS, row)) for row in rows],
        }, ensure_ascii=False, indent=2) + "\n"
    raise ValueError(f"unknown report format: {fmt!r}")
