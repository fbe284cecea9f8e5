"""Candidate ranking: fractional ranks over metric tables, weighted
score combination, the score-row format with its one ranking rule, and
Bradley-Terry preference fitting.

The Bradley-Terry model puts P(i beats j) = exp(s_i) / (exp(s_i) +
exp(s_j)).  Fitting uses minorization-maximization updates, whose
per-iteration log-likelihood is provably non-decreasing; that property
is asserted in tests via the returned trace.
"""

from __future__ import annotations

import logging
import math
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .corpus import Candidate, Conversation, CorpusError
from .metrics import DEFAULT_ALPHA, DEFAULT_TAU, QualityScore, score_example
from .tokenizers import TokenizerSpec

logger = logging.getLogger(__name__)

DEFAULT_WEIGHTS = (1.0, 1.0, 2.0)


class FitError(Exception):
    """Bradley-Terry fitting cannot produce finite scores."""


class MetricTable(NamedTuple):
    rows: list[tuple[str, dict[str, float]]]

    def column(self, metric: str) -> dict[str, float]:
        out = {}
        for system_id, values in self.rows:
            if metric not in values:
                raise ValueError(f"system {system_id!r} is missing metric {metric!r}")
            out[system_id] = values[metric]
        return out


def column_ranks(table: MetricTable, metric: str,
                 higher_is_better: bool = True) -> dict[str, float]:
    """Fractional ranking: rank 1 is best; ties share the mean position."""
    values = table.column(metric)
    for system_id, value in values.items():
        if math.isnan(value):
            raise ValueError(f"NaN value for {system_id!r} in column {metric!r}")
    ordered = sorted(values.items(), key=lambda kv: kv[1], reverse=higher_is_better)
    ranks: dict[str, float] = {}
    pos = 0
    while pos < len(ordered):
        tied = [ordered[pos]]
        while pos + len(tied) < len(ordered) and ordered[pos + len(tied)][1] == tied[0][1]:
            tied.append(ordered[pos + len(tied)])
        mean_rank = pos + (len(tied) + 1) / 2
        for system_id, _ in tied:
            ranks[system_id] = mean_rank
        pos += len(tied)
    return ranks


def average_rank(table: MetricTable, metrics: Sequence[str],
                 directions: Optional[Sequence[bool]] = None) -> dict[str, float]:
    """Arithmetic mean of per-column fractional ranks."""
    if not metrics:
        raise ValueError("metrics list must not be empty")
    if directions is None:
        directions = [True] * len(metrics)
    if len(directions) != len(metrics):
        raise ValueError("directions must match metrics")
    per_column = [column_ranks(table, m, d) for m, d in zip(metrics, directions)]
    return {
        system_id: sum(col[system_id] for col in per_column) / len(per_column)
        for system_id, _ in table.rows
    }


def combine_scores(lr: float, scr: float, rm: Optional[float] = None,
                   weights: tuple[float, float, float] = DEFAULT_WEIGHTS) -> float:
    """Weighted mean of the intrinsic signals and an optional reward
    score; a missing reward redistributes its weight proportionally."""
    w_lr, w_scr, w_rm = weights
    if min(w_lr, w_scr, w_rm) < 0:
        raise ValueError("weights must be non-negative")
    if rm is None:
        total = w_lr + w_scr
        if total == 0:
            raise ValueError("lr and scr weights are both zero and rm is absent")
        return (w_lr * lr + w_scr * scr) / total
    total = w_lr + w_scr + w_rm
    if total == 0:
        raise ValueError("weights must not all be zero")
    return (w_lr * lr + w_scr * scr + w_rm * rm) / total


RewardScorer = Callable[[Conversation, Conversation], float]


def score_row(source: Conversation, candidate: Candidate, alpha: float, tau: float,
              tokenizer: Optional[TokenizerSpec],
              scorer: Optional[RewardScorer] = None) -> dict:
    """The candidate's ids, the source's split, the QualityScore fields and
    *scorer*'s ``rm``, left out with a logged warning if the scorer fails."""
    row = {"conversation_id": candidate.conversation_id,
           "translator_id": candidate.translator_id, "split": source.split,
           **score_example(source, candidate, alpha, tau, tokenizer)._asdict()}
    if scorer is not None:
        try:
            row["rm"] = scorer(source, candidate.conversation)
        except Exception as exc:
            logger.warning("reward scorer failed for %s/%s: %s",
                           candidate.conversation_id, candidate.translator_id, exc)
    return row


def row_field(row: dict, name: str):
    """``row[name]``; CorpusError if the score row has no such field."""
    if name not in row:
        raise CorpusError(f"scored row has no {name!r} field: {row}")
    return row[name]


def row_quality(row: dict) -> QualityScore:
    """The QualityScore of a score row; CorpusError names a missing field."""
    return QualityScore(*[row_field(row, name) for name in QualityScore._fields])


def rank_rows(rows: Iterable[dict],
              weights: tuple[float, float, float]) -> list[tuple[str, float]]:
    """``(translator_id, combined score)`` of one conversation's score rows,
    best first; ties break toward the smaller translator id."""
    ranking = []
    for row in rows:
        quality = row_quality(row)
        ranking.append((row_field(row, "translator_id"),
                        combine_scores(quality.lr, quality.scr, row.get("rm"), weights)))
    ranking.sort(key=lambda item: (-item[1], item[0]))
    return ranking


def winner_and_ranking(conversation_id: str, rows: Iterable[dict],
                       weights: tuple[float, float, float]) -> tuple[dict, dict]:
    """The ``winners.jsonl`` and ``ranking.jsonl`` rows of one conversation's
    score rows."""
    ranked = rank_rows(rows, weights)
    return ({"conversation_id": conversation_id, "translator_id": ranked[0][0]},
            {"conversation_id": conversation_id,
             "ranking": [{"translator_id": t, "score": s} for t, s in ranked]})


def rank_candidates(source: Conversation, candidates: Sequence[Candidate],
                    scorer: Optional[RewardScorer] = None,
                    weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
                    alpha: float = DEFAULT_ALPHA, tau: float = DEFAULT_TAU,
                    tokenizer: Optional[TokenizerSpec] = None) -> list[tuple[str, float]]:
    """``rank_rows`` over each candidate's ``score_row``."""
    if not candidates:
        raise ValueError(f"no candidates for conversation {source.id!r}")
    return rank_rows([score_row(source, candidate, alpha, tau, tokenizer, scorer)
                      for candidate in candidates], weights)


# -- Bradley-Terry -----------------------------------------------------------


class PreferenceRecord:
    __slots__ = ("winner", "loser", "count")

    def __init__(self, winner: str, loser: str, count: int = 1) -> None:
        if winner == loser:
            raise ValueError("winner and loser must differ")
        if count <= 0:
            raise ValueError("count must be positive")
        self.winner = winner
        self.loser = loser
        self.count = count

    def __eq__(self, other):
        if other.__class__ is not PreferenceRecord:
            return NotImplemented
        return (self.winner, self.loser, self.count) == (other.winner, other.loser,
                                                         other.count)


class BtScores(NamedTuple):
    scores: dict[str, float]  # log-strengths, gauge-fixed to sum 0
    converged: bool
    iterations: int
    loglik_trace: Sequence[float] = ()


def _connected(systems: list[str], wins: dict[tuple[str, str], float]) -> bool:
    if len(systems) <= 1:
        return True
    adjacency: dict[str, set[str]] = {s: set() for s in systems}
    for (i, j), count in wins.items():
        if count > 0:
            adjacency[i].add(j)
            adjacency[j].add(i)
    seen = {systems[0]}
    frontier = [systems[0]]
    while frontier:
        for peer in adjacency[frontier.pop()]:
            if peer not in seen:
                seen.add(peer)
                frontier.append(peer)
    return len(seen) == len(systems)


def _log_likelihood(systems: list[str], strengths: dict[str, float],
                    wins: dict[tuple[str, str], float]) -> float:
    ll = 0.0
    for (i, j), count in wins.items():
        if count > 0:
            ll += count * math.log(strengths[i] / (strengths[i] + strengths[j]))
    return ll


def bt_fit(prefs: Iterable[PreferenceRecord], epsilon: float = 0.5,
           tol: float = 1e-10, max_iters: int = 1000) -> BtScores:
    """Fit Bradley-Terry log-strengths by minorization-maximization.

    ``epsilon`` pseudo-observations are added to every ordered pair,
    which keeps the comparison graph connected and the MLE finite on
    degenerate data.  With epsilon 0, a disconnected graph or a system
    with no wins raises FitError; a negative or NaN epsilon is a ValueError.
    """
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    records = list(prefs)
    systems = sorted({r.winner for r in records} | {r.loser for r in records})
    if len(systems) < 2:
        raise FitError("need at least 2 systems with preference records")
    wins: dict[tuple[str, str], float] = {}
    for i in systems:
        for j in systems:
            if i != j:
                wins[(i, j)] = epsilon
    for record in records:
        wins[(record.winner, record.loser)] += record.count

    if epsilon == 0:
        if not _connected(systems, wins):
            raise FitError("comparison graph is disconnected and epsilon is 0")
        for system in systems:
            if sum(wins[(system, j)] for j in systems if j != system) == 0:
                raise FitError(
                    f"system {system!r} has no wins and epsilon is 0; scores diverge")

    total_wins = {i: sum(wins[(i, j)] for j in systems if j != i) for i in systems}
    pair_counts = {(i, j): wins[(i, j)] + wins[(j, i)] for i in systems for j in systems
                   if i != j}

    strengths = {s: 1.0 for s in systems}
    trace = [_log_likelihood(systems, strengths, wins)]
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        updated = {}
        for i in systems:
            denom = sum(pair_counts[(i, j)] / (strengths[i] + strengths[j])
                        for j in systems if j != i)
            updated[i] = total_wins[i] / denom
        # Gauge fix: geometric mean 1, i.e. log-scores sum to 0.
        log_mean = sum(math.log(v) for v in updated.values()) / len(updated)
        scale = math.exp(log_mean)
        updated = {s: v / scale for s, v in updated.items()}
        delta = max(abs(math.log(updated[s]) - math.log(strengths[s])) for s in systems)
        strengths = updated
        trace.append(_log_likelihood(systems, strengths, wins))
        if delta < tol:
            converged = True
            break
    if not converged:
        logger.warning("bt_fit did not converge within %d iterations", max_iters)
    return BtScores(
        scores={s: math.log(v) for s, v in strengths.items()},
        converged=converged,
        iterations=iterations,
        loglik_trace=trace,
    )
