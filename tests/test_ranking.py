import math
import random

import pytest
from hypothesis import given, strategies as st

from tarjama.corpus import Candidate
from tarjama.ranking import (FitError, MetricTable, PreferenceRecord,
                             average_rank, bt_fit, column_ranks,
                             combine_scores, rank_candidates)

from conftest import bt_prob, make_conversation

# Golden intrinsic-metric leaderboard: 11 translator systems with their
# LR/SCR means and the expected average ranks.
GOLDEN_LEADERBOARD = [
    ("GPT 4.1", 0.8995, 0.9318, 1.00),
    ("Gemma3 27B", 0.8903, 0.9162, 2.50),
    ("Qwen3 32B", 0.8883, 0.8956, 3.50),
    ("Qwen3 235B", 0.8984, 0.8795, 4.50),
    ("OSS 120B", 0.8617, 0.8848, 4.50),
    ("Kimi k2", 0.8467, 0.8842, 6.00),
    ("Seed-X 7B", 0.8539, 0.8829, 6.00),
    ("Qwen2.5 3B", 0.1893, 0.8157, 8.00),
    ("Qwen2.5 1.5B", 0.1639, 0.7518, 9.50),
    ("Falcon3 3B", 0.0843, 0.7568, 10.00),
    ("Qwen2.5 0.5B", 0.1379, 0.7001, 10.50),
]


def golden_table() -> MetricTable:
    return MetricTable(rows=[(name, {"lr": lr, "scr": scr})
                             for name, lr, scr, _ in GOLDEN_LEADERBOARD])


def test_column_ranks_simple():
    table = MetricTable(rows=[("a", {"m": 0.9}), ("b", {"m": 0.8}), ("c", {"m": 0.7})])
    assert column_ranks(table, "m") == {"a": 1, "b": 2, "c": 3}


def test_column_ranks_fractional_ties():
    table = MetricTable(rows=[("a", {"m": 0.9}), ("b", {"m": 0.9}), ("c", {"m": 0.7})])
    assert column_ranks(table, "m") == {"a": 1.5, "b": 1.5, "c": 3}


def test_column_ranks_lower_is_better():
    table = MetricTable(rows=[("a", {"m": 3.0}), ("b", {"m": 1.0})])
    assert column_ranks(table, "m", higher_is_better=False) == {"b": 1, "a": 2}


def test_column_ranks_golden_lr_top3():
    ranks = column_ranks(golden_table(), "lr")
    assert ranks["GPT 4.1"] == 1
    assert ranks["Qwen3 235B"] == 2
    assert ranks["Gemma3 27B"] == 3


def test_column_ranks_nan_rejected():
    table = MetricTable(rows=[("a", {"m": float("nan")})])
    with pytest.raises(ValueError, match="NaN"):
        column_ranks(table, "m")


def test_column_ranks_order_invariance(rng):
    rows = [(f"s{i}", {"m": rng.choice([0.1, 0.5, 0.5, 0.9])}) for i in range(12)]
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert column_ranks(MetricTable(rows), "m") == column_ranks(MetricTable(shuffled), "m")


def test_average_rank_reproduces_golden_leaderboard():
    result = average_rank(golden_table(), ["lr", "scr"])
    for name, _, _, expected in GOLDEN_LEADERBOARD:
        assert result[name] == expected, name


def test_average_rank_requires_metrics():
    with pytest.raises(ValueError):
        average_rank(golden_table(), [])


def test_combine_scores_cases():
    assert combine_scores(1.0, 1.0, None, (3.0, 1.0, 2.0)) == 1.0
    assert combine_scores(0.8, 0.6, None, (1.0, 1.0, 0.0)) == pytest.approx(0.7)
    assert combine_scores(0.5, 0.5, 1.0, (1.0, 1.0, 2.0)) == pytest.approx(0.75)


def test_combine_scores_weight_validation():
    with pytest.raises(ValueError):
        combine_scores(1.0, 1.0, None, (0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        combine_scores(1.0, 1.0, 1.0, (-1.0, 1.0, 1.0))


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
       st.floats(0.1, 10), st.floats(0.1, 10), st.floats(0.1, 10),
       st.floats(0.1, 100))
def test_combine_scores_scale_invariant(lr, scr, rm, w1, w2, w3, k):
    base = combine_scores(lr, scr, rm, (w1, w2, w3))
    scaled = combine_scores(lr, scr, rm, (w1 * k, w2 * k, w3 * k))
    assert base == pytest.approx(scaled, abs=1e-9)


def _candidate(conv_id, translator, contents):
    return Candidate(conv_id, translator, make_conversation(conv_id, contents=contents))


def test_rank_single_candidate_wins():
    source = make_conversation("c", contents=[("user", "hello world")])
    result = rank_candidates(source, [_candidate("c", "only", [("user", "مرحبا بكم")])])
    assert result[0][0] == "only"


def test_rank_identity_arabic_beats_gibberish():
    source = make_conversation("c", contents=[("user", "مرحبا بالعالم الجميل")])
    arabic = _candidate("c", "good", [("user", "مرحبا بالعالم الجميل")])
    gibberish = _candidate("c", "bad", [("user", "zzqx vrtp mmlk wwnn")])
    result = rank_candidates(source, [gibberish, arabic])
    assert result[0][0] == "good"
    assert len(result) == 2
    assert result[0][1] > result[1][1]


def test_rank_tie_breaks_lexicographically():
    source = make_conversation("c", contents=[("user", "مرحبا")])
    a = _candidate("c", "bbb", [("user", "مرحبا")])
    b = _candidate("c", "aaa", [("user", "مرحبا")])
    result = rank_candidates(source, [a, b])
    assert [t for t, _ in result] == ["aaa", "bbb"]


def test_rank_scorer_failure_downgrades_with_warning(caplog):
    source = make_conversation("c", contents=[("user", "مرحبا")])
    cand = _candidate("c", "m", [("user", "مرحبا")])

    def failing_scorer(src, translated):
        raise RuntimeError("endpoint down")

    with caplog.at_level("WARNING"):
        result = rank_candidates(source, [cand], scorer=failing_scorer)
    assert result[0][0] == "m"
    assert any("reward scorer failed" in r.message for r in caplog.records)


def test_rank_weights_scaling_leaves_order(rng):
    source = make_conversation("c", contents=[("user", "مرحبا بالعالم")])
    cands = [
        _candidate("c", "t1", [("user", "مرحبا بالعالم")]),
        _candidate("c", "t2", [("user", "hello big world")]),
        _candidate("c", "t3", [("user", "مرحبا wrld")]),
    ]
    base = rank_candidates(source, cands, weights=(1, 1, 2))
    scaled = rank_candidates(source, cands, weights=(3, 3, 6))
    assert [t for t, _ in base] == [t for t, _ in scaled]


def test_rank_requires_candidates():
    with pytest.raises(ValueError):
        rank_candidates(make_conversation("c"), [])


# -- Bradley-Terry -----------------------------------------------------------


def test_bt_prob_symmetry_and_complement():
    assert bt_prob(1.3, 1.3) == 0.5
    assert bt_prob(2.0, 1.0) + bt_prob(1.0, 2.0) == pytest.approx(1.0)


def test_bt_prob_ln3_gap():
    assert bt_prob(math.log(3.0), 0.0) == pytest.approx(0.75, abs=1e-12)


def test_bt_prob_overflow_safe():
    assert bt_prob(1000.0, -1000.0) == pytest.approx(1.0)
    assert bt_prob(-1000.0, 1000.0) == pytest.approx(0.0)


def test_bt_two_system_closed_form():
    prefs = [PreferenceRecord("A", "B", 3), PreferenceRecord("B", "A", 1)]
    result = bt_fit(prefs, epsilon=0.0, tol=1e-12)
    gap = result.scores["A"] - result.scores["B"]
    assert gap == pytest.approx(math.log(3.0), abs=1e-6)
    assert bt_prob(result.scores["A"], result.scores["B"]) == pytest.approx(0.75, abs=1e-6)
    assert sum(result.scores.values()) == pytest.approx(0.0, abs=1e-12)
    assert result.converged


def test_bt_symmetric_record_is_flat():
    prefs = [PreferenceRecord("A", "B", 1), PreferenceRecord("B", "A", 1)]
    result = bt_fit(prefs, epsilon=0.0)
    assert result.scores["A"] == pytest.approx(0.0, abs=1e-9)
    assert result.scores["B"] == pytest.approx(0.0, abs=1e-9)


def test_bt_loglik_monotone_every_iteration():
    rng = random.Random(11)
    systems = ["a", "b", "c", "d", "e"]
    prefs = [PreferenceRecord(w, l, rng.randint(1, 9))
             for w in systems for l in systems if w != l and rng.random() < 0.8]
    result = bt_fit(prefs, epsilon=0.25, tol=1e-12, max_iters=500)
    trace = result.loglik_trace
    assert len(trace) >= 2
    for before, after in zip(trace, trace[1:]):
        assert after >= before - 1e-9 * max(1.0, abs(before))


def _simulate(scores: dict[str, float], draws: int, seed: int):
    rng = random.Random(seed)
    prefs = []
    names = sorted(scores)
    for i, si in enumerate(names):
        for sj in names[i + 1:]:
            p = bt_prob(scores[si], scores[sj])
            wins_i = sum(1 for _ in range(draws) if rng.random() < p)
            if wins_i:
                prefs.append(PreferenceRecord(si, sj, wins_i))
            if draws - wins_i:
                prefs.append(PreferenceRecord(sj, si, draws - wins_i))
    return prefs


def test_bt_recovers_generating_ranking():
    generating = {"s1": 1.2, "s2": 0.4, "s3": -0.4, "s4": -1.2}
    prefs = _simulate(generating, draws=1000, seed=99)
    result = bt_fit(prefs, epsilon=0.5)
    recovered = sorted(result.scores, key=result.scores.get, reverse=True)
    assert recovered == ["s1", "s2", "s3", "s4"]


def test_bt_translation_gauge():
    base = {"s1": 0.9, "s2": 0.1, "s3": -0.5, "s4": -0.5}
    shifted = {k: v + 7.3 for k, v in base.items()}
    prefs_a = _simulate(base, draws=400, seed=5)
    prefs_b = _simulate(shifted, draws=400, seed=5)
    assert prefs_a == prefs_b  # shift leaves every pairwise probability unchanged
    fit_a = bt_fit(prefs_a, epsilon=0.5)
    fit_b = bt_fit(prefs_b, epsilon=0.5)
    for system in base:
        assert fit_a.scores[system] == pytest.approx(fit_b.scores[system], abs=1e-12)


def test_bt_disconnected_graph_with_zero_epsilon():
    prefs = [PreferenceRecord("a", "b", 2), PreferenceRecord("b", "a", 1),
             PreferenceRecord("c", "d", 2), PreferenceRecord("d", "c", 1)]
    with pytest.raises(FitError, match="disconnected"):
        bt_fit(prefs, epsilon=0.0)
    bt_fit(prefs, epsilon=0.5)  # pseudo-counts reconnect the graph


def test_bt_zero_win_system_with_zero_epsilon():
    prefs = [PreferenceRecord("a", "b", 5)]
    with pytest.raises(FitError, match="no wins"):
        bt_fit(prefs, epsilon=0.0)


def test_bt_non_convergence_flagged():
    prefs = [PreferenceRecord("A", "B", 3), PreferenceRecord("B", "A", 1)]
    result = bt_fit(prefs, epsilon=0.0, tol=1e-15, max_iters=1)
    assert not result.converged
    assert result.iterations == 1


def test_bt_needs_two_systems():
    with pytest.raises(FitError):
        bt_fit([], epsilon=0.5)


def test_preference_record_validation():
    with pytest.raises(ValueError):
        PreferenceRecord("a", "a", 1)
    with pytest.raises(ValueError):
        PreferenceRecord("a", "b", 0)
