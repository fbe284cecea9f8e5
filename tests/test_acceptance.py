"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import json
import math
import multiprocessing
import random
import time

import pytest

import tests_queue_helpers as helpers
from conftest import bt_prob, corpus_jsonl, identity_translate, random_corpus
from test_chunking import reference_plan, synthetic_text
from test_metrics import reference_classify
from test_ranking import GOLDEN_LEADERBOARD, golden_table, _simulate

from tarjama.chunking import ChunkPolicy, chunker, plan_chunks
from tarjama.cli import main
from tarjama.corpus import decompose, load_corpus, reconstruct, write_corpus
from tarjama.metrics import (CLASS_ARABIC, CLASS_IGNORE, CLASS_OTHER_LETTER,
                             classify_char, lr_score, LrInputs, script_purity,
                             ScrParams, strip_whitelisted)
from tarjama.ranking import PreferenceRecord, average_rank, bt_fit
from tarjama.stats import REPORT_COLUMNS, StrataPolicy, stratified_sample
from tarjama.tokenizers import TokenizerSpec
from tarjama.workqueue import enqueue, queue_status

BUILTIN = TokenizerSpec.builtin()


def _report(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS{suffix}")


def test_criterion_1_average_rank_golden_leaderboard():
    start = time.monotonic()
    result = average_rank(golden_table(), ["lr", "scr"])
    expected = {name: avg for name, _, _, avg in GOLDEN_LEADERBOARD}
    assert result == expected  # exact, all 11 systems
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("1 average-rank golden leaderboard", f"{elapsed * 1000:.1f} ms, 11 rows exact")


def test_criterion_2_length_ratio_formula_suite():
    # (target count, source count, alpha) -> hand-evaluated exp(-a|ln r|),
    # values frozen before implementation.
    table = [
        (500, 1000, 1.0, 0.5),
        (2000, 1000, 1.0, 0.5),
        (2000, 1000, 1.5, 0.35355339059327379),
        (500, 1000, 1.5, 0.35355339059327379),
        (4000, 1000, 1.0, 0.25),
        (250, 1000, 1.0, 0.25),
        (1500, 1000, 1.0, 0.66666666666666663),
        (3000, 1000, 1.2, 0.26758052058674353),
        (100, 1000, 1.25, 0.056234132519034932),
        (10000, 1000, 1.25, 0.056234132519034884),
        (1000, 1000, 1.3, 1.0),
        (8000, 1000, 1.0, 0.125),
    ]
    assert len(table) >= 10
    for target, source, alpha, expected in table:
        got = lr_score(LrInputs(source, target, 1000, 1000, alpha))
        assert got == pytest.approx(expected, abs=1e-9), (target, source, alpha)
    # symmetry r vs 1/r
    for num, den in [(500, 1000), (250, 1000), (100, 1000), (3000, 1000)]:
        for alpha in (1.0, 1.25, 1.5):
            fwd = lr_score(LrInputs(den, num, 1, 1, alpha))
            rev = lr_score(LrInputs(num, den, 1, 1, alpha))
            assert fwd == pytest.approx(rev, abs=1e-9)
    # identity
    assert lr_score(LrInputs(123, 123, 456, 456, 1.25)) == 1.0
    _report("2 length-ratio formula suite", f"{len(table)} pairs at 1e-9")


def test_criterion_3_script_purity_suite():
    # tau saturation is exact
    assert script_purity("ابتثجحخدذa", ScrParams(tau=0.9)) == 1.0   # ASR = 0.9
    assert script_purity("ابتثجحخدذو", ScrParams(tau=0.9)) == 1.0   # ASR = 1.0
    assert script_purity("مرحبا بالعالم") == 1.0
    assert script_purity("abc123") == 0.0
    # stripping idempotence on adversarial fixtures
    fixtures = [
        "زر https://a.b الآن",
        "x `code` y ```fence``` $m+n$ \\(q\\) a@b.co",
        "`` a@b.cc `",
        "$" + "A" * 180 + " longaddress@example.com " + "$",
        "```unterminated",
    ]
    for text in fixtures:
        once = strip_whitelisted(text)
        assert strip_whitelisted(once) == once, text
    # classifier equals the brute-force reference on every BMP codepoint
    checked = 0
    for cp in range(0x10000):
        for prev in (None, CLASS_ARABIC, CLASS_OTHER_LETTER, CLASS_IGNORE):
            assert classify_char(chr(cp), prev) == reference_classify(cp, prev), hex(cp)
            checked += 1
    _report("3 script-purity suite", f"classifier swept {checked} (cp, prev) pairs")


def test_criterion_4_chunker_oracle_and_identity():
    start = time.monotonic()
    rng = random.Random(424242)
    policies = [ChunkPolicy(490, 50, 506), ChunkPolicy(37, 9, 41),
                ChunkPolicy(101, 25, 111)]
    for i in range(200):
        text = synthetic_text(rng, rng.randint(200, 5000))
        policy = policies[i % len(policies)]
        fast = plan_chunks(text, BUILTIN, policy)
        slow = reference_plan(text, BUILTIN, policy)
        assert fast == slow, f"text {i}: cut offsets diverge from oracle"
        assert all(c.token_count <= policy.hard_cap_tokens for c in fast)

    policy = ChunkPolicy(target_tokens=8, window_tokens=3, hard_cap_tokens=9)
    for i in range(10_000):
        length = rng.randint(0, 120)
        text = "".join(chr(rng.choice((
            rng.randint(0x20, 0x7E), rng.randint(0x600, 0x6FF),
            rng.randint(0x4E00, 0x4E20), 0x20, 0xA, 0x2E)))
            for _ in range(length))
        chunks = plan_chunks(text, BUILTIN, policy)
        assert "".join(c.text for c in chunks) == text
        assert all(c.token_count <= policy.hard_cap_tokens for c in chunks)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report("4 chunker oracle equivalence",
            f"200 oracle texts + 10000 identity strings in {elapsed:.1f} s")


def test_criterion_5_roundtrip_thousand_conversations(tmp_path):
    rng = random.Random(515151)
    conversations = random_corpus(rng, 1000, think_prob=0.4, max_words=60)
    policy = ChunkPolicy(target_tokens=12, window_tokens=4, hard_cap_tokens=13)
    rebuilt = []
    multi_chunk_parts = 0
    chunk = chunker(BUILTIN, policy)
    for conv in conversations:
        units = [identity_translate(u) for u in decompose(conv, chunk)]
        multi_chunk_parts += sum(1 for u in units if u["chunk_index"] == 1)
        rng.shuffle(units)
        restored = reconstruct(units, split=conv.split)
        restored.category = conv.category
        rebuilt.append(restored)
    assert multi_chunk_parts > 500  # the fixture genuinely exercises chunking
    assert any("<think>" in m.content for c in conversations for m in c.messages)
    source_path = tmp_path / "source.jsonl"
    rebuilt_path = tmp_path / "rebuilt.jsonl"
    write_corpus(conversations, source_path)
    write_corpus(rebuilt, rebuilt_path)
    assert source_path.read_bytes() == rebuilt_path.read_bytes()
    _report("5 decompose/reconstruct roundtrip",
            f"1000 conversations byte-identical, {multi_chunk_parts} multi-chunk parts")


def _queue_units(n):
    from tarjama.corpus import TranslationUnit
    return [TranslationUnit(conversation_id=f"conv{i}", message_index=0,
                            part_type="visible", part_index=0, chunk_index=0,
                            chunk_count=1, role="user", source_text=f"unit {i}")
            for i in range(n)]


def _kill_live(procs):
    """Kill and reap every started process that is still running."""
    for p in procs:
        if p.pid is not None and p.exitcode is None:
            p.kill()
            p.join()


def test_criterion_6_queue_exactly_once_under_faults(tmp_path):
    start = time.monotonic()

    # (a) 4 workers, 100 tasks, two random SIGKILLs plus restarts.
    kill_queue = tmp_path / "kill-queue"
    tasks = enqueue(kill_queue, _queue_units(100), "seed", batch_size=1)
    assert len(tasks) == 100
    rng = random.Random(66)
    workers = [multiprocessing.Process(
        target=helpers.slow_worker, args=(str(kill_queue), f"w{i}", 1.0, 0.01))
        for i in range(4)]
    replacements = [multiprocessing.Process(
        target=helpers.slow_worker, args=(str(kill_queue), f"r{i}", 1.0, 0.01))
        for i in range(2)]
    try:
        for p in workers:
            p.start()
        for victim in rng.sample(workers, 2):
            time.sleep(rng.uniform(0.1, 0.3))
            victim.kill()
        for p in replacements:
            p.start()
        for p in workers + replacements:
            p.join(timeout=90)
            assert p.exitcode is not None, f"{p.name} still running after 90 s"
    finally:
        _kill_live(workers + replacements)
    status = queue_status(kill_queue)
    assert status["pending"] == 0 and status["failed"] == 0
    assert status["done"] == 100
    done_ids = sorted(p.stem for p in (kill_queue / "done").glob("*.json"))
    assert done_ids == sorted(t.task_id for t in tasks)  # each exactly once

    # (b) 1,000 contended acquisitions across 4 processes, zero double grants.
    race_queue = tmp_path / "race-queue"
    race_tasks = enqueue(race_queue, _queue_units(1000), "seed", batch_size=1)
    barrier = multiprocessing.Barrier(4)
    claim_paths = [tmp_path / f"claims-{i}.json" for i in range(4)]
    racers = [multiprocessing.Process(
        target=helpers.race_claim_and_complete,
        args=(str(race_queue), f"racer{i}", str(claim_paths[i]), barrier))
        for i in range(4)]
    try:
        for p in racers:
            p.start()
        for p in racers:
            p.join(timeout=90)
            assert p.exitcode == 0
    finally:
        _kill_live(racers)
    claims = []
    for path in claim_paths:
        claims.extend(json.loads(path.read_text()))
    assert len(claims) == 1000
    assert len(set(claims)) == 1000  # no task ever granted twice
    assert set(claims) == {t.task_id for t in race_tasks}

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report("6 queue exactly-once under faults",
            f"100 tasks + kills, 1000 races in {elapsed:.1f} s")


def test_criterion_7_bradley_terry_suite():
    # two-system closed form: win fraction 3/4
    fit = bt_fit([PreferenceRecord("A", "B", 3), PreferenceRecord("B", "A", 1)],
                 epsilon=0.0, tol=1e-12)
    gap = fit.scores["A"] - fit.scores["B"]
    assert gap == pytest.approx(math.log(3.0), abs=1e-6)
    assert bt_prob(fit.scores["A"], fit.scores["B"]) == pytest.approx(0.75, abs=1e-6)

    # MM log-likelihood is monotone at every iteration
    rng = random.Random(77)
    systems = ["a", "b", "c", "d", "e", "f"]
    prefs = [PreferenceRecord(w, l, rng.randint(1, 20))
             for w in systems for l in systems if w != l and rng.random() < 0.7]
    trace = bt_fit(prefs, epsilon=0.5, tol=1e-12, max_iters=400).loglik_trace
    assert len(trace) > 3
    for before, after in zip(trace, trace[1:]):
        assert after >= before - 1e-9 * max(1.0, abs(before))

    # four-system recovery from seeded Monte-Carlo preferences
    generating = {"s1": 1.2, "s2": 0.4, "s3": -0.4, "s4": -1.2}
    sampled = _simulate(generating, draws=1000, seed=2024)
    recovered = bt_fit(sampled, epsilon=0.5)
    order = sorted(recovered.scores, key=recovered.scores.get, reverse=True)
    assert order == ["s1", "s2", "s3", "s4"]
    assert sum(recovered.scores.values()) == pytest.approx(0.0, abs=1e-9)
    _report("7 preference-fit suite",
            f"closed form + {len(trace) - 1} monotone iterations + recovery")


def test_criterion_8_stratified_sampling():
    rng = random.Random(88)
    examples = []
    for category, n in (("code", 71), ("science", 83), ("math", 160)):
        for i in range(n):
            examples.append(type("Example", (), {"category": category,
                                                 "name": f"{category}-{i}"})())
    rng.shuffle(examples)
    policy = StrataPolicy(ratios={"code": 1, "science": 1, "math": 2}, total=200)
    sample = stratified_sample(examples, policy, seed=2468)
    counts = {}
    for example in sample:
        counts[example.category] = counts.get(example.category, 0) + 1
    assert counts == {"code": 50, "science": 50, "math": 100}
    again = stratified_sample(examples, policy, seed=2468)
    assert [e.name for e in sample] == [e.name for e in again]
    _report("8 stratified sampling", "1:1:2 at 200 -> 50/50/100, seed-stable")


def test_criterion_9_desk_scale_boundary_and_structural_report(tmp_path, capsys):
    # Full-scale numbers (per-split means over millions of examples,
    # configuration summaries, downstream-model evaluations, the
    # multi-hundred-GPU-hour translation itself) need the production
    # corpus and fleet; they are NOT reproduced here.  What stands in:
    # the property/golden suites above plus this end-to-end mock run,
    # checked structurally against the published report layout.
    rng = random.Random(99)
    conversations = random_corpus(rng, 25, think_prob=0.4)
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(corpus_jsonl(conversations), encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["pipeline", "--input", str(corpus_path), "--out", str(out),
               "--backend", "mock-identity", "--format", "csv",
               "--manifest", str(tmp_path / "runs.jsonl")])
    assert rc == 0
    report_lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    assert report_lines[0].startswith("#")  # tokenizer/alpha/tau/unicode header
    assert report_lines[1].split(",") == list(REPORT_COLUMNS)
    assert len(report_lines) >= 3
    rebuilt = load_corpus(out / "translated_corpus.jsonl")
    assert len(rebuilt) == len(conversations)
    print("ACCEPTANCE 9 desk-scale boundary: full-corpus statistics and "
          "downstream evaluations are declared out of desk scale; structural "
          "mock-pipeline report check PASS")
