import json
import math

import pytest

from tarjama.cli import main
from tarjama.corpus import conversation_to_dict, load_corpus

from conftest import corpus_jsonl, make_conversation, random_corpus


@pytest.fixture
def fixture_corpus(tmp_path, rng):
    conversations = random_corpus(rng, 10, think_prob=0.5)
    path = tmp_path / "corpus.jsonl"
    path.write_text(corpus_jsonl(conversations), encoding="utf-8")
    return path, conversations


def run(args, tmp_path):
    manifest = tmp_path / "runs.jsonl"
    return main(args + ["--manifest", str(manifest)]), manifest


def test_pipeline_identity_backend_roundtrips_corpus(tmp_path, fixture_corpus):
    corpus_path, conversations = fixture_corpus
    out = tmp_path / "out"
    rc, manifest = run(["pipeline", "--input", str(corpus_path),
                        "--out", str(out), "--backend", "mock-identity"], tmp_path)
    assert rc == 0
    assert (out / "translated_corpus.jsonl").read_bytes() == corpus_path.read_bytes()
    report = (out / "report.md").read_text(encoding="utf-8")
    assert "| Split | Num Examples | Mean LR |" in report
    # manifest recorded the run
    entries = [json.loads(line) for line in manifest.read_text().splitlines()]
    assert entries[-1]["subcommand"] == "pipeline"
    assert entries[-1]["exit_code"] == 0
    assert str(corpus_path) in entries[-1]["inputs"]


def test_pipeline_mock_table_translates(tmp_path):
    conv = make_conversation("c1", contents=[("user", "hi")])
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text(corpus_jsonl([conv]), encoding="utf-8")
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps({"hi": "مرحبا"}), encoding="utf-8")
    out = tmp_path / "out"
    rc, _ = run(["pipeline", "--input", str(corpus_path), "--out", str(out),
                 "--backend", "mock-table", "--table", str(table_path)], tmp_path)
    assert rc == 0
    translated = load_corpus(out / "translated_corpus.jsonl")
    assert translated[0].messages[0].content == "مرحبا"


def test_pipeline_system_passthrough_flag(tmp_path):
    conv = make_conversation("c1", contents=[("system", "keep"), ("user", "hi")])
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text(corpus_jsonl([conv]), encoding="utf-8")
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps({"keep": "X", "hi": "Y"}), encoding="utf-8")
    out = tmp_path / "out"
    rc, _ = run(["pipeline", "--input", str(corpus_path), "--out", str(out),
                 "--backend", "mock-table", "--table", str(table_path),
                 "--no-translate-system"], tmp_path)
    assert rc == 0
    translated = load_corpus(out / "translated_corpus.jsonl")
    assert translated[0].messages[0].content == "keep"   # passed through
    assert translated[0].messages[1].content == "Y"


def test_decompose_enqueue_work_reconstruct_chain(tmp_path, fixture_corpus):
    corpus_path, conversations = fixture_corpus
    units = tmp_path / "units.jsonl"
    queue = tmp_path / "queue"
    rebuilt = tmp_path / "rebuilt.jsonl"

    rc, _ = run(["decompose", "--input", str(corpus_path),
                 "--units-out", str(units),
                 "--target-tokens", "8", "--window-tokens", "3",
                 "--hard-cap-tokens", "9"], tmp_path)
    assert rc == 0
    assert units.is_file()

    rc, _ = run(["enqueue", "--units", str(units), "--queue", str(queue),
                 "--translator-id", "mock", "--batch-size", "7"], tmp_path)
    assert rc == 0

    rc, _ = run(["work", "--queue", str(queue), "--worker-id", "w0",
                 "--backend", "mock-identity"], tmp_path)
    assert rc == 0

    rc, _ = run(["queue-status", "--queue", str(queue)], tmp_path)
    assert rc == 0

    rc, _ = run(["reconstruct", "--from-queue", str(queue),
                 "--corpus", str(corpus_path), "--out", str(rebuilt)], tmp_path)
    assert rc == 0
    assert rebuilt.read_bytes() == corpus_path.read_bytes()



def test_reconstruct_rejects_done_record_without_translation(tmp_path, capsys):
    conv = make_conversation("c1", contents=[("user", "hi")])
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text(corpus_jsonl([conv]), encoding="utf-8")
    units = tmp_path / "units.jsonl"
    queue = tmp_path / "queue"
    assert run(["decompose", "--input", str(corpus_path),
                "--units-out", str(units)], tmp_path)[0] == 0
    assert run(["enqueue", "--units", str(units), "--queue", str(queue),
                "--translator-id", "mock"], tmp_path)[0] == 0
    assert run(["work", "--queue", str(queue), "--worker-id", "w0",
                "--backend", "mock-identity"], tmp_path)[0] == 0
    (record_path,) = (queue / "done").glob("*.json")
    record = json.loads(record_path.read_text(encoding="utf-8"))
    del record["units"][0]["translated_text"]
    record_path.write_text(json.dumps(record), encoding="utf-8")

    rc, _ = run(["reconstruct", "--from-queue", str(queue),
                 "--corpus", str(corpus_path),
                 "--out", str(tmp_path / "rebuilt.jsonl")], tmp_path)
    assert rc == 1
    assert record_path.name in capsys.readouterr().err


def test_score_then_rank_produces_winners(tmp_path):
    conversations = [
        make_conversation(f"c{i}", split="dev",
                          contents=[("user", "مرحبا بالعالم الجميل")])
        for i in range(3)
    ]
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(corpus_jsonl(conversations), encoding="utf-8")
    candidates = []
    for conv in conversations:
        good = conversation_to_dict(conv)
        bad = conversation_to_dict(make_conversation(
            conv.id, split="dev", contents=[("user", "zzqx vrtp mmlk nnpp")]))
        candidates.append({"conversation_id": conv.id, "translator_id": "aaa-good",
                           "conversation": good})
        candidates.append({"conversation_id": conv.id, "translator_id": "bbb-bad",
                           "conversation": bad})
    cand_path = tmp_path / "candidates.jsonl"
    cand_path.write_text("".join(json.dumps(c, ensure_ascii=False) + "\n"
                                 for c in candidates), encoding="utf-8")
    scored = tmp_path / "scored.jsonl"
    rc, _ = run(["score", "--corpus", str(corpus_path),
                 "--candidates", str(cand_path), "--out", str(scored)], tmp_path)
    assert rc == 0
    rows = [json.loads(line) for line in scored.read_text().splitlines()]
    assert len(rows) == 6
    assert all(set(row) >= {"conversation_id", "translator_id", "lr", "scr",
                            "tokens", "turns"} for row in rows)

    winners = tmp_path / "winners.jsonl"
    ranking = tmp_path / "ranking.jsonl"
    rc, _ = run(["rank", "--scored", str(scored), "--winners-out", str(winners),
                 "--ranking-out", str(ranking)], tmp_path)
    assert rc == 0
    winner_rows = [json.loads(line) for line in winners.read_text().splitlines()]
    assert len(winner_rows) == 3
    assert all(row["translator_id"] == "aaa-good" for row in winner_rows)
    ranking_rows = [json.loads(line) for line in ranking.read_text().splitlines()]
    assert all(len(row["ranking"]) == 2 for row in ranking_rows)


def test_stats_report_from_scored_rows(tmp_path):
    rows = [
        {"conversation_id": "a", "translator_id": "m", "split": "s1",
         "lr": 1.0, "scr": 1.0, "tokens": 100, "turns": 2},
        {"conversation_id": "b", "translator_id": "m", "split": "s1",
         "lr": 0.5, "scr": 0.8, "tokens": 200, "turns": 4},
    ]
    scored = tmp_path / "scored.jsonl"
    scored.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "report.csv"
    rc, _ = run(["stats", "--scored", str(scored), "--out", str(out),
                 "--format", "csv"], tmp_path)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "Split,Num Examples,Mean LR,Mean SCR,Mean Turns," \
                       "Mean Total Tokens,P95 Tokens"
    assert lines[2] == "s1,2,0.7500,0.9000,3.00,150.00,200.00"


def test_bt_fit_cli_closed_form(tmp_path):
    prefs = tmp_path / "prefs.csv"
    prefs.write_text("winner,loser,count\nA,B,3\nB,A,1\n", encoding="utf-8")
    out = tmp_path / "scores.csv"
    rc, _ = run(["bt-fit", "--prefs", str(prefs), "--out", str(out),
                 "--epsilon", "0"], tmp_path)
    assert rc == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert float(rows["A"]) == pytest.approx(math.log(3) / 2, abs=1e-5)
    assert float(rows["B"]) == pytest.approx(-math.log(3) / 2, abs=1e-5)


def test_filter_cli(tmp_path):
    conversations = [
        make_conversation("keep", contents=[("user", "مرحبا")]),
        make_conversation("drop", contents=[("user", "漢字")]),
    ]
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(corpus_jsonl(conversations), encoding="utf-8")
    rows = [
        {"conversation_id": "keep", "translator_id": "m", "split": "dev",
         "lr": 0.9, "scr": 0.9, "tokens": 10, "turns": 2},
        {"conversation_id": "drop", "translator_id": "m", "split": "dev",
         "lr": 0.9, "scr": 0.9, "tokens": 10, "turns": 2},
    ]
    scored = tmp_path / "scored.jsonl"
    scored.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    kept = tmp_path / "kept.jsonl"
    rejected = tmp_path / "rejected.jsonl"
    rc, _ = run(["filter", "--corpus", str(corpus_path), "--scored", str(scored),
                 "--kept-out", str(kept), "--rejected-out", str(rejected),
                 "--min-lr", "0.3", "--min-scr", "0.3", "--reject-cjk"], tmp_path)
    assert rc == 0
    assert [c.id for c in load_corpus(kept)] == ["keep"]
    rejected_rows = [json.loads(line) for line in rejected.read_text().splitlines()]
    assert rejected_rows == [{"id": "drop", "reasons": ["cjk"]}]


def test_sample_cli_deterministic(tmp_path):
    conversations = []
    for i in range(40):
        category = ["code", "science", "math", "math"][i % 4]
        conversations.append(make_conversation(f"c{i}", category=category))
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(corpus_jsonl(conversations), encoding="utf-8")
    out1, out2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
    args = ["sample", "--corpus", str(corpus_path), "--ratios",
            "code:1,science:1,math:2", "--total", "8", "--seed", "5"]
    rc, _ = run(args + ["--out", str(out1)], tmp_path)
    assert rc == 0
    rc, _ = run(args + ["--out", str(out2)], tmp_path)
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    sampled = load_corpus(out1)
    assert len(sampled) == 8
    assert sum(1 for c in sampled if c.category == "math") == 4


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["queue-status", "--queue", str(tmp_path),
               "--config", str(tmp_path / "absent.ini")])
    assert rc == 2
    assert "absent.ini" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    rc = main(["frobnicate"])
    assert rc == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_input_file_exits_2(tmp_path):
    rc, _ = run(["decompose", "--input", str(tmp_path / "nope.jsonl"),
                 "--units-out", str(tmp_path / "u.jsonl")], tmp_path)
    assert rc == 2


def test_invalid_corpus_exits_1(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x"}\n', encoding="utf-8")
    rc, _ = run(["decompose", "--input", str(bad),
                 "--units-out", str(tmp_path / "u.jsonl")], tmp_path)
    assert rc == 1


def test_lenient_flag_skips_bad_lines(tmp_path):
    conv = make_conversation("good", contents=[("user", "hi")])
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("this is not json\n" + corpus_jsonl([conv]), encoding="utf-8")
    units = tmp_path / "u.jsonl"
    rc, _ = run(["decompose", "--input", str(mixed), "--units-out", str(units),
                 "--lenient"], tmp_path)
    assert rc == 0
    assert "good" in units.read_text()


def test_pipeline_rejects_undersized_backend_window(tmp_path, fixture_corpus):
    corpus_path, _ = fixture_corpus
    ini = tmp_path / "conf.ini"
    ini.write_text("[backend]\nkind = mock-identity\nmax_input_tokens = 100\n",
                   encoding="utf-8")
    rc, _ = run(["pipeline", "--input", str(corpus_path),
                 "--out", str(tmp_path / "out"), "--config", str(ini)], tmp_path)
    assert rc == 1


def test_score_with_reward_endpoint(tmp_path):
    import threading
    from http.server import HTTPServer
    from test_backends import _RewardHandler

    conv = make_conversation("c1", contents=[("user", "مرحبا")])
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(corpus_jsonl([conv]), encoding="utf-8")
    cand_path = tmp_path / "cands.jsonl"
    cand_path.write_text(json.dumps({
        "conversation_id": "c1", "translator_id": "m",
        "conversation": conversation_to_dict(conv)}, ensure_ascii=False) + "\n",
        encoding="utf-8")
    server = HTTPServer(("127.0.0.1", 0), _RewardHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        scored = tmp_path / "scored.jsonl"
        rc, _ = run(["score", "--corpus", str(corpus_path),
                     "--candidates", str(cand_path), "--out", str(scored),
                     "--reward-endpoint",
                     f"http://127.0.0.1:{server.server_port}"], tmp_path)
        assert rc == 0
        row = json.loads(scored.read_text().splitlines()[0])
        assert row["rm"] == pytest.approx(0.8)
    finally:
        server.shutdown()


def test_config_per_split_filter_overrides(tmp_path):
    from tarjama.config import load_config
    ini = tmp_path / "conf.ini"
    ini.write_text("""
[filter]
min_lr = 0.2
min_scr = 0.1

[filter.overrides]
Strict_Split = 0.8,0.9
""", encoding="utf-8")
    cfg = load_config(str(ini))
    assert cfg.filter_policy.min_lr == 0.2
    assert cfg.filter_policy.thresholds("Strict_Split") == (0.8, 0.9)
    assert cfg.filter_policy.thresholds("other") == (0.2, 0.1)


def test_config_file_drives_pipeline(tmp_path, fixture_corpus):
    corpus_path, _ = fixture_corpus
    ini = tmp_path / "conf.ini"
    ini.write_text("""
[chunking]
target_tokens = 8
window_tokens = 3
hard_cap_tokens = 9

[metrics]
alpha = 1.0
tau = 0.5
""", encoding="utf-8")
    out = tmp_path / "out"
    rc, _ = run(["pipeline", "--input", str(corpus_path), "--out", str(out),
                 "--config", str(ini)], tmp_path)
    assert rc == 0
    report = (out / "report.md").read_text(encoding="utf-8")
    assert "alpha=1.0" in report and "tau=0.5" in report
