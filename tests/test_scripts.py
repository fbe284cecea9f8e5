import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(workdir: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_mock_pipeline.py"),
         "--workdir", str(workdir), "--num", "5", "--seed", "0"],
        env=env, cwd=workdir.parent, capture_output=True, text=True, timeout=120)


def _artifacts(workdir: Path) -> dict[str, bytes]:
    # runs.jsonl records paths and timestamps, so it differs between runs.
    return {str(p.relative_to(workdir)): p.read_bytes()
            for p in sorted(workdir.rglob("*"))
            if p.is_file() and p.name != "runs.jsonl"}


def test_mock_pipeline_demo_is_byte_identical_across_runs(tmp_path):
    first, second = tmp_path / "a" / "demo", tmp_path / "b" / "demo"
    for workdir in (first, second):
        workdir.parent.mkdir()
        proc = _run_demo(workdir)
        assert proc.returncode == 0, proc.stderr
    artifacts = _artifacts(first)
    assert "report.md" in artifacts and "sampled.jsonl" in artifacts
    assert artifacts == _artifacts(second)


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _perfbench_stdout(wall: float, rss: float, cpu: tuple = ()) -> str:
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    cpu_line = ("cpu seconds of the tarjama processes per iteration: "
                + " ".join(f"{c:.3f}" for c in cpu) + "\n") if cpu else ""
    return f"workload many-short seed 1: ...\n{cpu_line}sha256 ...\n{json.dumps(result)}\n"


def test_bench_pairs_summary_of_canned_runs(tmp_path, monkeypatch, capsys):
    bench = _bench_pairs()
    metrics = [{"name": "wall_s", "better": "lower"},
               {"name": "peak_rss_mb", "better": "lower"}]
    walls = [(2.0, 1.7), (2.2, 1.9), (1.9, 1.8), (2.1, 1.8), (2.0, 2.1)]
    pairs = [(bench.parse_run(_perfbench_stdout(b, 30.0)),
              bench.parse_run(_perfbench_stdout(c, 30.0))) for b, c in walls]
    wall, rss = bench.summarize(pairs, metrics)
    assert wall["base"] == pytest.approx((2.0, 2.0, 2.1))
    assert wall["change"] == pytest.approx((1.8, 1.8, 1.9))
    assert wall["ratio"] == pytest.approx(1.9 / 2.2)  # median of the five pair ratios
    assert (wall["wins"], wall["pairs"]) == (4, 5)
    assert not wall["gain"]  # 4 of 5 pairs is under nine tenths
    assert (rss["wins"], rss["ratio"], rss["gain"]) == (0, 1.0, False)
    pairs[4] = (pairs[4][0], bench.parse_run(_perfbench_stdout(1.7, 30.0)))
    assert bench.summarize(pairs, metrics)[0]["gain"]
    assert "wall_s" in bench.format_summary(bench.summarize(pairs, metrics))

    # cpu_s: the median of each run's CPU seconds per iteration, once every
    # run printed them.
    cpus = [(1.0, 0.8), (1.1, 0.9), (1.2, 0.9), (1.0, 0.7), (1.1, 1.0)]
    pairs = [(bench.parse_run(_perfbench_stdout(2.0, 30.0, (b, 9.0, 0.1))),
              bench.parse_run(_perfbench_stdout(2.0, 30.0, (c, 9.0, 0.1))))
             for b, c in cpus]
    wall, rss, cpu = bench.summarize(pairs, metrics)
    assert (cpu["name"], cpu["better"]) == ("cpu_s", "lower")
    assert cpu["base"] == pytest.approx((1.0, 1.1, 1.1))
    assert cpu["change"] == pytest.approx((0.8, 0.9, 0.9))
    assert (cpu["wins"], cpu["pairs"], cpu["gain"]) == (5, 5, True)
    assert cpu["ratio"] == pytest.approx(0.8 / 1.0)  # median of the five pair ratios
    assert not wall["gain"] and "cpu_s" in bench.format_summary([cpu])
    pairs[2] = (bench.parse_run(_perfbench_stdout(2.0, 30.0)), pairs[2][1])
    assert [r["name"] for r in bench.summarize(pairs, metrics)] == ["wall_s", "peak_rss_mb"]

    # Several --workload flags: the pairs of each in turn, one block each,
    # and --json writes every run and summary.
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))
    base, change = tmp_path / "base", tmp_path
    base.mkdir()
    walls = {"many-short": {base: 2.0, change: 1.5}, "long-think": {base: 1.0, change: 1.1}}
    runs = []

    def run_once(checkout, workload, seed, seconds):
        runs.append((workload, "base" if checkout == base else "change"))
        return bench.parse_run(_perfbench_stdout(walls[workload][checkout], 30.0))

    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", str(base), str(change),
                                      "--workload", "many-short", "--workload",
                                      "long-think", "--pairs", "2", "--json",
                                      str(tmp_path / "bench.json")])
    assert bench.main() == 0
    assert runs == [(w, side) for w in ("many-short", "long-think")
                    for side in ("base", "change", "change", "base")]
    blocks = capsys.readouterr().out.split(" summary, seed 1:\n")
    assert [b.splitlines()[-1].split()[0] for b in blocks[:-1]] == ["many-short",
                                                                   "long-think"]
    assert "GAIN" in blocks[1].splitlines()[0] and "GAIN" not in blocks[2]
    report = json.loads((tmp_path / "bench.json").read_text(encoding="utf-8"))
    assert {key: report[key] for key in ("seed", "seconds", "pairs", "python", "cpu_count")} == {
        "seed": 1, "seconds": 35, "pairs": 2, "python": platform.python_version(),
        "cpu_count": os.cpu_count()}
    assert isinstance(report["base"], str) and isinstance(report["change"], str)
    assert list(report["workloads"]) == ["many-short", "long-think"]
    runs = report["workloads"]["many-short"]["runs"]
    assert [(r["pair"], r["side"]) for r in runs] == [(0, "base"), (0, "change"),
                                                      (1, "change"), (1, "base")]
    assert [r["metrics"]["wall_s"] for r in runs] == [2.0, 1.5, 1.5, 2.0]
    assert runs[0] == {"pair": 0, "side": "base", "correct": True,
                       "metrics": {"wall_s": 2.0, "peak_rss_mb": 30.0},
                       "sha256": ["sha256 ..."]}
    for workload, gain in (("many-short", True), ("long-think", False)):
        summary = report["workloads"][workload]["summary"]
        assert [r["name"] for r in summary] == ["wall_s", "peak_rss_mb"]
        assert (summary[0]["wins"], summary[0]["pairs"], summary[0]["gain"]) == (
            2 * gain, 2, gain)
