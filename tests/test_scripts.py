import os
import subprocess
import sys
from pathlib import Path

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
