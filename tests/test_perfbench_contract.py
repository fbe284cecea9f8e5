"""The names that perfbench's layer tracer wraps must exist in tarjama.

``perfbench/spans.py`` wraps the functions listed in ``LAYERS`` by name,
so renaming or deleting one of them breaks ``perfbench/run.py --trace 1``
without failing any other test; so does a change to a name or call shape
that ``perfbench/probes.py`` uses.  ``SETUP_CODE`` in ``perfbench/run.py`` is
what every benchmarked process does before its first stage, so what it
imports is paid by every tarjama command."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tarjama.cli
from tarjama import ranking

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(spans):
    for module, functions in spans.LAYERS.items():
        mod = importlib.import_module(f"tarjama.{module}")
        for name in functions:
            assert callable(getattr(mod, name, None)), f"tarjama.{module}.{name}"


def test_tracer_installs_after_importing_cli_and_sees_ranking(spans):
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items()
               if name.startswith("tarjama")}
    tracer = spans.Tracer()
    try:
        tracer.install()
        row = {"translator_id": "t", "lr": 1.0, "scr": 0.5, "tokens": 3, "turns": 1}
        ranking.rank_rows([row], ranking.DEFAULT_WEIGHTS)
    finally:  # unwrap, so later tests run the plain functions
        for name, saved in modules.items():
            for attr, value in saved.items():
                setattr(sys.modules[name], attr, value)
    # rank_rows calls combine_scores through the module global it wraps.
    assert [span[0] for span in tracer.spans] == ["ranking.rank"]


# Modules that only some commands need, loaded on first use.
LAZY_MODULES = ("csv", "configparser", "dataclasses", "requests", "multiprocessing")


def _setup_code() -> str:
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "SETUP_CODE":
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/run.py defines no SETUP_CODE")


def _modules_after(code: str) -> set[str]:
    """Top-level names of the modules a fresh interpreter holds after *code*."""
    script = f"{code}\nimport sys\nprint(__import__('json').dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          check=True, timeout=60)
    return {name.split(".")[0] for name in json.loads(proc.stdout.splitlines()[-1])}


def test_setup_code_loads_no_lazy_module():
    loaded = _modules_after(_setup_code()) - _modules_after("pass")
    assert "tarjama" in loaded
    assert sorted(loaded.intersection(LAZY_MODULES)) == []


PROBES_PATH = ROOT / "perfbench" / "probes.py"


def test_every_name_probes_imports_from_tarjama_exists():
    tree = ast.parse(PROBES_PATH.read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)
               and (node.module or "").startswith("tarjama.")]
    assert imports
    for node in imports:
        mod = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(mod, alias.name), f"{node.module}.{alias.name}"


def test_probes_acquire_translate_complete_loop_runs(tmp_path):
    # The call shape of probes.py's acquire-latency loop, on a one-task queue.
    from tarjama.backends import TranslatorBackend, translate_chunk
    from tarjama.corpus import TranslationUnit
    from tarjama.workqueue import acquire, complete, enqueue

    units = [TranslationUnit(conversation_id="c", message_index=i, part_type="visible",
                             part_index=0, chunk_index=0, chunk_count=1, role="user",
                             source_text=f"text {i}") for i in range(3)]
    enqueue(tmp_path, units, "acquire", batch_size=8)
    backend = TranslatorBackend(id="mock-identity", kind="mock-identity")
    task = acquire(tmp_path, "p")
    results = {u.key: translate_chunk(backend, u, "{source}", target_language="Arabic")
               for u in task.units}
    assert complete(tmp_path, task, "p", results) is True
    assert acquire(tmp_path, "p") is None
