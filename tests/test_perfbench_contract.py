"""The names that perfbench's layer tracer wraps must exist in tarjama.

``perfbench/spans.py`` wraps the functions listed in ``LAYERS`` by name,
so renaming or deleting one of them breaks ``perfbench/run.py --trace 1``
without failing any other test."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import tarjama.cli
from tarjama import ranking

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
