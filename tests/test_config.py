import re
from pathlib import Path

from tarjama.config import PipelineConfig, load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_default_config_hash_is_pinned():
    # Run manifests record this hash; a change in how records are turned
    # into the hashed payload would make old and new runs look different.
    assert PipelineConfig().config_hash() == "d0424577a5bab8ce"


def test_readme_sample_config_loads_with_a_pinned_hash(tmp_path):
    sample = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"),
                       re.DOTALL).group(1)
    for section in ("tokenizers", "chunking", "metrics", "backend", "queue", "ranking",
                    "filter", "filter.overrides", "sample", "run"):
        assert f"[{section}]" in sample
    path = tmp_path / "sample.ini"
    path.write_text(sample, encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.backend.id == "my-translator"
    assert cfg.filter_policy.thresholds("code_heavy_split") == (0.3, 0.05)
    assert cfg.config_hash() == "2d0c8204512b4467"
