import re
from pathlib import Path

import pytest

from tarjama.config import PipelineConfig, load_config
from tarjama.tokenizers import ConfigurationError

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


@pytest.mark.parametrize("ini, where", [
    ("[metrics]\nalpha = 1.25   ; comment\n", "[metrics] alpha:"),          # getfloat
    ("[queue]\nbatch_size = eight\n", "[queue] batch_size:"),               # getint
    ("[run]\nstrict = maybe\n", "[run] strict:"),                           # getboolean
    ("[chunking]\ntarget_tokens = 600\n",                                  # ChunkPolicy
     "[chunking]: target_tokens must not exceed hard_cap_tokens"),
    ("[filter.overrides]\ndev = 0.3;0.1\n", "[filter.overrides] dev:"),
    ("[sample]\nratios = code:1,math:two\n", "[sample] ratios:"),
])
def test_unparseable_value_names_its_section_and_key(tmp_path, ini, where):
    path = tmp_path / "bad.ini"
    path.write_text(ini, encoding="utf-8")
    with pytest.raises(ConfigurationError) as exc:
        load_config(str(path))
    assert str(exc.value).startswith(where)
