import pytest

from tarjama.config import PipelineConfig, load_config
from tarjama.tokenizers import ConfigurationError

from conftest import README_INI


def test_default_config_hash_is_pinned():
    # Run manifests record this hash; a change in how records are turned
    # into the hashed payload would make old and new runs look different.
    assert PipelineConfig().config_hash() == "253b2da7a03611e9"


def test_readme_sample_config_loads_with_a_pinned_hash(tmp_path):
    # load_config rejects a section or key it does not read, so this also
    # keeps the documented keys and the loader in step.
    for section in ("tokenizers", "chunking", "metrics", "backend", "queue", "ranking",
                    "filter", "filter.overrides", "sample", "run"):
        assert f"[{section}]" in README_INI
    path = tmp_path / "sample.ini"
    path.write_text(README_INI, encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.backend.id == "my-translator"
    assert cfg.filter_policy.thresholds("code_heavy_split") == (0.3, 0.05)
    assert cfg.config_hash() == "2d0c8204512b4467"


@pytest.mark.parametrize("ini, where", [
    ("[metrics]\nalpha = 1.25   ; comment\n", "[metrics] alpha:"),          # getfloat
    ("[queue]\nbatch_size = eight\n", "[queue] batch_size:"),               # getint
    # the queue's values must be positive
    ("[queue]\nttl_seconds = 0\n", "[queue] ttl_seconds: ttl_seconds must be positive"),
    ("[queue]\nttl_seconds = nan\n", "[queue] ttl_seconds: ttl_seconds must be positive"),
    ("[queue]\nmax_attempts = 0\n", "[queue] max_attempts: max_attempts must be positive"),
    ("[queue]\nbatch_size = 0\n", "[queue] batch_size: batch_size must be positive"),
    ("[run]\nstrict = maybe\n", "[run] strict:"),                           # getboolean
    ("[chunking]\ntarget_tokens = 600\n",                                  # ChunkPolicy
     "[chunking]: target_tokens must not exceed hard_cap_tokens"),
    ("[filter.overrides]\ndev = 0.3;0.1\n", "[filter.overrides] dev:"),
    ("[sample]\nratios = code:1,math:two\n", "[sample] ratios:"),
    ("[sample]\nratios = ,\n", "[sample] ratios: cannot parse ratios from ','"),
    # the checks of LrInputs, ScrParams and combine_scores, made at load time
    ("[metrics]\nalpha = 0\n", "[metrics] alpha: alpha must be positive"),
    ("[metrics]\ntau = 1.5\n", "[metrics] tau: tau must be in (0, 1]"),
    ("[ranking]\nweight_lr = -1\n", "[ranking] weight_lr: weights must be non-negative"),
    ("[ranking]\nweight_lr = 0\nweight_scr = 0\nweight_rm = 0\n",
     "[ranking] weight_lr, weight_scr, weight_rm: weights must not all be zero"),
    # a key or section that nothing reads
    ("[chunking]\nhard_cap_token = 9\n", "[chunking] hard_cap_token: unknown key"),
    ("[chunkin]\nhard_cap_tokens = 9\n", "[chunkin]: unknown section"),
    ("[filters]\n", "[filters]: unknown section"),
])
def test_unparseable_value_names_its_section_and_key(tmp_path, ini, where):
    path = tmp_path / "bad.ini"
    path.write_text(ini, encoding="utf-8")
    with pytest.raises(ConfigurationError) as exc:
        load_config(str(path))
    assert str(exc.value).startswith(where)


def test_split_names_and_default_section_keys_are_free(tmp_path):
    path = tmp_path / "free.ini"
    path.write_text("[DEFAULT]\nfloor = 0.2\n\n[filter]\nmin_lr = %(floor)s\n\n"
                    "[filter.overrides]\nAny_Split = 0.1,0.1\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.filter_policy.min_lr == 0.2
    assert cfg.filter_policy.thresholds("Any_Split") == (0.1, 0.1)


@pytest.mark.parametrize("ini, where", [
    # the misspelt key leaves hard_cap_tokens at its default, under the target
    ("[chunking]\ntarget_tokens = 600\nhard_cap_token = 700\n",
     "[chunking] hard_cap_token: unknown key"),
    ("[queue]\nbatch_size = eight\n\n[ranking]\nweight_lm = 1\n",
     "[ranking] weight_lm: unknown key"),
    ("[metrics]\nalpha = 0\n\n[metric]\ntau = 0.5\n", "[metric]: unknown section"),
])
def test_unknown_key_is_reported_before_any_value_error(tmp_path, ini, where):
    path = tmp_path / "typo.ini"
    path.write_text(ini, encoding="utf-8")
    with pytest.raises(ConfigurationError) as exc:
        load_config(str(path))
    assert str(exc.value).startswith(where)
