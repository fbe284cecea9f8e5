"""Pipeline configuration: an INI-style file with sections, overridable
by CLI flags.  All randomness flows from the single configured seed."""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from .chunking import ChunkPolicy
from .metrics import DEFAULT_ALPHA, DEFAULT_TAU
from .stats import FilterPolicy
from .tokenizers import ConfigurationError, TokenizerSpec


@dataclass
class BackendConfig:
    id: str = "mock-identity"
    kind: str = "mock-identity"
    endpoint: Optional[str] = None
    model: Optional[str] = None
    temperature: float = 0.2
    max_input_tokens: int = 512
    api_key_env: Optional[str] = None
    table_path: Optional[str] = None


@dataclass
class PipelineConfig:
    chunking_tokenizer: TokenizerSpec = field(default_factory=TokenizerSpec.builtin)
    analysis_tokenizer: TokenizerSpec = field(default_factory=TokenizerSpec.builtin)
    chunk_policy: ChunkPolicy = field(default_factory=ChunkPolicy)
    alpha: float = DEFAULT_ALPHA
    tau: float = DEFAULT_TAU
    backend: BackendConfig = field(default_factory=BackendConfig)
    ttl_seconds: float = 1800.0
    max_attempts: int = 3
    batch_size: int = 8
    combine_weights: tuple[float, float, float] = (1.0, 1.0, 2.0)
    filter_policy: FilterPolicy = field(default_factory=FilterPolicy)
    strata_ratios: dict[str, int] = field(
        default_factory=lambda: {"code": 1, "science": 1, "math": 2})
    sample_total: int = 200
    seed: int = 0
    strict: bool = True
    translate_system_messages: bool = True
    prompt_template: str = "Translate the following text to {target_language}.\n{source}"
    target_language: str = "Arabic"
    manifest_path: str = "runs.jsonl"

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _tokenizer_from_value(value: str) -> TokenizerSpec:
    value = value.strip()
    if value in ("", "builtin", "builtin-regex", "builtin-ws"):
        return TokenizerSpec.builtin()
    if value.startswith("external:"):
        path = value.split(":", 1)[1]
        if not Path(path).is_file():
            raise ConfigurationError(f"tokenizer vocab file not found: {path}")
        return TokenizerSpec.external(path)
    raise ConfigurationError(
        f"tokenizer must be 'builtin' or 'external:<path>', got {value!r}")


def _parse_ratios(value: str) -> dict[str, int]:
    ratios = {}
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, count = item.partition(":")
        ratios[name.strip()] = int(count)
    if not ratios:
        raise ConfigurationError(f"cannot parse ratios from {value!r}")
    return ratios


def load_config(path: Optional[str] = None) -> PipelineConfig:
    """Load configuration from an INI file; missing file is an error,
    missing keys fall back to defaults."""
    cfg = PipelineConfig()
    if path is None:
        return cfg
    if not Path(path).is_file():
        raise ConfigurationError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.optionxform = str  # split names in overrides are case-sensitive
    parser.read(path, encoding="utf-8")

    if parser.has_section("tokenizers"):
        section = parser["tokenizers"]
        if "chunking" in section:
            cfg.chunking_tokenizer = _tokenizer_from_value(section["chunking"])
        if "analysis" in section:
            cfg.analysis_tokenizer = _tokenizer_from_value(section["analysis"])
    if parser.has_section("chunking"):
        section = parser["chunking"]
        cfg.chunk_policy = ChunkPolicy(
            target_tokens=section.getint("target_tokens", cfg.chunk_policy.target_tokens),
            window_tokens=section.getint("window_tokens", cfg.chunk_policy.window_tokens),
            hard_cap_tokens=section.getint("hard_cap_tokens",
                                           cfg.chunk_policy.hard_cap_tokens),
        )
    if parser.has_section("metrics"):
        section = parser["metrics"]
        cfg.alpha = section.getfloat("alpha", cfg.alpha)
        cfg.tau = section.getfloat("tau", cfg.tau)
    if parser.has_section("backend"):
        section = parser["backend"]
        table_path = section.get("table_path", None)
        if table_path and not Path(table_path).is_file():
            raise ConfigurationError(f"backend table file not found: {table_path}")
        cfg.backend = BackendConfig(
            id=section.get("id", cfg.backend.id),
            kind=section.get("kind", cfg.backend.kind),
            endpoint=section.get("endpoint", None) or None,
            model=section.get("model", None) or None,
            temperature=section.getfloat("temperature", cfg.backend.temperature),
            max_input_tokens=section.getint("max_input_tokens",
                                            cfg.backend.max_input_tokens),
            api_key_env=section.get("api_key_env", None) or None,
            table_path=table_path,
        )
    if parser.has_section("queue"):
        section = parser["queue"]
        cfg.ttl_seconds = section.getfloat("ttl_seconds", cfg.ttl_seconds)
        cfg.max_attempts = section.getint("max_attempts", cfg.max_attempts)
        cfg.batch_size = section.getint("batch_size", cfg.batch_size)
    if parser.has_section("ranking"):
        section = parser["ranking"]
        cfg.combine_weights = (
            section.getfloat("weight_lr", cfg.combine_weights[0]),
            section.getfloat("weight_scr", cfg.combine_weights[1]),
            section.getfloat("weight_rm", cfg.combine_weights[2]),
        )
    if parser.has_section("filter") or parser.has_section("filter.overrides"):
        section = parser["filter"] if parser.has_section("filter") else {}
        overrides: dict[str, tuple[float, float]] = {}
        if parser.has_section("filter.overrides"):
            # one line per split: <split> = <min_lr>,<min_scr>
            for split, value in parser["filter.overrides"].items():
                lr_s, _, scr_s = value.partition(",")
                overrides[split] = (float(lr_s), float(scr_s))
        get_float = (section.getfloat if hasattr(section, "getfloat")
                     else lambda k, d: d)
        get_bool = (section.getboolean if hasattr(section, "getboolean")
                    else lambda k, d: d)
        cfg.filter_policy = FilterPolicy(
            min_lr=get_float("min_lr", cfg.filter_policy.min_lr),
            min_scr=get_float("min_scr", cfg.filter_policy.min_scr),
            reject_cjk=get_bool("reject_cjk", cfg.filter_policy.reject_cjk),
            per_split_overrides=overrides,
        )
    if parser.has_section("sample"):
        section = parser["sample"]
        if "ratios" in section:
            cfg.strata_ratios = _parse_ratios(section["ratios"])
        cfg.sample_total = section.getint("total", cfg.sample_total)
    if parser.has_section("run"):
        section = parser["run"]
        cfg.seed = section.getint("seed", cfg.seed)
        cfg.strict = section.getboolean("strict", cfg.strict)
        cfg.translate_system_messages = section.getboolean(
            "translate_system_messages", cfg.translate_system_messages)
        cfg.prompt_template = section.get("prompt_template", cfg.prompt_template)
        cfg.target_language = section.get("target_language", cfg.target_language)
        cfg.manifest_path = section.get("manifest", cfg.manifest_path)
    return cfg
