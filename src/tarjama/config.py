"""Pipeline configuration: an INI-style file with sections, overridable
by CLI flags.  All randomness flows from the single configured seed."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import NamedTuple, Optional

from .chunking import ChunkPolicy
from .metrics import DEFAULT_ALPHA, DEFAULT_TAU
from .stats import FilterPolicy
from .tokenizers import ConfigurationError, TokenizerSpec


class BackendConfig(NamedTuple):
    id: str = "mock-identity"
    kind: str = "mock-identity"
    endpoint: Optional[str] = None
    model: Optional[str] = None
    temperature: float = 0.2
    max_input_tokens: int = 512
    api_key_env: Optional[str] = None
    table_path: Optional[str] = None


class PipelineConfig:
    __slots__ = ("chunking_tokenizer", "analysis_tokenizer", "chunk_policy", "alpha",
                 "tau", "backend", "ttl_seconds", "max_attempts", "batch_size",
                 "combine_weights", "filter_policy", "strata_ratios", "sample_total",
                 "seed", "strict", "translate_system_messages", "prompt_template",
                 "target_language", "manifest_path")

    def __init__(self, chunking_tokenizer: Optional[TokenizerSpec] = None,
                 analysis_tokenizer: Optional[TokenizerSpec] = None,
                 chunk_policy: Optional[ChunkPolicy] = None,
                 alpha: float = DEFAULT_ALPHA, tau: float = DEFAULT_TAU,
                 backend: BackendConfig = BackendConfig(),
                 ttl_seconds: float = 1800.0, max_attempts: int = 3,
                 batch_size: int = 8,
                 combine_weights: tuple[float, float, float] = (1.0, 1.0, 2.0),
                 filter_policy: FilterPolicy = FilterPolicy(),
                 strata_ratios: Optional[dict[str, int]] = None,
                 sample_total: int = 200, seed: int = 0, strict: bool = True,
                 translate_system_messages: bool = True,
                 prompt_template: str = ("Translate the following text to "
                                         "{target_language}.\n{source}"),
                 target_language: str = "Arabic",
                 manifest_path: str = "runs.jsonl") -> None:
        self.chunking_tokenizer = chunking_tokenizer or TokenizerSpec.builtin()
        self.analysis_tokenizer = analysis_tokenizer or TokenizerSpec.builtin()
        self.chunk_policy = chunk_policy or ChunkPolicy()
        self.alpha = alpha
        self.tau = tau
        self.backend = backend
        self.ttl_seconds = ttl_seconds
        self.max_attempts = max_attempts
        self.batch_size = batch_size
        self.combine_weights = combine_weights
        self.filter_policy = filter_policy
        self.strata_ratios = ({"code": 1, "science": 1, "math": 2}
                              if strata_ratios is None else strata_ratios)
        self.sample_total = sample_total
        self.seed = seed
        self.strict = strict
        self.translate_system_messages = translate_system_messages
        self.prompt_template = prompt_template
        self.target_language = target_language
        self.manifest_path = manifest_path

    def config_hash(self) -> str:
        """Hash of every field, nested records as field dicts."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        for name in ("chunking_tokenizer", "analysis_tokenizer", "chunk_policy"):
            record = fields[name]
            fields[name] = {f: getattr(record, f) for f in record.__slots__}
        fields["backend"] = self.backend._asdict()
        fields["filter_policy"] = dict(
            self.filter_policy._asdict(),
            per_split_overrides=dict(self.filter_policy.per_split_overrides))
        payload = json.dumps(fields, sort_keys=True, default=str)
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


def _checked(where: str, convert, *args):
    """``convert(*args)``, with a ``ValueError`` turned into a
    ``ConfigurationError`` that starts with *where*."""
    try:
        return convert(*args)
    except ValueError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


def _get(section, key: str, default, kind: str):
    """``section.get<kind>(key, default)``; a value it cannot parse is a
    ``ConfigurationError`` naming the section and the key."""
    return _checked(f"[{section.name}] {key}", getattr(section, "get" + kind),
                    key, default)


def load_config(path: Optional[str] = None) -> PipelineConfig:
    """Load configuration from an INI file; missing file is an error and
    missing keys fall back to defaults.  A file that ConfigParser rejects, or
    a value it cannot parse or validate, is a ConfigurationError."""
    cfg = PipelineConfig()
    if path is None:
        return cfg
    if not Path(path).is_file():
        raise ConfigurationError(f"config file not found: {path}")
    import configparser  # loaded only when a config file is given

    parser = configparser.ConfigParser()
    parser.optionxform = str  # split names in overrides are case-sensitive
    try:
        parser.read(path, encoding="utf-8")
        for name in parser.sections():
            parser.items(name)  # interpolates every value here, not where it is read
    except configparser.Error as exc:
        where = f"[{exc.section}] {exc.option}" if hasattr(exc, "option") else path
        raise ConfigurationError(f"{where}: {exc}") from None

    if parser.has_section("tokenizers"):
        section = parser["tokenizers"]
        if "chunking" in section:
            cfg.chunking_tokenizer = _tokenizer_from_value(section["chunking"])
        if "analysis" in section:
            cfg.analysis_tokenizer = _tokenizer_from_value(section["analysis"])
    if parser.has_section("chunking"):
        section = parser["chunking"]
        base = cfg.chunk_policy
        cfg.chunk_policy = _checked(
            "[chunking]", ChunkPolicy,
            _get(section, "target_tokens", base.target_tokens, "int"),
            _get(section, "window_tokens", base.window_tokens, "int"),
            _get(section, "hard_cap_tokens", base.hard_cap_tokens, "int"))
    if parser.has_section("metrics"):
        section = parser["metrics"]
        cfg.alpha = _get(section, "alpha", cfg.alpha, "float")
        cfg.tau = _get(section, "tau", cfg.tau, "float")
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
            temperature=_get(section, "temperature", cfg.backend.temperature, "float"),
            max_input_tokens=_get(section, "max_input_tokens",
                                  cfg.backend.max_input_tokens, "int"),
            api_key_env=section.get("api_key_env", None) or None,
            table_path=table_path,
        )
    if parser.has_section("queue"):
        section = parser["queue"]
        cfg.ttl_seconds = _get(section, "ttl_seconds", cfg.ttl_seconds, "float")
        cfg.max_attempts = _get(section, "max_attempts", cfg.max_attempts, "int")
        cfg.batch_size = _get(section, "batch_size", cfg.batch_size, "int")
    if parser.has_section("ranking"):
        section = parser["ranking"]
        cfg.combine_weights = (
            _get(section, "weight_lr", cfg.combine_weights[0], "float"),
            _get(section, "weight_scr", cfg.combine_weights[1], "float"),
            _get(section, "weight_rm", cfg.combine_weights[2], "float"),
        )
    if parser.has_section("filter") or parser.has_section("filter.overrides"):
        policy = cfg.filter_policy
        if parser.has_section("filter"):
            section = parser["filter"]
            policy = policy._replace(
                min_lr=_get(section, "min_lr", policy.min_lr, "float"),
                min_scr=_get(section, "min_scr", policy.min_scr, "float"),
                reject_cjk=_get(section, "reject_cjk", policy.reject_cjk, "boolean"))
        overrides: dict[str, tuple[float, float]] = {}
        if parser.has_section("filter.overrides"):
            # one line per split: <split> = <min_lr>,<min_scr>
            for split, value in parser["filter.overrides"].items():
                lr_s, _, scr_s = value.partition(",")
                overrides[split] = _checked(f"[filter.overrides] {split}",
                                            lambda: (float(lr_s), float(scr_s)))
        cfg.filter_policy = policy._replace(per_split_overrides=overrides)
    if parser.has_section("sample"):
        section = parser["sample"]
        if "ratios" in section:
            cfg.strata_ratios = _checked("[sample] ratios", _parse_ratios,
                                         section["ratios"])
        cfg.sample_total = _get(section, "total", cfg.sample_total, "int")
    if parser.has_section("run"):
        section = parser["run"]
        cfg.seed = _get(section, "seed", cfg.seed, "int")
        cfg.strict = _get(section, "strict", cfg.strict, "boolean")
        cfg.translate_system_messages = _get(
            section, "translate_system_messages", cfg.translate_system_messages,
            "boolean")
        cfg.prompt_template = section.get("prompt_template", cfg.prompt_template)
        cfg.target_language = section.get("target_language", cfg.target_language)
        cfg.manifest_path = section.get("manifest", cfg.manifest_path)
    return cfg
