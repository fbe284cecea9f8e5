"""Pipeline configuration: an INI-style file with sections, overridable
by CLI flags.  All randomness flows from the single configured seed."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .backends import DEFAULT_MAX_INPUT_TOKENS, DEFAULT_TEMPERATURE
from .chunking import ChunkPolicy
from .metrics import DEFAULT_ALPHA, DEFAULT_TAU, LrInputs, ScrParams
from .ranking import DEFAULT_WEIGHTS, combine_scores
from .stats import FilterPolicy
from .tokenizers import ConfigurationError, TokenizerSpec
from .workqueue import DEFAULT_MAX_ATTEMPTS, DEFAULT_TTL_SECONDS


class BackendConfig(NamedTuple):
    id: str = "mock-identity"
    kind: str = "mock-identity"
    endpoint: Optional[str] = None
    model: Optional[str] = None
    temperature: float = DEFAULT_TEMPERATURE
    max_input_tokens: int = DEFAULT_MAX_INPUT_TOKENS
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
                 ttl_seconds: float = DEFAULT_TTL_SECONDS,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 batch_size: int = 8,
                 combine_weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
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
        raise ValueError(f"cannot parse ratios from {value!r}")
    return ratios


def checked_alpha(alpha: float) -> float:
    """*alpha*, or the ``ValueError`` that ``LrInputs`` raises for it."""
    return LrInputs(0, 0, 0, 0, alpha).alpha


def checked_tau(tau: float) -> float:
    """*tau*, or the ``ValueError`` that ``ScrParams`` raises for it."""
    return ScrParams(tau).tau


def checked_weights(weights) -> tuple[float, float, float]:
    """*weights*, or the ``ValueError`` that ``combine_scores`` raises for
    them on a row with a reward score (without one, it also needs a
    positive LR or SCR weight, which only the rows can tell)."""
    combine_scores(0.0, 0.0, 0.0, weights)
    return tuple(weights)


def checked_positive(key: str) -> Callable[[float], float]:
    """A check that passes a value above 0 and raises a ValueError naming
    *key* for any other, NaN included."""
    def check(value: float) -> float:
        if not value > 0:
            raise ValueError(f"{key} must be positive")
        return value
    return check


def load_config(path: Optional[str] = None) -> PipelineConfig:
    """Load configuration from an INI file; missing file is an error and
    missing keys fall back to defaults.  A file that ConfigParser rejects,
    a value it cannot parse or validate, or a section or key that nothing
    here reads is a ConfigurationError naming the section and the key;
    only the split names of ``[filter.overrides]`` are free.  An unknown
    section or key is reported before any value error, which a misspelt
    key may have caused."""
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
    known: set[tuple[str, str]] = set()
    errors: list[ConfigurationError] = []  # the first is raised after the key check

    def checked(where: str, default, convert, *args):
        """``convert(*args)``; on a ValueError, prefixed with *where*, or a
        ConfigurationError, *default*, with the error kept in *errors*."""
        try:
            return convert(*args)
        except ValueError as exc:
            errors.append(ConfigurationError(f"{where}: {exc}"))
        except ConfigurationError as exc:
            errors.append(exc)
        return default

    def get(name: str, key: str, default=None, kind: str = "", check=None):
        """``[name] key`` parsed by ``get<kind>`` and then *check*, or
        *default* when the file does not set it or its value fails."""
        known.add((name, key))
        if not parser.has_option(name, key):
            return default
        read = getattr(parser[name], "get" + kind)
        return checked(f"[{name}] {key}", default,
                       lambda: read(key) if check is None else check(read(key)))

    def own_keys(name: str) -> list[str]:
        """The keys that section *name* sets itself, not through [DEFAULT]."""
        return [key for key in parser.options(name) if key not in parser.defaults()]

    for use in ("chunking", "analysis"):
        spec = get("tokenizers", use, check=_tokenizer_from_value)
        if spec is not None:
            setattr(cfg, f"{use}_tokenizer", spec)
    base = cfg.chunk_policy
    cfg.chunk_policy = checked(
        "[chunking]", base, ChunkPolicy,
        get("chunking", "target_tokens", base.target_tokens, "int"),
        get("chunking", "window_tokens", base.window_tokens, "int"),
        get("chunking", "hard_cap_tokens", base.hard_cap_tokens, "int"))
    cfg.alpha = get("metrics", "alpha", cfg.alpha, "float", checked_alpha)
    cfg.tau = get("metrics", "tau", cfg.tau, "float", checked_tau)
    table_path = get("backend", "table_path")
    if table_path and not Path(table_path).is_file():
        errors.append(ConfigurationError(f"backend table file not found: {table_path}"))
    cfg.backend = BackendConfig(
        id=get("backend", "id", cfg.backend.id),
        kind=get("backend", "kind", cfg.backend.kind),
        endpoint=get("backend", "endpoint") or None,
        model=get("backend", "model") or None,
        temperature=get("backend", "temperature", cfg.backend.temperature, "float"),
        max_input_tokens=get("backend", "max_input_tokens",
                             cfg.backend.max_input_tokens, "int"),
        api_key_env=get("backend", "api_key_env") or None,
        table_path=table_path,
    )
    for key, kind in (("ttl_seconds", "float"), ("max_attempts", "int"),
                      ("batch_size", "int")):
        setattr(cfg, key, get("queue", key, getattr(cfg, key), kind, checked_positive(key)))
    keys = ("weight_lr", "weight_scr", "weight_rm")
    weights = [get("ranking", key, default, "float")
               for key, default in zip(keys, cfg.combine_weights)]
    given = ", ".join(key for key in keys if parser.has_option("ranking", key))
    cfg.combine_weights = checked(f"[ranking] {given}", cfg.combine_weights,
                                  checked_weights, weights)
    policy = cfg.filter_policy
    cfg.filter_policy = policy._replace(
        min_lr=get("filter", "min_lr", policy.min_lr, "float"),
        min_scr=get("filter", "min_scr", policy.min_scr, "float"),
        reject_cjk=get("filter", "reject_cjk", policy.reject_cjk, "boolean"))
    if parser.has_section("filter.overrides"):
        # one line per split: <split> = <min_lr>,<min_scr>
        overrides: dict[str, tuple[float, float]] = {}
        for split in own_keys("filter.overrides"):
            lr_s, _, scr_s = parser["filter.overrides"][split].partition(",")
            overrides[split] = checked(f"[filter.overrides] {split}", None,
                                       lambda: (float(lr_s), float(scr_s)))
        cfg.filter_policy = cfg.filter_policy._replace(per_split_overrides=overrides)
    cfg.strata_ratios = get("sample", "ratios", cfg.strata_ratios, check=_parse_ratios)
    cfg.sample_total = get("sample", "total", cfg.sample_total, "int")
    cfg.seed = get("run", "seed", cfg.seed, "int")
    cfg.strict = get("run", "strict", cfg.strict, "boolean")
    cfg.translate_system_messages = get(
        "run", "translate_system_messages", cfg.translate_system_messages, "boolean")
    cfg.prompt_template = get("run", "prompt_template", cfg.prompt_template)
    cfg.target_language = get("run", "target_language", cfg.target_language)
    cfg.manifest_path = get("run", "manifest", cfg.manifest_path)

    for name in parser.sections():
        if name == "filter.overrides":  # its keys are split names
            continue
        if name not in {section for section, _ in known}:
            raise ConfigurationError(f"[{name}]: unknown section")
        for key in own_keys(name):
            if (name, key) not in known:
                raise ConfigurationError(f"[{name}] {key}: unknown key")
    if errors:
        raise errors[0]
    return cfg
