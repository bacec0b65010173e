"""Run configuration: one JSON file driving every CLI subcommand."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields

from .backends import (
    CompletionBackend,
    CompletionParams,
    LiveBackend,
    MockBackend,
    QUERY_GEN_PARAMS,
    SUMMARIZATION_PARAMS,
)
from .corpus import MODES
from .prompts import PromptLabels, PromptSpec, default_spec, load_example
from .unify import QUERY_FORMATS


class ConfigError(ValueError):
    pass


@dataclass
class BackendConfig:
    kind: str = "mock"  # mock | live
    endpoint: str = ""
    script: str = ""  # path to a JSON list of canned completions
    seed: int = 0
    timeout: float = 60.0
    params: CompletionParams | None = None

    def validate(self) -> None:
        # LiveBackend checks its own endpoint, timeout and key
        if self.kind not in ("mock", "live"):
            raise ConfigError(f"backend.kind must be mock or live, got {self.kind!r}")

    def build(self) -> CompletionBackend:
        self.validate()
        if self.kind == "live":
            return LiveBackend(self.endpoint, timeout=self.timeout)
        script = None
        if self.script:
            try:
                with open(self.script, encoding="utf-8") as handle:
                    script = json.load(handle)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ConfigError(f"backend.script {self.script!r} is not valid JSON: {exc}") from exc
            if not isinstance(script, list) or not all(isinstance(s, str) for s in script):
                raise ConfigError(f"backend.script {self.script!r} must be a JSON list of strings")
        return MockBackend(script=script, seed=self.seed)


@dataclass
class RunConfig:
    backend: BackendConfig = field(default_factory=BackendConfig)
    mode: str = "wh"
    parallelism: int = 1
    retries: int = 2
    failure_ceiling: float = 0.0
    failure_action: str = "drop"  # or "repair"
    max_document_tokens: int = 3000
    query_format: str = "natural"
    ntp_numerator: str = "occurrences"
    recall_only: bool = False
    # prompt overrides
    instruction: str = ""
    example_path: str = ""
    labels: dict = field(default_factory=dict)
    # composition
    overlap_threshold: float = 50.0
    token_budget: int = 250
    on_overflow: str = "truncate"
    # optional path defaults, overridable on the command line
    paths: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if not 0 <= self.failure_ceiling <= 1:
            raise ConfigError("failure_ceiling must be a rate in [0, 1]")
        if self.failure_action not in ("drop", "repair"):
            raise ConfigError("failure_action must be 'drop' or 'repair'")
        if self.max_document_tokens < 1:
            raise ConfigError("max_document_tokens must be >= 1")
        if self.query_format not in QUERY_FORMATS:
            raise ConfigError(f"query_format must be one of {QUERY_FORMATS}")
        if self.ntp_numerator not in ("occurrences", "types"):
            raise ConfigError("ntp_numerator must be 'occurrences' or 'types'")

    def prompt_spec(self, domain: str) -> PromptSpec:
        labels = PromptLabels(**self.labels) if self.labels else None
        example = None
        if self.example_path:
            example = load_example(self.example_path, self.mode)
        return default_spec(
            domain,
            self.mode,
            instruction=self.instruction or None,
            labels=labels,
            example=example,
        )

    def completion_params(self) -> CompletionParams:
        return self.backend.params or QUERY_GEN_PARAMS

    def summarization_params(self) -> CompletionParams:
        return self.backend.params or SUMMARIZATION_PARAMS

    def path(self, key: str, override: str | None) -> str:
        value = override or self.paths.get(key, "")
        if not value:
            raise ConfigError(f"no {key!r} path given (flag or config paths.{key})")
        return value


_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _typed(raw: dict, key: str, default, where: str = ""):
    """``raw[key]``, which must have the JSON type of ``default``: a boolean,
    integer, string or finite number. A number key also takes a JSON integer;
    absent or ``null`` is ``default``."""
    value = raw.get(key)
    if value is None:
        return default
    kind = type(default)
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise ConfigError(f"{where}{key} must be {_KINDS[kind]}, got {value!r}")
    return value


def _object(raw: dict, key: str, where: str = "") -> dict:
    """``raw[key]`` as a dict; absent or ``null`` is empty."""
    value = raw.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where}{key} must be a JSON object, got {value!r}")
    return value


def _strings(raw: dict, key: str) -> dict:
    """``raw[key]`` as a JSON object of strings; a ``null`` value is absent."""
    value = _object(raw, key)
    return {name: _typed(value, name, "", f"{key}.") for name in value if value[name] is not None}


def _backend_from_dict(raw: dict) -> BackendConfig:
    params = None
    p = _object(raw, "params", "backend.")
    if p:
        stop = p.get("stop")
        if stop is None:
            stop = []
        if not (isinstance(stop, list) and all(isinstance(s, str) for s in stop)):
            raise ConfigError(f"backend.params.stop must be a list of strings, got {stop!r}")
        numbers = {
            key: _typed(p, key, default, "backend.params.")
            for key, default in (("max_tokens", 256), ("temperature", 0.0), ("top_p", 1.0))
        }
        try:
            params = CompletionParams(**numbers, stop_sequences=tuple(stop))
        except ValueError as exc:
            raise ConfigError(f"backend.params: {exc}") from exc
    return BackendConfig(
        kind=_typed(raw, "kind", "mock", "backend."),
        endpoint=_typed(raw, "endpoint", "", "backend."),
        script=_typed(raw, "script", "", "backend."),
        seed=_typed(raw, "seed", 0, "backend."),
        timeout=_typed(raw, "timeout", 60.0, "backend."),
        params=params,
    )


def load_config(path: str | None) -> RunConfig:
    """Read the JSON config file; a missing path yields the defaults."""
    if not path:
        config = RunConfig()
        config.validate()
        return config
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")

    known = {
        "backend", "mode", "parallelism", "retries", "failure_ceiling",
        "failure_action", "max_document_tokens", "query_format", "ntp_numerator",
        "recall_only", "instruction", "example_path", "labels",
        "overlap_threshold", "token_budget", "on_overflow", "paths",
    }
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    labels = _strings(raw, "labels")
    unknown = sorted(set(labels) - {label.name for label in fields(PromptLabels)})
    if unknown:
        raise ConfigError(f"unknown labels keys: {unknown}")

    config = RunConfig(
        backend=_backend_from_dict(_object(raw, "backend")),
        mode=_typed(raw, "mode", "wh"),
        parallelism=_typed(raw, "parallelism", 1),
        retries=_typed(raw, "retries", 2),
        failure_ceiling=_typed(raw, "failure_ceiling", 0.0),
        failure_action=_typed(raw, "failure_action", "drop"),
        max_document_tokens=_typed(raw, "max_document_tokens", 3000),
        query_format=_typed(raw, "query_format", "natural"),
        ntp_numerator=_typed(raw, "ntp_numerator", "occurrences"),
        recall_only=_typed(raw, "recall_only", False),
        instruction=_typed(raw, "instruction", ""),
        example_path=_typed(raw, "example_path", ""),
        labels=labels,
        overlap_threshold=_typed(raw, "overlap_threshold", 50.0),
        token_budget=_typed(raw, "token_budget", 250),
        on_overflow=_typed(raw, "on_overflow", "truncate"),
        paths=_strings(raw, "paths"),
    )
    config.validate()
    return config
