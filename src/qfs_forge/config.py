"""Run configuration: one JSON file driving every CLI subcommand."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields

from .backends import (
    CompletionBackend,
    CompletionParams,
    MockBackend,
    QUERY_GEN_PARAMS,
    SUMMARIZATION_PARAMS,
)
from .corpus import FAILURE_ACTIONS, MODES, QUERY_FORMATS, QfsError, check_text, is_string_list
from .prompts import PromptLabels, PromptSpec, default_spec, load_example


class ConfigError(QfsError, ValueError):
    pass


# the keys of ``paths``: defaults for the subcommands' file flags
_PATH_KEYS = ("input", "output", "audit", "predictions", "references")


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
            from .live import LiveBackend  # loads the HTTP and TLS modules only for a live run

            return LiveBackend(self.endpoint, timeout=self.timeout)
        script = None
        if self.script:
            try:
                with open(self.script, encoding="utf-8") as handle:
                    script = json.load(handle)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ConfigError(f"backend.script {self.script!r} is not valid JSON: {exc}") from exc
            if not is_string_list(script):
                raise ConfigError(f"backend.script {self.script!r} must be a JSON list of strings")
            for text in script:
                check_text(text, f"backend.script {self.script!r}", ConfigError)
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
        self.backend.validate()
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        if self.backend.kind == "mock" and self.backend.script and self.parallelism > 1:
            # concurrent calls would take each other's scripted completions
            raise ConfigError(
                f"backend.script needs parallelism 1, got {self.parallelism}: "
                "a scripted mock hands out its completions in call order"
            )
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if not 0 <= self.failure_ceiling <= 1:
            raise ConfigError("failure_ceiling must be a rate in [0, 1]")
        if self.failure_action not in FAILURE_ACTIONS:
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
    integer, string without lone surrogates or finite number. A number key
    also takes a JSON integer; absent or ``null`` is ``default``."""
    value = raw.get(key)
    if value is None:
        return default
    kind = type(default)
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise ConfigError(f"{where}{key} must be {_KINDS[kind]}, got {value!r}")
    if kind is str:
        check_text(value, f"{where}{key}", ConfigError)
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


def _check_keys(raw: dict, known, where: str) -> None:
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where.rstrip('.') or 'config'} keys: {unknown}")


def _scalars(cls, raw: dict, where: str = "", nested: tuple[str, ...] = ()) -> dict:
    """Each field of dataclass ``cls`` whose default is a boolean, integer,
    number or string, read from ``raw`` with the JSON type of that default. A
    key of ``raw`` that is neither such a field nor in ``nested`` is an error."""
    defaults = {f.name: f.default for f in fields(cls) if type(f.default) in _KINDS}
    _check_keys(raw, [*defaults, *nested], where)
    return {name: _typed(raw, name, default, where) for name, default in defaults.items()}


def _params(raw: dict) -> CompletionParams | None:
    """``backend.params``; absent or empty is no override."""
    if not raw:
        return None
    numbers = _scalars(CompletionParams, raw, "backend.params.", ("stop",))
    stop = raw.get("stop")
    if stop is None:
        stop = []
    if not is_string_list(stop):
        raise ConfigError(f"backend.params.stop must be a list of strings, got {stop!r}")
    for text in stop:
        check_text(text, "backend.params.stop", ConfigError)
    try:
        return CompletionParams(**numbers, stop_sequences=tuple(stop))
    except ValueError as exc:
        raise ConfigError(f"backend.params: {exc}") from exc


def load_config(path: str | None) -> RunConfig:
    """Read the JSON config file; a missing path yields the defaults.

    Each boolean, integer, number or string field of ``RunConfig``,
    ``BackendConfig`` and ``CompletionParams`` is read with the JSON type of
    its default. An unknown key is an error at the top level and under
    ``backend``, ``backend.params``, ``labels`` and ``paths``."""
    raw = {}
    if path:
        try:
            with open(path, encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {path} is not valid UTF-8: {exc.reason}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a JSON object")

    settings = _scalars(RunConfig, raw, nested=("backend", "labels", "paths"))
    labels = _strings(raw, "labels")
    _check_keys(labels, [label.name for label in fields(PromptLabels)], "labels.")
    paths = _strings(raw, "paths")
    _check_keys(paths, _PATH_KEYS, "paths.")
    backend = _object(raw, "backend")
    config = RunConfig(
        **settings,
        backend=BackendConfig(
            **_scalars(BackendConfig, backend, "backend.", ("params",)),
            params=_params(_object(backend, "params", "backend.")),
        ),
        labels=labels,
        paths=paths,
    )
    config.validate()
    return config
