"""Run configuration: one JSON file driving every CLI subcommand."""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field, fields

from .backends import (
    CompletionBackend,
    CompletionParams,
    MockBackend,
    QUERY_GEN_PARAMS,
    SUMMARIZATION_PARAMS,
)
from .corpus import (
    FAILURE_ACTIONS,
    MODES,
    NTP_NUMERATORS,
    QUERY_FORMATS,
    QfsError,
    check_composition,
    check_text,
    is_string_list,
    read_json,
)
from .prompts import PromptLabels, PromptSpec, default_spec, load_example


class ConfigError(QfsError, ValueError):
    pass


# the keys of ``paths``, which the subcommands' file flags also set
_PATH_KEYS = ("input", "output", "audit", "predictions", "references")


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "mock"  # mock | live
    endpoint: str = ""
    script: str = ""  # path to a JSON list of canned completions
    seed: int = 0
    timeout: float = 60.0
    params: CompletionParams | None = None

    def __post_init__(self):
        # LiveBackend checks its own endpoint, timeout and key
        if self.kind not in ("mock", "live"):
            raise ConfigError(f"backend.kind must be mock or live, got {self.kind!r}")

    def build(self) -> CompletionBackend:
        if self.kind == "live":
            from .live import LiveBackend  # loads the HTTP and TLS modules only for a live run

            return LiveBackend(self.endpoint, timeout=self.timeout)
        script = None
        if self.script:
            script = read_json(self.script, f"backend.script {self.script!r}", ConfigError)
            if not is_string_list(script):
                raise ConfigError(f"backend.script {self.script!r} must be a JSON list of strings")
            for text in script:
                check_text(text, f"backend.script {self.script!r}", ConfigError)
        return MockBackend(script=script, seed=self.seed)


@dataclass(frozen=True)
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
    # the files the subcommands read and write, by key
    paths: dict = field(default_factory=dict)

    def __post_init__(self):
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
        if self.ntp_numerator not in NTP_NUMERATORS:
            raise ConfigError("ntp_numerator must be 'occurrences' or 'types'")
        check_composition(self.overlap_threshold, self.token_budget, self.on_overflow, ConfigError)

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

    def path(self, key: str) -> str:
        if not self.paths.get(key):
            raise ConfigError(f"no {key!r} path given (flag or config paths.{key})")
        return self.paths[key]


_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _typed(raw: dict, key: str, default, where: str = "", encode=str.encode):
    """``raw[key]``, which must have the JSON type of ``default``: a boolean,
    integer, string that ``encode`` takes or finite number. A number key
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
        check_text(value, f"{where}{key}", ConfigError, encode)
    return value


def _object(raw: dict, key: str, where: str = "") -> dict:
    """``raw[key]`` as a dict; absent or ``null`` is empty."""
    value = raw.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where}{key} must be a JSON object, got {value!r}")
    return value


def _strings(raw: dict, key: str, encode=str.encode) -> dict:
    """``raw[key]`` as a JSON object of strings that ``encode`` takes; ``null`` is absent."""
    value = _object(raw, key)
    return {k: _typed(value, k, "", f"{key}.", encode) for k in value if value[k] is not None}


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
    stop = [] if raw.get("stop") is None else raw["stop"]
    if not is_string_list(stop):
        raise ConfigError(f"backend.params.stop must be a list of strings, got {stop!r}")
    for text in stop:
        check_text(text, "backend.params.stop", ConfigError)
    try:
        return CompletionParams(**numbers, stop_sequences=tuple(stop))
    except ValueError as exc:
        raise ConfigError(f"backend.params: {exc}") from exc


def load_config(path: str | None, **flags) -> RunConfig:
    """Read the JSON config file; a missing path yields the defaults.

    Each keyword is the value of a command-line flag, named by the config key
    it sets: ``section.key`` is ``key`` of that section, any other name a
    top-level key. A value that is not None replaces the file's value before
    the config is read, so it is typed and checked as that value would be.

    Each boolean, integer, number or string field of ``RunConfig``,
    ``BackendConfig`` and ``CompletionParams`` is read with the JSON type of
    its default. An unknown key is an error at the top level and under
    ``backend``, ``backend.params``, ``labels`` and ``paths``. The rules on
    values live in the dataclasses, which check them as they are built."""
    raw = read_json(path, f"config {path}", ConfigError) if path else {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    for key, value in flags.items():
        section, _, name = key.rpartition(".")
        if value is not None and section:
            raw[section] = {**_object(raw, section), name: value}
        elif value is not None:
            raw[name] = value

    settings = _scalars(RunConfig, raw, nested=("backend", "labels", "paths"))
    labels = _strings(raw, "labels")
    _check_keys(labels, [label.name for label in fields(PromptLabels)], "labels.")
    # argv decodes a non-UTF-8 byte to a lone surrogate, which os.fsencode turns back
    paths = _strings(raw, "paths", os.fsencode)
    _check_keys(paths, _PATH_KEYS, "paths.")
    backend = _object(raw, "backend")
    backend_settings = _scalars(BackendConfig, backend, "backend.", ("params",))
    files = {"example_path": settings["example_path"], "backend.script": backend_settings["script"]}
    files.update((f"paths.{key}", value) for key, value in paths.items())
    for key, value in files.items():
        if "\0" in value:  # JSON allows it, and os.fsencode too, but no file name holds one
            raise ConfigError(f"{key}: a path cannot hold a NUL character")
    return RunConfig(
        **settings,
        backend=BackendConfig(
            **backend_settings,
            params=_params(_object(backend, "params", "backend.")),
        ),
        labels=labels,
        paths=paths,
    )
