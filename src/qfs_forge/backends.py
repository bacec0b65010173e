"""Completion backends: the one seam where text generation happens.

Everything else in the pipeline treats generation as an opaque
``complete(prompt, params) -> text`` capability, so a scripted mock, the
seeded prompt-echo mock, or a live HTTP endpoint are interchangeable.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

import requests

from .prompts import numbered_lines

API_KEY_ENV = "QFS_FORGE_API_KEY"

# Transport retry schedule for the live backend: fixed exponential backoff.
BACKOFF_BASE_SECONDS = 1.0
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_SLEEPS = 3


class BackendError(RuntimeError):
    """The backend could not produce a completion."""


@dataclass(frozen=True)
class CompletionParams:
    max_tokens: int = 256
    temperature: float = 0.0
    top_p: float = 1.0
    stop_sequences: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "stop_sequences", tuple(self.stop_sequences))
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


# Greedy decoding for query generation: parse reliability beats diversity.
QUERY_GEN_PARAMS = CompletionParams(
    max_tokens=256, temperature=0.0, top_p=1.0, stop_sequences=("\n\n",)
)
# Sampling preset used when the backend acts as the query-focused summarizer.
SUMMARIZATION_PARAMS = CompletionParams(max_tokens=512, temperature=1.0, top_p=0.9)


@runtime_checkable
class CompletionBackend(Protocol):
    name: str

    def complete(self, prompt: str, params: CompletionParams) -> str: ...


def map_ordered(fn: Callable, items: Sequence, parallelism: int) -> list:
    """``[fn(item) for item in items]``, with up to ``parallelism`` calls in flight."""
    if parallelism == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(fn, items))


def _stable_rng_choice(seed: int, prompt: str, options: int) -> int:
    digest = hashlib.sha256(f"{seed}:{prompt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % options


class MockBackend:
    """Deterministic stand-in for a completion endpoint.

    Two layers: an ordered script of canned completions consumed in call
    order, and, once the script is exhausted (or when none is given), a
    generated completion derived purely from ``(prompt, seed)``. The
    generated path reads the numbered summary block at the tail of the
    prompt and emits one matching numbered query per sentence, so parse
    success does not depend on call order -- which is what makes corpus
    runs reproducible at any parallelism.
    """

    def __init__(
        self,
        script: list[str] | None = None,
        seed: int = 0,
        summary_label: str = "Summary:",
        query_label: str = "Questions:",
    ):
        self.name = f"mock(seed={seed})"
        self.seed = seed
        self._script = list(script or [])
        self._summary_label = summary_label
        self._query_label = query_label
        self._calls = 0
        self._lock = threading.Lock()

    @property
    def calls(self) -> int:
        return self._calls

    def complete(self, prompt: str, params: CompletionParams) -> str:
        with self._lock:
            index = self._calls
            self._calls += 1
        if index < len(self._script):
            return self._script[index]
        if prompt.startswith("question:\n "):
            return self._generated_summary(prompt)
        return self._generated(prompt)

    def _target_summary_sentences(self, prompt: str) -> list[str]:
        start = prompt.rfind(self._summary_label)
        if start < 0:
            return []
        tail = prompt[start + len(self._summary_label):]
        end = tail.find(self._query_label)
        if end >= 0:
            tail = tail[:end]
        return [sentence for _, sentence in numbered_lines(tail)]

    def _generated_summary(self, prompt: str) -> str:
        # query-focused summarization input: answer with a leading snippet
        # of the document, length varied by (prompt, seed)
        document = prompt.split(" \n context:\n", 1)[-1]
        chunks = document.split()
        keep = 12 + _stable_rng_choice(self.seed, prompt, 9)
        return " ".join(chunks[:keep]) if chunks else "Nothing to summarize."

    def _generated(self, prompt: str) -> str:
        sentences = self._target_summary_sentences(prompt)
        if not sentences:
            return "1. What is this text about?"
        lines = []
        for i, sentence in enumerate(sentences, start=1):
            words = sentence.rstrip(".!?").split()
            topic = " ".join(words[:4]) if words else "this"
            variant = _stable_rng_choice(self.seed, f"{prompt}#{i}", 3)
            if variant == 0:
                lines.append(f"{i}. What does the text say about {topic}?")
            elif variant == 1:
                lines.append(f"{i}. What is reported about {topic}?")
            else:
                lines.append(f"{i}. What happened regarding {topic}?")
        return "\n".join(lines)


class LiveBackend:
    """HTTP completion endpoint speaking a single wire shape.

    Request: POST {prompt, max_tokens, temperature, top_p, stop};
    response: {"text": ...}. The auth token comes from the environment and
    is never logged. Transport failures and 5xx/429 responses are retried
    with fixed exponential backoff (1s, 2s, 4s), then raised.
    """

    def __init__(self, endpoint: str, timeout: float = 60.0, api_key: str | None = None):
        if not endpoint:
            raise BackendError("live backend requires an endpoint URL")
        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        if not key:
            raise BackendError(
                f"live backend requires the {API_KEY_ENV} environment variable"
            )
        self.name = f"live({endpoint})"
        self._endpoint = endpoint
        self._timeout = timeout
        self._key = key
        self._local = threading.local()

    def _session(self) -> requests.Session:
        session = getattr(self._local, "session", None)
        if session is None:
            session = requests.Session()
            self._local.session = session
        return session

    def complete(self, prompt: str, params: CompletionParams) -> str:
        payload = {
            "prompt": prompt,
            "max_tokens": params.max_tokens,
            "temperature": params.temperature,
            "top_p": params.top_p,
            "stop": list(params.stop_sequences),
        }
        headers = {"Authorization": f"Bearer {self._key}"}
        delay = BACKOFF_BASE_SECONDS
        last_error = "unknown error"
        for attempt in range(BACKOFF_MAX_SLEEPS + 1):
            try:
                response = self._session().post(
                    self._endpoint, json=payload, headers=headers, timeout=self._timeout
                )
            except requests.RequestException as exc:
                last_error = f"transport error: {exc}"
            else:
                if response.status_code // 100 == 2:
                    try:
                        text = response.json()["text"]
                    except (ValueError, KeyError) as exc:
                        raise BackendError(
                            f"malformed completion response: {exc}"
                        ) from exc
                    if not isinstance(text, str):
                        raise BackendError("completion response 'text' is not a string")
                    return text
                last_error = f"HTTP {response.status_code}: {response.text}"
                if response.status_code != 429 and response.status_code < 500:
                    break
            if attempt < BACKOFF_MAX_SLEEPS:
                time.sleep(delay)
                delay *= BACKOFF_FACTOR
        raise BackendError(last_error)
