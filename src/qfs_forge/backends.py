"""Completion backends: the one seam where text generation happens.

Everything else in the pipeline treats generation as an opaque
``complete(prompt, params) -> text`` capability, so a scripted mock, the
seeded prompt-echo mock, or a live HTTP endpoint are interchangeable.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import os
import selectors
import ssl
import threading
import time
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

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
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
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
    generated path reads the numbered summary block just before the
    prompt's closing label and emits one matching numbered query per
    sentence, whatever labels the prompt was built with, so parse success
    does not depend on call order -- which is what makes corpus runs
    reproducible at any parallelism.
    """

    def __init__(self, script: list[str] | None = None, seed: int = 0):
        self.name = f"mock(seed={seed})"
        self.seed = seed
        self._script = list(script or [])
        self._calls = 0
        self._lock = threading.Lock()

    @property
    def calls(self) -> int:
        return self._calls

    def close(self) -> None:
        """Nothing to release; here so callers can close any built backend."""

    def complete(self, prompt: str, params: CompletionParams) -> str:
        with self._lock:
            index = self._calls
            self._calls += 1
        if index < len(self._script):
            return self._script[index]
        if prompt.startswith("question:\n "):
            return self._generated_summary(prompt)
        return self._generated(prompt)

    @staticmethod
    def _target_summary_sentences(prompt: str) -> list[str]:
        # an annotation prompt ends "<summary label>\n1. ...\n\n<query label>\n";
        # split from the end only, as the document before it can be long
        blocks = prompt.rstrip().rsplit("\n\n", 2)
        if len(blocks) < 2:
            return []
        return [sentence for _, sentence in numbered_lines(blocks[-2])]

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
    with fixed exponential backoff (1s, 2s, 4s), then raised; a 3xx reply is
    not followed. Every precondition on the endpoint, timeout, key and proxy
    is checked here, at construction, so a bad value fails before the first
    call. Idle keep-alive connections wait on one shared stack: a call takes
    one or opens one, and puts it back after a successful exchange, so no
    more are open than calls were in flight at once. ``close()`` closes the
    idle ones; call it once every call has returned.
    """

    def __init__(self, endpoint: str, timeout: float = 60.0, api_key: str | None = None):
        if not endpoint:
            raise BackendError("live backend requires an endpoint URL")
        if not _is_http_url(endpoint):
            raise BackendError(
                "live backend endpoint must be an http or https URL with a host, in printable"
                f" ASCII without spaces or user info, got {endpoint!r}"
            )
        if not (isinstance(timeout, (int, float)) and 0 < timeout < float("inf")):
            raise BackendError(f"live backend timeout must be finite and > 0, got {timeout!r}")
        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        if not key:
            raise BackendError(
                f"live backend requires the {API_KEY_ENV} environment variable"
            )
        if not key.isascii() or not key.isprintable():
            raise BackendError(f"the {API_KEY_ENV} value must be printable ASCII")
        self.name = f"live({endpoint})"
        self._timeout = timeout
        self._headers = {"Content-Type": "application/json", "Authorization": f"Bearer {key}"}
        url = urllib.parse.urlsplit(endpoint)
        # one TLS context for every connection, so the CA store is loaded once
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        self._host = url.netloc
        self._target = url.path or "/"
        if url.query:
            self._target += "?" + url.query
        self._tunnel = None
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.netloc):
            self._host, proxy_headers = _proxy_route(proxy)
            if self._tls is not None:
                self._tunnel = (url.netloc, proxy_headers)  # CONNECT, then TLS to the endpoint
            else:
                self._target = endpoint  # the proxy forwards an absolute-URL request
                self._headers.update(proxy_headers)
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close every idle connection; a later call opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def complete(self, prompt: str, params: CompletionParams) -> str:
        payload = {
            "prompt": prompt,
            "max_tokens": params.max_tokens,
            "temperature": params.temperature,
            "top_p": params.top_p,
            "stop": list(params.stop_sequences),
        }
        body = json.dumps(payload).encode("utf-8")
        delay = BACKOFF_BASE_SECONDS
        last_error = "unknown error"
        for attempt in range(BACKOFF_MAX_SLEEPS + 1):
            # IncompleteRead and LineTooLong are HTTPExceptions, not OSErrors
            try:
                status, reply = self._post(body)
            except (OSError, http.client.HTTPException) as exc:
                last_error = f"transport error: {exc}"
            else:
                if status // 100 == 2:
                    return _completion_text(reply)
                last_error = f"HTTP {status}: {reply.decode('utf-8', 'replace')}"
                if status != 429 and status < 500:
                    break
            if attempt < BACKOFF_MAX_SLEEPS:
                time.sleep(delay)
                delay *= BACKOFF_FACTOR
        raise BackendError(last_error)

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """Status and body of one POST on an idle connection, or a new one;
        a failed exchange closes and drops it."""
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        if connection is None:
            connection = self._connect()
        elif connection.sock is not None and _readable(connection.sock):
            connection.close()  # an idle connection the server has closed
        try:
            connection.request("POST", self._target, body, self._headers)
            response = connection.getresponse()
            reply = response.status, response.read()
        except BaseException:
            connection.close()
            raise
        with self._lock:
            self._idle.append(connection)
        return reply

    def _connect(self) -> http.client.HTTPConnection:
        if self._tls is None:
            return http.client.HTTPConnection(self._host, timeout=self._timeout)
        connection = http.client.HTTPSConnection(
            self._host, timeout=self._timeout, context=self._tls
        )
        if self._tunnel:
            host, headers = self._tunnel
            connection.set_tunnel(host, headers=headers)
        return connection


def _readable(sock) -> bool:
    """Whether an idle keep-alive socket has input waiting: the server's close."""
    with selectors.DefaultSelector() as selector:
        selector.register(sock, selectors.EVENT_READ)
        return bool(selector.select(0))


def _proxy_route(proxy: str) -> tuple[str, dict]:
    """The ``host:port`` to connect to for a proxy URL from the environment,
    and the ``Proxy-Authorization`` header its user info asks for."""
    url = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    try:
        port = url.port or 80
    except ValueError:
        port = None
    if not url.hostname or port is None:
        raise BackendError(f"live backend proxy must be a URL with a host, got {proxy!r}")
    host = f"[{url.hostname}]" if ":" in url.hostname else url.hostname
    headers = {}
    if url.username is not None:
        credentials = urllib.parse.unquote(f"{url.username}:{url.password or ''}")
        headers["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials.encode()).decode()
    return f"{host}:{port}", headers


def _is_http_url(endpoint) -> bool:
    """An http(s) URL with a host and no user info, in printable ASCII without
    spaces: a URL that http.client sends as given."""
    if not isinstance(endpoint, str) or not all("!" <= char <= "~" for char in endpoint):
        return False
    try:
        url = urllib.parse.urlsplit(endpoint)
        url.port  # raises ValueError for a port that is not a number in range
    except ValueError:
        return False
    return url.scheme in ("http", "https") and bool(url.hostname) and "@" not in url.netloc


def _completion_text(body: bytes) -> str:
    try:
        reply = json.loads(body)
    except ValueError as exc:
        raise BackendError(f"malformed completion response: {exc}") from exc
    if not isinstance(reply, dict) or "text" not in reply:
        raise BackendError(
            f"malformed completion response: expected a JSON object with 'text', got {body[:200]!r}"
        )
    if not isinstance(reply["text"], str):
        raise BackendError("completion response 'text' is not a string")
    return reply["text"]
