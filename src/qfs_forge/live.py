"""The live HTTP completion backend, on the standard library's ``http.client``.

Kept apart from ``backends`` so that a run on the mock backend never loads
the HTTP, TLS and email modules; ``BackendConfig.build()`` and the package's
``LiveBackend`` name import it on first use.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import selectors
import ssl
import threading
import time
import urllib.parse
import urllib.request

from .backends import BackendError, CompletionParams
from .corpus import check_options, check_text

API_KEY_ENV = "QFS_FORGE_API_KEY"

# Transport retry schedule for the live backend: fixed exponential backoff.
BACKOFF_BASE_SECONDS = 1.0
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_SLEEPS = 3


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
        check_options(lambda text: BackendError(f"live backend {text}"), timeout=timeout)
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
    check_text(reply["text"], "completion response 'text'", BackendError)
    return reply["text"]
