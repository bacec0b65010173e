"""Completion backends: the one seam where text generation happens.

Everything else in the pipeline treats generation as an opaque
``complete(prompt, params) -> text`` capability, so a scripted mock, the
seeded prompt-echo mock, or a live HTTP endpoint (``live.LiveBackend``)
are interchangeable.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from .corpus import QfsError, check_options
from .prompts import asks_yes_no, number_sentences, qfs_document, sentence_topic, target_sentences


class BackendError(QfsError, RuntimeError):
    """The backend could not produce a completion."""


@dataclass(frozen=True)
class CompletionParams:
    max_tokens: int = 256
    temperature: float = 0.0
    top_p: float = 1.0
    stop_sequences: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "stop_sequences", tuple(self.stop_sequences))
        check_options(
            ValueError, temperature=self.temperature, top_p=self.top_p, max_tokens=self.max_tokens
        )


# Greedy decoding for query generation: parse reliability beats diversity.
QUERY_GEN_PARAMS = CompletionParams(
    max_tokens=256, temperature=0.0, top_p=1.0, stop_sequences=("\n\n",)
)
# Sampling preset used when the backend acts as the query-focused summarizer.
SUMMARIZATION_PARAMS = CompletionParams(max_tokens=512, temperature=1.0, top_p=0.9)


class CompletionBackend(Protocol):
    name: str

    def complete(self, prompt: str, params: CompletionParams) -> str: ...


# Helper threads that finished their share of a map, each as its (wake lock,
# job slot) pair; the lock is held while the helper waits on it.
_idle: list = []
_idle_lock = threading.Lock()


def _forget_helpers() -> None:
    # a forked child runs only the forking thread, and a lock may have been held
    global _idle, _idle_lock
    _idle, _idle_lock = [], threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _serve(helper: tuple) -> None:
    wake, slot = helper
    while True:
        wake.acquire()
        job, done = slot.pop()
        try:
            job()  # never raises: the map keeps each failure for its caller
            with _idle_lock:
                _idle.append(helper)
        finally:
            done.release()
            job = done = None  # an idle helper holds nothing of a finished map


def _hand_out(job: Callable):
    """Run ``job`` on an idle helper, or on a new one when none is idle; a
    lock that is released once ``job`` has returned."""
    done = threading.Lock()
    done.acquire()
    with _idle_lock:
        helper = _idle.pop() if _idle else None
    if helper is None:
        helper = (threading.Lock(), [(job, done)])
        threading.Thread(target=_serve, args=(helper,), daemon=True).start()
    else:
        helper[1].append((job, done))
        helper[0].release()
    return done


def map_ordered(fn: Callable, items: Sequence, parallelism: int) -> list:
    """``[fn(item) for item in items]``, with up to ``parallelism`` calls in flight.

    The caller and ``parallelism - 1`` helper threads each take the next item
    in input order. Once a call raises, or the caller is interrupted, no new
    item starts; every started call returns, then the first failure in input
    order is raised. A helper outlives the map: it waits, idle, for a share of
    a later one, so a run starts a new daemon thread only when no helper is
    idle, as in a nested map.
    """
    check_options(ValueError, parallelism=parallelism)
    if parallelism == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results = [None] * len(items)
    failures = {}
    indices = iter(range(len(items)))
    lock = threading.Lock()
    stop = False

    def work() -> None:
        nonlocal stop
        while True:
            with lock:
                index = None if stop else next(indices, None)
            if index is None:
                return
            try:
                results[index] = fn(items[index])
            except BaseException as exc:
                with lock:
                    failures[index] = exc
                    stop = True
                return

    shares = []  # one lock per helper's share, released when the share is done
    try:
        for _ in range(min(parallelism, len(items)) - 1):
            shares.append(_hand_out(work))
        work()
    finally:
        stop = True  # set before the waits, so an interrupt there starts no new item either
        for done in shares:
            done.acquire()
    if failures:
        raise failures[min(failures)]
    return results


# the mock's generated questions, one picked per summary sentence by (prompt, seed)
_WH_QUESTIONS = (
    "What does the text say about {}?",
    "What is reported about {}?",
    "What happened regarding {}?",
)
_YESNO_QUESTIONS = ("Yes: Is the text about {}?", "No: Did the text leave out {}?")


def _sha256(data: bytes):
    # hashlib.sha256, bound on first use: hashlib loads OpenSSL, which set-up never needs
    global _sha256
    from hashlib import sha256 as _sha256

    return _sha256(data)


def _pick(state, options: int, suffix: str = "") -> int:
    """An index below ``options`` from the first 8 bytes of the sha256 ``state`` fed ``suffix``.

    ``state`` is left as it was, so one hash of ``f"{seed}:{prompt}"`` serves
    every pick of a completion: sha256 streams its input, so the digest is
    that of ``f"{seed}:{prompt}{suffix}"``.
    """
    state = state.copy()
    state.update(suffix.encode("utf-8"))
    return int.from_bytes(state.digest()[:8], "big") % options


class MockBackend:
    """Deterministic stand-in for a completion endpoint.

    Two layers: an ordered script of canned completions consumed in call
    order, and, once the script is exhausted (or when none is given), a
    generated completion derived purely from ``(prompt, seed)``. The
    generated path reads the prompt back with ``prompts``' readers and
    emits one numbered query per target summary sentence, whatever labels
    the prompt was built with, so parse success does not depend on call
    order, which is what makes corpus runs reproducible at any parallelism.
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
        document = qfs_document(prompt)
        if document is None:
            return self._generated(prompt)
        # a summarization input: answer with a leading snippet of the document, its length seeded
        keep = 12 + _pick(self._state(prompt), 9)
        chunks = document.split(None, keep)[:keep]
        return " ".join(chunks) if chunks else "Nothing to summarize."

    def _state(self, prompt: str):
        # the digest of f"{seed}:{prompt}", without building that copy of the prompt
        state = _sha256(f"{self.seed}:".encode("utf-8"))
        state.update(prompt.encode("utf-8"))
        return state

    def _generated(self, prompt: str) -> str:
        sentences = target_sentences(prompt)
        if not sentences:
            return "1. What is this text about?"
        questions = _YESNO_QUESTIONS if asks_yes_no(prompt) else _WH_QUESTIONS
        state = self._state(prompt)
        lines = []
        for i, sentence in enumerate(sentences, start=1):
            template = questions[_pick(state, len(questions), f"#{i}")]
            lines.append(template.format(sentence_topic(sentence)))
        return number_sentences(lines)
