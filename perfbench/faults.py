"""Backend wrapper at the ``complete`` seam: fault schedule, latency, counters.

The wrapper sits in front of ``MockBackend``. For an annotation prompt it
reads the numbered target summary at the prompt's tail (the same block the
mock answers from) and looks up that summary's fault class:

- ``transient``: the first attempt gets an off-format completion, retries
  get the mock's answer, so the pair ends ``ok`` after two attempts;
- ``permanent``: every attempt is off-format, so the pair ends
  ``parse_mismatch`` after ``retries + 1`` attempts;
- anything else (clean pairs, unify and summarization prompts) goes straight
  to the mock.

The class is a function of the seed-drawn schedule and the prompt; the
attempt number is counted here per prompt. On ``slow-backend`` each call
also sleeps a latency drawn from (seed, prompt, attempt).
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import Counter

SUMMARY_LABEL = "Summary:"
QUERY_LABEL = "Questions:"
OFF_FORMAT = (
    "Sure! Here are the questions you asked for:\n"
    "- What happened in the article?\n"
    "- Why does it matter?"
)


def _unit(seed: int, prompt: str, attempt: int) -> float:
    digest = hashlib.sha256(f"{seed}:{attempt}:{prompt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


class FaultyBackend:
    """``CompletionBackend`` that injects a fault schedule in front of ``inner``."""

    def __init__(self, inner, seed: int, classes_by_block: dict, latency_ms=None):
        self.name = f"faulty({inner.name})"
        self._inner = inner
        self._seed = seed
        self._classes = classes_by_block
        self._latency_ms = latency_ms
        self._lock = threading.Lock()
        self.stage = ""
        self.reset()

    def reset(self) -> None:
        """Forget attempts and counters; call before each pass over the inputs."""
        with self._lock:
            self._attempts = Counter()
            self.calls_by_stage = Counter()
            self.durations = []

    def _target_block(self, prompt: str) -> str:
        start = prompt.rfind(SUMMARY_LABEL)
        if start < 0:
            return ""
        tail = prompt[start + len(SUMMARY_LABEL):]
        end = tail.find(QUERY_LABEL)
        return (tail[:end] if end >= 0 else tail).strip()

    def complete(self, prompt, params):
        start = time.perf_counter()
        fault = self._classes.get(self._target_block(prompt))
        with self._lock:
            attempt = self._attempts[prompt]
            self._attempts[prompt] += 1
            self.calls_by_stage[self.stage] += 1
        off_format = fault == "permanent" or (fault == "transient" and attempt == 0)
        if self._latency_ms is not None:
            lo, hi = self._latency_ms
            time.sleep((lo + (hi - lo) * _unit(self._seed, prompt, attempt)) / 1000.0)
        text = OFF_FORMAT if off_format else self._inner.complete(prompt, params)
        elapsed = time.perf_counter() - start
        with self._lock:
            self.durations.append(elapsed)
        return text
