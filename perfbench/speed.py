"""Machine-speed calibration, so timings from a shared host can be compared.

On a small VM of a shared host the CPU's speed drifts: a fixed piece of
work can take anywhere from 0.65x to 1.35x its usual time, flipping within
tens of milliseconds and in phases of ten seconds to minutes, and CPU time
drifts with wall time, so neither longer runs nor medians over passes hold
a timing steady between runs. What does hold is the ratio of the program's
time to the time of a fixed reference workload measured at nearly the same
moments.

``Calibration.sample()`` times that reference workload once (about 12 ms on
a 2.1 GHz Xeon vCPU): regex tokenization, dict counting, a JSON round trip
and small numpy array operations, the same kinds of work the package does.
It uses only the standard library and numpy, never the package, so no
change to the package can move it. The garbage collector is off while it
runs, so the program's heap does not leak into it.

``speed()`` is ``REFERENCE_S`` over the median sample: below 1 when the
machine runs slower than the reference, above 1 when faster.
``at_reference`` scales a wall time by it, but only the share of that time
during which the process was busy on the CPU: waiting (on a slow backend,
say) does not stretch with the CPU's speed.

Starting an interpreter and importing modules drifts in steps of its own
that the in-process reference does not follow, so set-up time has its own
reference: ``import_speed()`` times ``import numpy`` in a fresh
interpreter, the package's largest dependency and none of its own code.
"""

from __future__ import annotations

import gc
import json
import re
import statistics
import subprocess
import sys
import time

import numpy as np

# Time of one sample at reference speed.
REFERENCE_S = 0.012
# Time of ``import numpy`` in a fresh interpreter at reference speed.
IMPORT_REFERENCE_S = 0.14
_IMPORT_CODE = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"

_TEXT = " ".join(f"w{i % 997}rd, “x{i % 31}” — {i * 7 % 13}." for i in range(1500))
_ARRAY = np.arange(3000) % 17
_TOKEN = re.compile(r"\w+|[^\w\s]")


def reference_work() -> int:
    total = 0
    for _ in range(2):
        counts: dict[str, int] = {}
        for token in _TOKEN.findall(_TEXT):
            counts[token] = counts.get(token, 0) + 1
        total += len(json.loads(json.dumps(counts)))
        for _ in range(20):
            total += int(np.cumsum(_ARRAY[::-1] == _ARRAY)[-1])
    return total


class Calibration:
    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def speed(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)


def at_reference(seconds: float, cpu_seconds: float, speed: float) -> float:
    """``seconds`` of wall time, of which the process spent ``cpu_seconds``
    on the CPU (summed over its threads), at reference speed."""
    busy = min(1.0, cpu_seconds / seconds)
    return seconds * (1.0 - busy + busy * speed)


def import_speed() -> float:
    """``IMPORT_REFERENCE_S`` over the time ``import numpy`` takes now."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_CODE], capture_output=True, text=True,
                          timeout=120, check=True)
    return IMPORT_REFERENCE_S / float(done.stdout)
