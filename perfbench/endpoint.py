"""Stand-in backends for the benchmark's workloads.

:class:`Endpoint` plays a network model endpoint: it answers with the
simulated model, but every call first pays a fixed round trip that
releases the GIL (``time.sleep``), and a batch call pays one round trip
plus a small cost per prompt.  It speaks the batch protocol, so the
engine's batching layer sends whole batches through it.

:class:`Renamed` serves one model's answers under another model's name:
the second run of ``served_reads`` is "the same request against a new
endpoint build", which gives ``runs diff`` real answer flips.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence

#: Fixed network round trip of one call.
ROUND_TRIP_S = 0.002
#: Extra server time per prompt inside one batch call.
PER_PROMPT_S = 0.0001


class Endpoint:
    """A simulated model behind a fixed-latency network endpoint."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self._lock = threading.Lock()
        #: Calls that crossed the network, prompts they carried, and
        #: the seconds those prompts spent in flight (round trip x n).
        self.round_trips = 0
        self.prompts = 0
        self.in_flight_s = 0.0

    def _trip(self, n: int) -> None:
        started = time.perf_counter()
        time.sleep(ROUND_TRIP_S + PER_PROMPT_S * (n - 1))
        elapsed = time.perf_counter() - started
        with self._lock:
            self.round_trips += 1
            self.prompts += n
            self.in_flight_s += elapsed * n

    def generate(self, prompt: str) -> str:
        self._trip(1)
        return self.inner.generate(prompt)

    def generate_batch(self, prompts: Sequence[str]) -> list[str]:
        self._trip(len(prompts))
        return [self.inner.generate(prompt) for prompt in prompts]


class Renamed:
    """``inner``'s answers under the model name ``name``."""

    def __init__(self, inner, name: str):
        self.inner = inner
        self.name = name

    def generate(self, prompt: str) -> str:
        return self.inner.generate(prompt)
