"""Percentiles under the ten-beyond rule, and failure accounting.

A percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it; with fewer, the tail is too thin to compare across runs.
An op that failed counts as missing every latency limit: it enters the
percentiles as an infinite latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

MIN_BEYOND = 10

#: how many failure reasons a run keeps for its report
_KEEP_REASONS = 5


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``n``."""
    return max(1, math.ceil(n * q / 100.0))


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return n - rank(n, q) if n else 0


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by nearest rank (0.0 for no samples)."""
    if not samples:
        return 0.0
    return sorted(samples)[rank(len(samples), q) - 1]


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """:func:`nearest_rank`, or None when fewer than :data:`MIN_BEYOND`
    samples lie beyond it."""
    if beyond(len(samples), q) < MIN_BEYOND:
        return None
    return nearest_rank(samples, q)


@dataclass
class Tally:
    """Ops attempted and failed.

    An op fails when it raised, gave an answer its oracle rejects (both
    also count as *wrong*), or was refused by admission control.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: List[str] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)

    def record(self, latency_s: float, problem: str = "",
               refused: bool = False) -> None:
        """One op: its latency, and why it failed ('' when it did not)."""
        self.attempted += 1
        if problem:
            self.failed += 1
            self.wrong += not refused
            latency_s = math.inf
            if len(self.reasons) < _KEEP_REASONS:
                self.reasons.append(problem)
        self.latencies_s.append(latency_s)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def latency_ms(self, q: float) -> Optional[float]:
        value = percentile(self.latencies_s, q)
        return None if value is None else value * 1e3
