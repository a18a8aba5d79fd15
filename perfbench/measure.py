"""Result record and the statistics every workload reports with."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program differs from its oracle."""


def check(ok: bool, message: str) -> None:
    """Raise :class:`CheckFailed` (kept under ``python -O``, unlike assert)."""
    if not ok:
        raise CheckFailed(message)


@dataclass
class Result:
    """One run's operation counts and named metrics (its checks passed)."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    info: dict = field(default_factory=dict)

    def put(self, name: str, value, unit: str) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.metrics[name] = (value, unit)


def pct(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return pct(values, 50)


def latency_stats(latencies_s) -> dict:
    """p50/p99 in ms plus the sample count and how many lie beyond p99."""
    lat = np.asarray(latencies_s, dtype=float) * 1e3
    return {
        "n": int(lat.size),
        "p50_ms": pct(lat, 50),
        "p99_ms": pct(lat, 99),
        "beyond_p99": int(lat.size - math.ceil(0.99 * lat.size)),
    }
