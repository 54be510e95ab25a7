"""Latency summaries and host provenance."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
from typing import Dict, Sequence

#: Tail percentiles in preference order: the highest with at least
#: ``MIN_BEYOND`` samples above it is the workload's tail.
TAILS = (99, 95, 90)
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile_for(count: int) -> int:
    """The highest of :data:`TAILS` that leaves ``MIN_BEYOND`` samples above."""
    for pct in TAILS:
        if count * (100 - pct) / 100.0 >= MIN_BEYOND:
            return pct
    return TAILS[-1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def slice_rates(times: Sequence[float], start: float, end: float, width: float) -> list:
    """Event rates in consecutive ``width``-second slices of [start, end).

    A slice's rate is its events after the first divided by the time from
    its first event to its last, so it is not rounded to whole events per
    slice.  Slices with fewer than two events are left out.
    """
    slices = max(1, int((end - start) // width))
    members = [[] for _ in range(slices)]
    for moment in times:
        index = int((moment - start) // width)
        if 0 <= index < slices:
            members[index].append(moment)
    return [
        (len(group) - 1) / (max(group) - min(group))
        for group in members
        if len(group) >= 2 and max(group) > min(group)
    ]


def latency_summary(latencies_ms: Sequence[float], tail_pct: int) -> Dict[str, float]:
    tail = percentile(latencies_ms, tail_pct)
    return {
        "p50_ms": percentile(latencies_ms, 50),
        "tail_ms": tail,
        "samples_beyond_tail": sum(1 for v in latencies_ms if v > tail),
    }


def src_digest(root: str) -> str:
    """SHA-256 over every file under ``src/`` (the program being measured)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def host_facts(root: str) -> Dict[str, object]:
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": src_digest(root),
    }


def ratio(hits: float, lookups: float) -> float:
    """Hit ratio, or 0 when there were no lookups (reported as 0/0)."""
    return hits / lookups if lookups else 0.0
