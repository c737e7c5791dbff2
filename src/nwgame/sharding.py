"""Deterministic sharded enumeration.

Index ranges are split into contiguous shards that run one after another
and merge in shard order, so the outcome is a pure function of the inputs
whatever the shard count.  The scans are CPU-bound Python, so threads
would only add switching cost under the interpreter lock; the point of
--jobs is that it must not change any answer.
"""

from __future__ import annotations

from typing import Callable, TypeVar

T = TypeVar("T")


def shard_bounds(total: int, jobs: int) -> list[tuple[int, int]]:
    """Split range(total) into at most `jobs` contiguous half-open chunks."""
    if total <= 0:
        return [(0, 0)]
    jobs = max(1, min(jobs, total))
    step = (total + jobs - 1) // jobs
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def run_sharded(total: int, jobs: int, worker: Callable[[int, int], T]) -> list[T]:
    """Run worker(lo, hi) over each shard; results come back in shard order."""
    return [worker(lo, hi) for lo, hi in shard_bounds(total, jobs)]
