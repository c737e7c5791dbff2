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


def run_sharded(total: int, jobs: int, worker: Callable[[int, int], T]) -> list[T]:
    """Split range(total), total >= 1, into at most `jobs` contiguous
    half-open chunks and run worker(lo, hi) on each; results come back in
    shard order."""
    jobs = max(1, min(jobs, total))
    step = (total + jobs - 1) // jobs
    return [worker(lo, min(lo + step, total)) for lo in range(0, total, step)]
