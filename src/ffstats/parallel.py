"""Deterministic sharded map/merge.

Work is split into contiguous index runs, worker results are merged in shard
order, and every merge operation used in this package is associative, so the
final result is identical for any worker count.  The shard count follows
the requested thread count; the pool never holds more threads than the
machine has CPUs.
"""

import os
from concurrent.futures import ThreadPoolExecutor


def shard(items, nshards):
    """Split a list into at most nshards contiguous runs, preserving order."""
    n = len(items)
    if n == 0:
        return []
    nshards = max(1, min(nshards, n))
    size, extra = divmod(n, nshards)
    out = []
    start = 0
    for i in range(nshards):
        stop = start + size + (1 if i < extra else 0)
        out.append(items[start:stop])
        start = stop
    return out


def map_merge(items, worker, merge, empty, threads: int = 1):
    """Apply worker to each of ``threads`` shards of the list items and fold
    the partial results in order."""
    chunks = shard(items, threads)
    if not chunks:
        return empty
    if threads <= 1 or len(chunks) == 1:
        parts = [worker(c) for c in chunks]
    else:
        workers = min(len(chunks), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(worker, chunks))
    acc = empty
    for part in parts:
        acc = merge(acc, part)
    return acc
