import operator

from ffstats import parallel
from ffstats.parallel import map_merge


class SerialPool:
    """Stands in for ThreadPoolExecutor: runs the work in the calling thread
    and records the pool size it was asked for."""

    sizes = []

    def __init__(self, max_workers):
        SerialPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def _serial_pool(monkeypatch, cpus):
    SerialPool.sizes = []
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)


def test_pool_is_capped_at_the_cpu_count(monkeypatch):
    _serial_pool(monkeypatch, 2)
    items = list(range(1000))
    shards = []

    def worker(chunk):
        shards.append(chunk)
        return sum(chunk)

    assert map_merge(items, worker, operator.add, 0, threads=64) == sum(items)
    assert SerialPool.sizes == [2]
    assert len(shards) == 64  # one shard per requested thread


def test_unknown_cpu_count_means_one_worker(monkeypatch):
    _serial_pool(monkeypatch, None)
    assert map_merge(list(range(100)), len, operator.add, 0, threads=8) == 100
    assert SerialPool.sizes == [1]

