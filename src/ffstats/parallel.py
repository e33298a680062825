"""Serial in-order map/merge.  Nothing in the package calls it: every sweep
runs in the calling thread.  It stays importable only for the benchmark's
per-layer probe of ``map_merge``, and goes once that probe is dropped."""


def map_merge(items, worker, merge, empty, threads: int = 1):
    """merge(empty, worker(items)) in the calling thread, or empty when there
    are no items; threads is ignored."""
    return merge(empty, worker(items)) if items else empty
