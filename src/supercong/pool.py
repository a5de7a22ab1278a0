"""The process pool behind `verify --jobs N`: ordered, bounded, and shut
down without killing a worker that may be sending a result."""

from __future__ import annotations

import contextlib
import multiprocessing
from collections import deque
from itertools import islice


@contextlib.contextmanager
def ordered_map(fn, work, processes: int):
    """fn(item) for each item of work, computed on a pool of `processes`
    processes and handed back in the order of work.

    At most two items a process are in flight, so a sweep stopped early
    waits only for those.  On leaving the block the pool is closed and
    joined: its workers finish the items in flight and exit.  Only a
    KeyboardInterrupt terminates them, since Pool.terminate() can kill a
    worker while it holds the result queue's lock, and the pool's shutdown
    then waits forever.
    """
    pool = multiprocessing.Pool(processes=processes)
    stop = pool.close
    try:
        yield _in_order(pool, fn, iter(work), 2 * processes)
    except KeyboardInterrupt:
        stop = pool.terminate
        raise
    finally:
        stop()
        pool.join()


def _in_order(pool, fn, work, depth: int):
    pending = deque(pool.apply_async(fn, (item,)) for item in islice(work, depth))
    while pending:
        result = pending.popleft().get()
        pending.extend(pool.apply_async(fn, (item,)) for item in islice(work, 1))
        yield result
