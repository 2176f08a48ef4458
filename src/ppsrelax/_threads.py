"""The package's worker threads: the usable-CPU count and the two ways
work is spread over threads.

``_map_threads`` runs independent items on one thread per usable CPU, the
calling thread among them (the pipeline's fit batches). ``_ahead`` runs
one item at a time on one worker thread, at most two finished results
ahead of the caller, which takes them in order (the sweep's
eigendecompositions). Both run inline, starting no thread, when the
process may use one CPU or there is one item. Numpy releases the GIL in
the array work either helper hands to a thread, and none of it warns.
"""

from __future__ import annotations

import collections
import contextlib
import os
import threading
from typing import Iterator, Sequence

#: Finished results ``_ahead``'s worker may hold before the caller takes
#: them; it starts no item while that many wait.
AHEAD_RESULTS = 2


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_threads(task, items: Sequence) -> list:
    """``[task(item) for item in items]`` on one thread per usable CPU,
    the calling thread among them; each thread takes the next item not
    yet taken whenever it finishes one, so a slow item holds up only the
    thread running it. The calling thread takes items rather than wait:
    ``ThreadPoolExecutor.map``, under which it runs none, ran perfbench's
    pipeline-dense as fast on a 2-vCPU VM but raised its peak RSS from
    45.3 to 48.4 MB (6 of 6 pairs).

    Once a call raises, no thread starts another item, and the first
    exception raised (an interrupt of the calling thread before any) is
    re-raised here after every thread has stopped.
    """
    results = [None] * len(items)
    errors = []
    count = min(_usable_cpus(), len(items))
    indices = iter(range(len(items)))
    taking = threading.Lock()

    def work() -> None:
        try:
            while not errors:
                with taking:
                    index = next(indices, None)
                if index is None:
                    return
                results[index] = task(items[index])
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(1, count)]
    for thread in threads:
        thread.start()
    try:
        work()
    except BaseException as exc:  # an interrupt reaches the calling thread only
        errors.insert(0, exc)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


@contextlib.contextmanager
def _ahead(task, items: Sequence) -> Iterator[Iterator]:
    """An iterator of ``task(item)`` for each of ``items``, in order.

    With two or more usable CPUs and items, as ``_map_threads`` decides,
    the calls run on one worker thread that starts on entry, before the
    first result is asked for, and never holds more than AHEAD_RESULTS
    finished results the caller has not taken. Otherwise each call runs
    on the calling thread when its result is asked for. An exception a
    call raises (any BaseException) is raised to the caller in place of
    that item's result, and the worker starts no further item. On exit,
    normal or not (an interrupt of the calling thread included), the
    worker finishes the item it holds, if any, and is joined.
    """
    if min(_usable_cpus(), len(items)) < 2:
        yield map(task, items)
        return
    finished = collections.deque()  # (raised, result or exception), in item order
    changed = threading.Condition()
    closing = False

    def work() -> None:
        for item in items:
            with changed:
                while len(finished) >= AHEAD_RESULTS and not closing:
                    changed.wait()
                if closing:
                    return
            try:
                outcome = (False, task(item))
            except BaseException as exc:  # handed to the caller, which raises it
                outcome = (True, exc)
            with changed:
                finished.append(outcome)
                changed.notify()
            if outcome[0]:
                return

    def results() -> Iterator:
        for _ in items:
            with changed:
                while not finished:
                    changed.wait()
                raised, value = finished.popleft()
                changed.notify()
            if raised:
                raise value
            yield value

    worker = threading.Thread(target=work)
    try:  # an interrupt may arrive while the worker starts
        worker.start()
        yield results()
    finally:
        with changed:
            closing = True
            changed.notify()
        if worker.is_alive():
            worker.join()
