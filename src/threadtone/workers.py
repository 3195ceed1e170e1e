"""An ordered ``map`` over independent items, in forked worker processes
when the affinity mask leaves CPUs to spare. ``synth.recovery_experiment``
runs its simulated corpora through it.

A worker emits no log record itself: it returns the records its call
logged with the call's result, each frozen to plain attributes (its message
formatted, its traceback as text), and the caller's process hands them to
its handlers, item by item in input order, just before it hands that item's
result on. The caller's handlers therefore see the same records, with
their own source line, function and time, in the same order however many
workers ran; only the process fields name the worker.
"""

from __future__ import annotations

import logging
import os
import threading
import traceback
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from functools import partial

_records: list[dict] = []  # a worker's records for its call


class _Hold(logging.Handler):
    def emit(self, record: logging.LogRecord) -> None:
        record.msg, record.args = record.getMessage(), None
        if record.exc_info:
            record.exc_text = (record.exc_text or logging.Formatter()
                               .formatException(record.exc_info))
            record.exc_info = None
        _records.append(record.__dict__)


def _hold_records() -> None:
    """Worker initializer: every record reaches one handler, which keeps it."""
    for logger in logging.Logger.manager.loggerDict.values():
        if isinstance(logger, logging.Logger):
            logger.handlers.clear()
            logger.propagate = True
    logging.root.handlers[:] = [_Hold()]


class _RemoteTraceback(Exception):
    """The worker's traceback, as the ``__cause__`` of its re-raised
    exception."""


def _held_call(fn: Callable, *args) -> tuple[list, str | None, object]:
    """``fn(*args)`` in a worker: the records it logged, the traceback of
    its exception or None if it returned, and its result or exception."""
    _records.clear()
    try:
        failure, value = None, fn(*args)
    except Exception as exc:
        failure, value = "".join(traceback.format_exception(exc)).rstrip(), exc
    return _records[:], failure, value


def _pooled_map(pool, fn: Callable, *iterables: Iterable) -> Iterator:
    for records, failure, value in pool.map(partial(_held_call, fn),
                                            *iterables):
        for attributes in records:
            logging.getLogger(attributes["name"]).handle(
                logging.makeLogRecord(attributes))
        if failure is not None:
            raise value from _RemoteTraceback(failure)
        yield value


@contextmanager
def run_map(n_items: int) -> Iterator[Callable]:
    """An ordered ``map`` for ``n_items`` items: a pool's, with one forked
    worker per CPU in the affinity mask up to ``n_items``, or the builtin.
    An error in a worker is re-raised with its type and message. The pool
    is shut down and its workers joined when the block exits."""
    workers = (min(len(os.sched_getaffinity(0)), n_items)
               if hasattr(os, "sched_getaffinity") else 1)
    # fork copies only the calling thread, not the locks other threads hold
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        yield map
        return
    # fork, not spawn: a spawned worker would import numpy and the package
    # again (~0.27 s), more than most callers save. Imported here: ~20 ms
    # that one-item calls never need
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_hold_records)
    try:
        yield partial(_pooled_map, pool)
    finally:
        pool.shutdown(cancel_futures=True)
