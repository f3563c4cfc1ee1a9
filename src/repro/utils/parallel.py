"""Process-parallel map used by the experiment runner.

The per-matrix experiments are embarrassingly parallel (MuFoLAB runs them the
same way); a ``multiprocessing.Pool`` covers the use case without adding an
MPI dependency.  Worker functions must be picklable module-level callables.

Two properties matter for the resumable experiment store built on top:

* **work stealing** — tasks are distributed with ``imap_unordered``, so a
  slow shard never idles the other workers, and results stream back to the
  parent the moment they finish (the parent commits each one to the on-disk
  store before the next arrives);
* **per-task exception capture** — a crashing task is materialised as a
  :class:`TaskOutcome` carrying the formatted traceback instead of poisoning
  the whole pool.  Callers either receive the outcomes (``capture=True``) or
  get the legacy fail-fast behaviour (a :class:`ParallelTaskError` raised
  after the surviving results streamed out).

``KeyboardInterrupt`` is deliberately *not* captured: Ctrl-C still tears the
pool down, and whatever the parent committed before the interrupt is exactly
what a re-invocation can resume from.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing
import os
import threading
import time
import traceback
from typing import Any, Callable, Optional, Sequence

from ..telemetry import core as _telemetry
from ..telemetry.metrics import metrics as _metrics

__all__ = [
    "default_workers",
    "parallel_map",
    "TaskOutcome",
    "ParallelTaskError",
    "PoolSaturatedError",
    "BoundedPool",
]


def default_workers(fallback: int = 1) -> int:
    """Worker-count default from ``$REPRO_WORKERS``.

    Empty or non-numeric values fall back to ``fallback`` instead of
    raising, so a stray ``REPRO_WORKERS=`` in a CI environment cannot break
    every CLI invocation (including ``--help``).
    """
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    try:
        return int(raw) if raw else fallback
    except ValueError:
        return fallback


@dataclasses.dataclass
class TaskOutcome:
    """Result of one task: either a value or a formatted traceback.

    Attributes
    ----------
    index:
        Position of the task in the input sequence (``imap_unordered``
        returns outcomes in completion order; the index restores input
        order).
    value:
        The callable's return value (``None`` when the task raised).
    error:
        ``traceback.format_exc()`` of the exception that killed the task,
        or ``None`` on success.
    seconds:
        Wall time the task spent executing in its worker (success or not).
    queue_seconds:
        Wall time between submission by the parent and the worker picking
        the task up (scheduling latency; 0.0 in the serial path).  Measured
        across processes with ``time.time``, so it is approximate.
    """

    index: int
    value: Any = None
    error: Optional[str] = None
    seconds: float = 0.0
    queue_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the task returned normally."""
        return self.error is None


class ParallelTaskError(RuntimeError):
    """A task raised inside ``parallel_map`` (fail-fast mode).

    The worker's formatted traceback is embedded in the message — the
    original exception object may not survive pickling back from the worker
    process, but its traceback text always does.
    """

    def __init__(self, index: int, error: str):
        self.index = index
        self.error = error
        super().__init__(f"task {index} raised:\n{error}")


class _CaptureCall:
    """Picklable wrapper running one ``(index, item)`` task under capture.

    ``KeyboardInterrupt``/``SystemExit`` propagate (they must kill the
    pool); everything else becomes a failed :class:`TaskOutcome`.
    """

    def __init__(self, func: Callable):
        self.func = func

    def __call__(self, indexed_item) -> TaskOutcome:
        index, item, submitted = indexed_item
        started = time.time()
        t0 = time.perf_counter()
        try:
            outcome = TaskOutcome(index=index, value=self.func(item))
        except Exception:
            outcome = TaskOutcome(index=index, error=traceback.format_exc())
        outcome.seconds = time.perf_counter() - t0
        outcome.queue_seconds = max(0.0, started - submitted)
        return outcome


def parallel_map(
    func: Callable,
    items: Sequence,
    workers: int = 1,
    chunksize: int = 1,
    capture: bool = False,
    on_result: Optional[Callable[[TaskOutcome], None]] = None,
) -> list:
    """Apply ``func`` to every item, optionally across worker processes.

    Parameters
    ----------
    func:
        Module-level callable (must be picklable when ``workers > 1``).
    items:
        Sequence of arguments (one positional argument per call).
    workers:
        Number of worker processes; ``1`` (default) runs serially in-process,
        ``0`` or negative uses all available CPUs.
    chunksize:
        Work chunk size handed to each worker (``imap_unordered`` batches).
    capture:
        With ``capture=False`` (default, legacy behaviour) a raising task
        aborts the map with :class:`ParallelTaskError` — but only after all
        surviving outcomes were streamed to ``on_result``, so completed work
        is never silently discarded.  With ``capture=True`` the return value
        is a list of :class:`TaskOutcome` (input order) and no exception is
        raised for failing tasks.
    on_result:
        Parent-process callback invoked with each :class:`TaskOutcome` as it
        completes (completion order, not input order).  This is where the
        experiment store commits records: a later crash or Ctrl-C cannot
        take already-committed results with it.

    Returns
    -------
    list
        ``capture=False``: the results, in the order of ``items``.
        ``capture=True``: :class:`TaskOutcome` objects, in the order of
        ``items``.
    """
    items = list(items)
    call = _CaptureCall(func)
    outcomes: list[Optional[TaskOutcome]] = [None] * len(items)
    submitted = time.time()

    if workers == 1 or len(items) <= 1:
        for index, item in enumerate(items):
            outcome = call((index, item, time.time()))
            outcome.queue_seconds = 0.0  # serial: no scheduling latency
            if _telemetry.ENABLED:
                _record_outcome(outcome)
            if on_result is not None:
                on_result(outcome)
            outcomes[index] = outcome
            if not capture and not outcome.ok:
                # fail fast like the historical serial loop did — nothing
                # after the crash has started, so nothing is lost
                raise ParallelTaskError(index, outcome.error)
        return _finalise(outcomes, capture)

    if workers <= 0:
        workers = multiprocessing.cpu_count()
    workers = min(workers, len(items))
    if _telemetry.ENABLED:
        _metrics.gauge("parallel.workers").set(workers)
    with multiprocessing.Pool(processes=workers) as pool:
        for outcome in pool.imap_unordered(
            call,
            [(index, item, submitted) for index, item in enumerate(items)],
            chunksize=max(1, chunksize),
        ):
            if _telemetry.ENABLED:
                _record_outcome(outcome)
            if on_result is not None:
                on_result(outcome)
            outcomes[outcome.index] = outcome
    return _finalise(outcomes, capture)


def _record_outcome(outcome: TaskOutcome) -> None:
    """Parent-side telemetry for one completed task (caller checks ENABLED)."""
    _metrics.counter("parallel.tasks", status="ok" if outcome.ok else "failed").inc()
    _metrics.histogram("parallel.task_seconds").observe(outcome.seconds)
    _metrics.histogram("parallel.queue_seconds").observe(outcome.queue_seconds)


def _finalise(outcomes: list, capture: bool) -> list:
    """Order-restored results; raise the first failure in fail-fast mode."""
    if capture:
        return outcomes
    for outcome in outcomes:
        if outcome is not None and not outcome.ok:
            raise ParallelTaskError(outcome.index, outcome.error)
    return [outcome.value for outcome in outcomes]


# ---------------------------------------------------------------------------
# bounded-submission executor (the serve worker-pool plumbing)


class PoolSaturatedError(RuntimeError):
    """A :class:`BoundedPool` refused a submission: every slot is taken.

    Carries the observed ``depth`` and the pool ``capacity`` so the caller
    can degrade gracefully (the serve layer turns this into HTTP 503 with a
    ``Retry-After`` estimate) instead of queueing without bound.
    """

    def __init__(self, depth: int, capacity: int):
        self.depth = depth
        self.capacity = capacity
        super().__init__(f"pool saturated: {depth} tasks in flight (capacity {capacity})")


class BoundedPool:
    """Executor with a hard cap on in-flight work: run slots + a small queue.

    ``parallel_map`` suits batch runs that hand over a fixed task list; a
    long-running service needs the opposite shape — one task at a time,
    admission control first.  ``submit`` accepts at most
    ``workers + queue_limit`` unfinished tasks and raises
    :class:`PoolSaturatedError` beyond that, so a request burst degrades
    into fast rejections instead of an unbounded queue (and, with process
    workers, unbounded memory).

    ``kind`` selects the executor: ``"process"`` (default) isolates solver
    work in forked worker processes — create the pool *after* warming the
    rounding kernels so workers inherit them copy-on-write; ``"thread"``
    shares the calling process (used by the serve unit tests, where the
    store backend lives in memory).  Process workers are spawned lazily by
    ``concurrent.futures`` on first submission.
    """

    def __init__(self, workers: int = 1, queue_limit: int = 8, kind: str = "process"):
        if kind not in ("process", "thread"):
            raise ValueError(f"unknown pool kind {kind!r}; use 'process' or 'thread'")
        if workers <= 0:
            workers = multiprocessing.cpu_count()
        self.workers = workers
        self.queue_limit = max(0, queue_limit)
        self.kind = kind
        if kind == "process":
            self._executor = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        else:
            self._executor = concurrent.futures.ThreadPoolExecutor(max_workers=workers)
        self._lock = threading.Lock()
        self._inflight = 0

    @property
    def capacity(self) -> int:
        """Maximum number of unfinished tasks ``submit`` accepts."""
        return self.workers + self.queue_limit

    @property
    def depth(self) -> int:
        """Unfinished tasks currently admitted (running + queued)."""
        with self._lock:
            return self._inflight

    def submit(self, fn: Callable, *args) -> concurrent.futures.Future:
        """Submit ``fn(*args)``; raises :class:`PoolSaturatedError` when full."""
        with self._lock:
            if self._inflight >= self.capacity:
                raise PoolSaturatedError(self._inflight, self.capacity)
            self._inflight += 1
        try:
            future = self._executor.submit(fn, *args)
        except BaseException:
            with self._lock:
                self._inflight -= 1
            raise
        future.add_done_callback(self._release)
        return future

    def _release(self, _future: concurrent.futures.Future) -> None:
        with self._lock:
            self._inflight -= 1

    def shutdown(self, wait: bool = True) -> None:
        """Stop the executor; pending (queued, unstarted) tasks are cancelled."""
        self._executor.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self) -> "BoundedPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False
