"""The process-pool executor backend: true parallelism past the GIL.

The thread backend keeps the pipeline's determinism contract but not
its wall-clock promise — the scale plane's retrieve/screen/score phases
are pure-Python and CPU-bound, so threads serialize on the GIL.
:class:`ProcessExecutor` runs the same ``Executor`` contract over
spawned worker **processes**, each with its own interpreter and GIL;
EXP-SCALE measures its wall-clock speedup against a sequential plane.

Three problems make processes harder than threads, and this module
answers each:

**Pickling.**  Tasks cross an address-space boundary, so closures over
live worlds and indexes cannot travel.  The executor advertises
``requires_pickling = True``; callers route through spawn-safe task
descriptors instead (see :mod:`repro.scale.worker`).  Heavy state never
travels at all: an optional *bootstrap* object — anything picklable
with a ``hydrate()`` method — ships **once** per worker at pool start,
and the worker rebuilds its world/indexes locally from the seed it
carries.  Per-task payloads stay small.  When a caller does hand over
an unpicklable function or item, ``map`` falls back to an in-process
backend (counted in ``executor_fallback_total``) rather than blowing up
— process selection is an optimization, not a new failure mode.

**Telemetry.**  A child process's metric increments and spans land in
the child's registry, invisible to the parent.  Each worker installs a
fresh :class:`~repro.obs.runtime.Observability` at spawn, and every
result batch carries a drained delta (raw counters/gauges/histograms +
span records) home; the parent folds deltas into the ambient instance
at the ``map`` call site, so ``GET /api/v1/metrics``, the profiler and
the cost ledgers keep working with no silent loss.

**Recursion.**  A process pool spawned *inside* a worker would
fork-bomb: every worker of the outer pool spawning ``workers`` more
processes.  Workers set a process-local flag; ``create_executor`` (and
any direct construction) consults :func:`in_process_worker` and
downgrades nested ``"process"`` requests to thread/sequential.

Workers use the ``spawn`` start method on every platform: fork would
duplicate locks, pools and open telemetry mid-state, and the entire
point of the bootstrap protocol is that a fresh interpreter can rebuild
everything it needs from a seed.
"""

from __future__ import annotations

import pickle
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context

from repro.concurrency.executor import (
    Executor,
    SequentialExecutor,
    ThreadExecutor,
    _chunked,
    _run_chunk,
)
from repro.obs import Observability, get_obs, install

#: Process-local marker: true in a pool worker, false in the parent.
#: Module globals are per-interpreter, so a spawned worker setting this
#: cannot leak the flag back into the parent.
_IN_WORKER = False

#: The worker's hydrated bootstrap state (None until the initializer
#: ran, and forever in processes that are not pool workers).
_WORKER_STATE = None


def in_process_worker() -> bool:
    """True when the calling process is a pool worker (nested-fan-out guard)."""
    return _IN_WORKER


def worker_state():
    """The object the worker's bootstrap ``hydrate()`` returned, if any.

    Task functions call this to reach the heavy state (world, shard
    indexes) their process rebuilt at spawn, instead of carrying it in
    every task payload.
    """
    return _WORKER_STATE


def _initialize_worker(bootstrap) -> None:
    """Pool-worker initializer: telemetry first, then state hydration.

    Runs exactly once per worker process.  Installing a fresh
    process-wide :class:`Observability` *before* hydrating means even
    the bootstrap's own metric writes (index build counters, world
    block realizations) land in the drainable registry and reach the
    parent with the first result batch.
    """
    global _IN_WORKER, _WORKER_STATE
    _IN_WORKER = True
    install(Observability())
    if bootstrap is not None:
        _WORKER_STATE = bootstrap.hydrate()


class _UnpicklableResultError(RuntimeError):
    """Stand-in for a task exception that could not cross back to the parent."""


def _portable_error(exc: BaseException) -> BaseException:
    """Return ``exc`` if it pickles, else a ``RuntimeError`` describing it.

    Task exceptions travel inside the result tuple; an exception type
    with unpicklable state (say, one holding an open socket) would
    otherwise poison the whole batch.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return _UnpicklableResultError(f"{type(exc).__name__}: {exc}")


def _run_remote_chunk(
    fn: Callable, chunk: Sequence, start_index: int, submitted_at: float
) -> tuple[list, list[tuple[int, BaseException]], dict]:
    """Worker-side chunk runner: results + errors + telemetry delta.

    Reuses the shared in-process chunk runner (one span, per-task
    counters, queue/duration histograms — all recorded into the
    worker's local registry), then drains that registry so the delta
    rides home with the results.  ``submitted_at`` comes from the
    parent's clock; ``perf_counter`` timebases differ between
    processes, so the queue-seconds observation is clamped at zero
    rather than trusted as a precise cross-process latency.
    """
    outcomes, errors = _run_chunk(fn, chunk, start_index, "process", submitted_at)
    errors = [(index, _portable_error(exc)) for index, exc in errors]
    safe_outcomes = []
    for outcome in outcomes:
        try:
            pickle.dumps(outcome)
            safe_outcomes.append(outcome)
        except Exception as exc:  # noqa: BLE001 — reported per-index below
            safe_outcomes.append(None)
            errors.append(
                (
                    start_index + len(safe_outcomes) - 1,
                    _UnpicklableResultError(
                        f"task result is not picklable: {type(exc).__name__}: {exc}"
                    ),
                )
            )
    return safe_outcomes, errors, get_obs().drain_delta()


class ProcessExecutor(Executor):
    """Spawned process-pool backend behind the ``Executor`` contract.

    The pool is created lazily on first ``map`` and persists across
    calls — spawning interpreters and rehydrating bootstrap state is
    the expensive step this backend exists to amortize.  Results come
    back in input order; the lowest-index task exception propagates
    after every task ran; per-batch telemetry deltas from the workers
    are folded into the ambient observability at the call site.

    Example
    -------
    >>> from repro.concurrency.process import ProcessExecutor
    >>> with ProcessExecutor(2) as pool:            # doctest: +SKIP
    ...     pool.map(math.sqrt, [1.0, 4.0, 9.0])
    [1.0, 2.0, 3.0]
    """

    requires_pickling = True

    #: Default tasks-per-submission when the caller gives no
    #: ``chunk_size``.  The fan-outs this backend serves are coarse
    #: (one task per shard, dozens at most), so the default keeps every
    #: task individually schedulable; callers with thousands of tiny
    #: tasks pass a larger ``chunk_size`` to amortize IPC.
    DEFAULT_CHUNK_SIZE = 1

    def __init__(self, workers: int, bootstrap=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if bootstrap is not None:
            try:
                pickle.dumps(bootstrap)
            except Exception as exc:
                raise ValueError(
                    f"process-executor bootstrap must be picklable: {exc}"
                ) from exc
        self._workers = int(workers)
        self._bootstrap = bootstrap
        self._pool: ProcessPoolExecutor | None = None

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def bootstrap(self):
        """The bootstrap shipped to each worker at spawn (read-only)."""
        return self._bootstrap

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            obs = get_obs()
            start = time.perf_counter()
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=get_context("spawn"),
                initializer=_initialize_worker,
                initargs=(self._bootstrap,),
            )
            obs.observe(
                "executor_pool_spawn_seconds",
                time.perf_counter() - start,
                backend="process",
            )
        return self._pool

    def _fallback(self, reason: str) -> Executor:
        """An in-process stand-in for payloads that cannot travel."""
        get_obs().inc("executor_fallback_total", backend="process", reason=reason)
        if self._workers == 1:
            return SequentialExecutor()
        return ThreadExecutor(self._workers)

    @staticmethod
    def _picklable(*objects) -> bool:
        try:
            for obj in objects:
                pickle.dumps(obj)
            return True
        except Exception:
            return False

    def map(self, fn: Callable, items: Iterable, chunk_size: int | None = None) -> list:
        tasks: Sequence = list(items)
        if not tasks:
            return []
        if not self._picklable(fn, tasks):
            # Closure-shaped work (e.g. the in-process ScalePlane paths)
            # can't cross the boundary; degrade gracefully instead of
            # making backend="process" a correctness hazard.
            return self._fallback("unpicklable").map(fn, tasks, chunk_size=chunk_size)
        effective_chunk = self.DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size
        chunks = _chunked(tasks, effective_chunk)
        obs = get_obs()
        pool = self._ensure_pool()
        submitted_at = time.perf_counter()
        try:
            futures = [
                pool.submit(_run_remote_chunk, fn, chunk, start, submitted_at)
                for start, chunk in chunks
            ]
            outcomes: list = []
            errors: list[tuple[int, BaseException]] = []
            for future in futures:
                chunk_outcomes, chunk_errors, delta = future.result()
                obs.absorb_delta(delta)
                outcomes.extend(chunk_outcomes)
                errors.extend(chunk_errors)
        except BrokenProcessPool:
            # A worker died hard (OOM, signal).  Drop the pool so the
            # next map respawns, and re-run this batch in-process: the
            # contract promises results, not a particular pool.
            self.close()
            return self._fallback("broken-pool").map(
                fn, tasks, chunk_size=chunk_size
            )
        if errors:
            raise min(errors, key=lambda pair: pair[0])[1]
        return outcomes

    def close(self) -> None:
        """Shut the pool down (the next ``map`` respawns it)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
