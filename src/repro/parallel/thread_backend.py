"""Shared-memory threaded level expansion with intra-level work stealing.

The closest analogue in this repo to the paper's 256-processor SGI Altix
run: worker *threads* expand disjoint slices of one candidate level
against the **shared** adjacency bitmap and sub-list arrays — no
pickling, no per-level scatter/gather of candidate data, unlike the
process-based :mod:`repro.parallel.mp_backend` which must ship each
worker's rows through a pipe every level.  The numpy kernels inside
:func:`~repro.core.clique_enumerator.generate_next_level` release the
GIL, so on multi-core hosts the pair scans and bit-string ANDs of
different slices genuinely overlap.

Scheduling is two-phase, mirroring the paper's Section 2.3 scheduler:

* **seed**: each level's sub-lists are LPT-partitioned across workers
  by :meth:`~repro.parallel.load_balancer.LoadBalancer.partition`
  ("divides all k-cliques evenly" — by estimated work, not by count);
* **steal**: within the level, a worker that drains its own partition
  pulls ``steal_granularity``-sized slices from the tail of the
  heaviest remaining partition
  (:class:`~repro.parallel.load_balancer.StealingWorkQueue`), so the
  estimate errors that static sharding cannot absorb are fixed while
  the level runs instead of one level later.

Determinism: every sub-list is expanded exactly once with its own
accounting, per-worker :class:`~repro.core.counters.OpCounters` merge
through the existing :meth:`~repro.core.counters.OpCounters.merge`, and
both the emitted cliques and the child sub-lists are restored to
canonical order at the level barrier (:class:`LevelFanOut`, shared
with the process fan-out) — so output, per-level statistics, *and
operation counters* are byte-identical to the sequential ``incore``
backend no matter how the steals interleave.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.errors import ParameterError
from repro.core.clique_enumerator import (
    EnumerationResult,
    generate_next_level,
)
from repro.core.counters import OpCounters
from repro.core.graph import Graph
from repro.core.sublist import CliqueLevelBatch, CompressedLevelBatch
from repro.obs.runtime import get_observability
from repro.parallel.load_balancer import StealingWorkQueue
from repro.parallel.metrics import worker_load_balance

__all__ = [
    "DEFAULT_STEAL_GRANULARITY",
    "EMIT_BATCH",
    "resolve_worker_count",
    "LevelFanOut",
    "ThreadedExpander",
]

#: sub-lists per chunk a worker takes (and a thief steals) at once.
#: Small enough that a mis-estimated heavy tail can still migrate,
#: large enough that the queue lock is touched once per chunk, not once
#: per sub-list.
DEFAULT_STEAL_GRANULARITY = 4

#: a level batch in either compute domain
Batch = CliqueLevelBatch | CompressedLevelBatch

#: cliques per ``emit.batch`` call when draining a merged level through
#: the sink: one budget check and one lock round-trip per EMIT_BATCH
#: cliques instead of per clique, while keeping any single sink call —
#: and the partial delivery before a budget trip — bounded.
EMIT_BATCH = 1024


def resolve_worker_count(jobs: int | None) -> int:
    """Worker-thread count: explicit ``jobs`` or the host CPU count."""
    if jobs is not None:
        if jobs < 1:
            raise ParameterError(f"jobs must be >= 1, got {jobs}")
        return jobs
    return max(1, os.cpu_count() or 1)


class LevelFanOut:
    """The level barrier every parallel expander shares.

    A fan-out splits one level batch's rows across ``n_workers``
    workers (threads or processes).  Each worker expands its rows with
    the sequential ``step`` into *local* clique lists, child batches
    and :class:`~repro.core.counters.OpCounters`; :meth:`_merge` turns
    those locals back into the exact level the sequential step
    produces: counters merge (``OpCounters.merge``), cliques go through
    ``emit`` in canonical order, and the children are joined and put
    back in prefix order with one lexsort.  A subclass supplies
    :meth:`step` (how the rows reach the workers) and :meth:`close`.

    Use as a context manager; :meth:`close` releases the workers.
    """

    #: sub-lists moved between workers while a level ran (work
    #: stealing); a fan-out that never moves work keeps the zero
    stolen_sublists = 0

    def __init__(self, n_workers: int, step: Callable):
        if n_workers < 1:
            raise ParameterError(
                f"worker count must be >= 1, got {n_workers}"
            )
        self.n_workers = n_workers
        self._step = step
        # serialises sink delivery: sinks are not required to be
        # thread-safe, so every batch the expander pushes goes through
        # this one lock regardless of which thread drives step()
        self._emit_lock = threading.Lock()
        #: wall-clock seconds each worker spent expanding rows across
        #: the run's parallel steps — the measured Figure 8 signal
        #: (:func:`repro.parallel.metrics.worker_load_balance`)
        self.worker_busy = [0.0] * n_workers
        #: worst per-step ``(max - mean) / mean`` busy-time imbalance
        self.max_step_imbalance = 0.0

    def __enter__(self) -> "LevelFanOut":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def annotate(self, result: EnumerationResult) -> None:
        """Record the run's worker count, steals and balance on ``result``."""
        result.n_workers = self.n_workers
        result.transfers = self.stolen_sublists
        if any(self.worker_busy):
            # narrow runs (every level below the parallel threshold)
            # never reach a worker and carry no balance evidence
            result.load_balance = worker_load_balance(
                self.worker_busy,
                transfers=self.stolen_sublists,
                max_level_imbalance=self.max_step_imbalance,
            ).to_dict()

    def _merge(
        self,
        batch: Batch,
        outcomes: list[tuple[OpCounters, list, list, float]],
        counters: OpCounters,
        emit: Callable[[tuple[int, ...]], None],
    ) -> Batch:
        """Fold each worker's ``(counters, cliques, children, busy)``
        into ``counters`` and ``emit``; return the level's children.

        ``emit`` runs only on the calling thread, after every worker
        finished, so a raising sink (budget trip, cancellation, broken
        ``jsonl`` target) propagates without a worker deadlock.
        """
        cliques: list[tuple[int, ...]] = []
        children: list[Batch] = []
        step_busy = []
        for worker, (
            worker_counters, worker_cliques, worker_children, busy
        ) in enumerate(outcomes):
            counters.merge(worker_counters)
            cliques.extend(worker_cliques)
            children.extend(worker_children)
            self.worker_busy[worker] += busy
            step_busy.append(busy)
        mean_busy = sum(step_busy) / len(step_busy)
        if mean_busy > 0:
            self.max_step_imbalance = max(
                self.max_step_imbalance,
                (max(step_busy) - mean_busy) / mean_busy,
            )
        # restore the sequential emission/storage order: cliques ascend
        # canonically within the level, children ascend by (unique)
        # prefix — identical to the order one worker would have produced
        self._emit_cliques(sorted(cliques), emit)
        level = type(batch).concat(children)
        if len(level) < 2:
            return level
        prefixes = np.asarray(level.prefixes, dtype=np.int64)
        return level.take(np.lexsort(prefixes.T[::-1]))

    def _emit_cliques(
        self,
        cliques: list[tuple[int, ...]],
        emit: Callable[[tuple[int, ...]], None],
    ) -> None:
        """Drain the level's merged cliques through the sink, batched.

        Uses the emitter's ``batch`` method when it has one —
        ``EMIT_BATCH`` cliques per budget check — under the expander's
        own lock, so delivery stays serialised whatever thread runs the
        level loop.  A bare callable (a test harness, a custom driver)
        still gets per-clique calls.
        """
        emit_batch = getattr(emit, "batch", None)
        with self._emit_lock:
            if emit_batch is None:
                for clique in cliques:
                    emit(clique)
                return
            for start in range(0, len(cliques), EMIT_BATCH):
                emit_batch(cliques[start:start + EMIT_BATCH])


class ThreadedExpander(LevelFanOut):
    """A persistent worker-thread pool expanding levels with stealing.

    One expander serves one enumeration run: the pool is created lazily
    on the first level wide enough to parallelise and reused for every
    later level (the paper's threads likewise persist across levels).
    :meth:`step` matches the engine's
    :data:`~repro.engine.level_loop.GenerationStep` signature, so the
    ``"threads"`` backend is the unmodified shared level loop with this
    as its generation policy — seeding, budgets, level statistics, and
    every level store come along for free.

    Parameters
    ----------
    n_workers:
        Worker-thread count (see :func:`resolve_worker_count`).
    steal_granularity:
        Sub-lists per work chunk / steal slice.
    step:
        The sequential generation step each worker runs on its chunks
        (the paper's tail-list generation by default).

    Use as a context manager; :meth:`close` joins the pool.
    """

    def __init__(
        self,
        n_workers: int,
        steal_granularity: int = DEFAULT_STEAL_GRANULARITY,
        step: Callable = generate_next_level,
    ):
        super().__init__(n_workers, step)
        if steal_granularity < 1:
            raise ParameterError(
                f"steal_granularity must be >= 1, got {steal_granularity}"
            )
        self.steal_granularity = steal_granularity
        self._pool: ThreadPoolExecutor | None = None
        self.steals = 0
        self.stolen_sublists = 0
        # the ambient tracer is captured once per expander (== per run):
        # workers may emit from any thread, the tracer is thread-safe,
        # and the disabled plane costs one attribute check per level
        tracer = get_observability().tracer
        self._tracer = tracer if tracer.enabled else None

    # -- lifecycle -----------------------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_workers,
                thread_name_prefix="enum-thread",
            )
        return self._pool

    def close(self) -> None:
        """Join the worker pool; idempotent."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- the parallel generation step ---------------------------------------

    def step(
        self,
        batch: Batch,
        g: Graph,
        counters: OpCounters,
        emit: Callable[[tuple[int, ...]], None],
    ) -> Batch:
        """One level (or store chunk) of generation, fanned across the pool.

        The batch's rows are LPT-partitioned by their work estimates;
        workers expand stolen-or-local row chunks (``batch.take(rows)``)
        into local cliques, child batches and counters, which merge at
        the barrier (:meth:`LevelFanOut._merge`) into the exact level
        the sequential step produces.  Workers never block on anything
        but finished work, so a raising sink cannot deadlock them.
        """
        if self.n_workers == 1 or len(batch) < 2:
            return self._step(batch, g, counters, emit)
        queue = StealingWorkQueue.from_partition(
            list(range(len(batch))),
            batch.work_estimates(),
            self.n_workers,
            graph_size=g.n,
            steal_granularity=self.steal_granularity,
        )
        stop = threading.Event()
        pool = self._ensure_pool()
        futures = [
            pool.submit(self._drain, w, queue, batch, g, stop)
            for w in range(self.n_workers)
        ]
        outcomes = []
        error: BaseException | None = None
        for future in futures:
            try:
                outcomes.append(future.result())
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                # workers poll `stop` between chunks and never block, so
                # the remaining futures always finish; drain them before
                # re-raising or their threads would race the next level
                stop.set()
                if error is None:
                    error = exc
        if error is not None:
            raise error
        self.steals += queue.steals
        self.stolen_sublists += queue.stolen_items
        if self._tracer is not None and queue.steals:
            self._tracer.event(
                "steal",
                steals=queue.steals,
                stolen_sublists=queue.stolen_items,
                workers=self.n_workers,
            )
        return self._merge(batch, outcomes, counters, emit)

    def _drain(
        self,
        worker: int,
        queue: StealingWorkQueue,
        batch: Batch,
        g: Graph,
        stop: threading.Event,
    ) -> tuple[OpCounters, list, list, float]:
        """Worker body: pull row chunks (local, then stolen) until dry.

        Returns the worker's locals plus the wall-clock it spent inside
        the step — the per-worker busy time the load-balance stats and
        the paper's ±10% check are computed from.
        """
        counters = OpCounters()
        cliques: list[tuple[int, ...]] = []
        children: list[Batch] = []
        busy = 0.0
        while not stop.is_set():
            rows = queue.take(worker)
            if rows is None:
                break
            t0 = time.perf_counter()
            children.append(
                self._step(batch.take(rows), g, counters, cliques.append)
            )
            busy += time.perf_counter() - t0
        return counters, cliques, children, busy
