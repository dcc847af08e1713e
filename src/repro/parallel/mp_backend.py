"""Per-level process fan-out of the shared level loop.

The paper's scheduler "divides all k-cliques evenly to multiple threads
and then signals them to start enumerating (k+1)-cliques"; when all
threads finish, it "collects the results ... and redistributes the
work".  :class:`ProcessExpander` is that scheduler on worker
*processes*, as the generation step of the ``"multiprocess"`` backend's
shared level loop:

* it starts ``n_workers`` processes on the first level with at least
  two sub-lists (a one-worker or narrow run stays inline);
* each level, it LPT-partitions the batch's rows by work estimate
  (:meth:`~repro.parallel.load_balancer.LoadBalancer.partition`) and
  ships worker ``w`` its rows as one structure-of-arrays batch,
  ``batch.take(rows)``;
* each worker expands its rows with the sequential step and sends back
  ``(counters, cliques, children, busy)``; the parent merges them at
  the barrier through :class:`~repro.parallel.thread_backend.
  LevelFanOut` — the same code the threaded backend uses.

Workers hold no state between levels, so seeding, every level store,
level statistics, both budgets and clique streaming are the shared
loop's, and output, counters and statistics are byte-identical to the
sequential ``incore`` backend.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections.abc import Callable

from repro.errors import ReproError
from repro.core.counters import OpCounters
from repro.core.graph import Graph
from repro.parallel.load_balancer import LoadBalancer
from repro.parallel.thread_backend import Batch, LevelFanOut

__all__ = ["ProcessExpander"]


def _worker(conn, g: Graph, step: Callable) -> None:
    """Worker body: expand every batch the parent sends until ``None``.

    A raising step sends its exception back instead of a result, so the
    parent re-raises it at the barrier.
    """
    try:
        while (batch := conn.recv()) is not None:
            counters, cliques = OpCounters(), []
            t0 = time.perf_counter()
            try:
                children = step(batch, g, counters, cliques.append)
            except Exception as exc:  # noqa: BLE001 — raised by the parent
                conn.send(exc)
                continue
            busy = time.perf_counter() - t0
            conn.send((counters, cliques, [children], busy))
    except (EOFError, OSError):  # the parent is gone; exit quietly
        pass


class ProcessExpander(LevelFanOut):
    """A worker-process pool expanding each level's rows in parallel.

    :meth:`step` matches the engine's
    :data:`~repro.engine.level_loop.GenerationStep` signature.  The
    pool starts lazily, lives for one run, and uses ``fork`` where the
    platform has it (the graph is inherited, not pickled), ``spawn``
    elsewhere.  Use as a context manager; :meth:`close` reaps the
    workers, also when the run raises.
    """

    def __init__(self, n_workers: int, step: Callable):
        super().__init__(n_workers, step)
        self._conns: list = []
        self._procs: list = []

    def _ensure_workers(self, g: Graph) -> list:
        if not self._procs:
            ctx = mp.get_context(
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
            for _ in range(self.n_workers):
                conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker,
                    args=(child_conn, g, self._step),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._conns.append(conn)
                self._procs.append(proc)
        return self._conns

    def close(self) -> None:
        """Stop and join every worker; idempotent."""
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join()
        self._conns, self._procs = [], []

    def step(
        self,
        batch: Batch,
        g: Graph,
        counters: OpCounters,
        emit: Callable[[tuple[int, ...]], None],
    ) -> Batch:
        """One level (or store chunk) of generation, fanned across the
        worker processes and merged at the barrier."""
        if self.n_workers == 1 or len(batch) < 2:
            return self._step(batch, g, counters, emit)
        parts = LoadBalancer(self.n_workers, g.n).partition(
            list(range(len(batch))), batch.work_estimates()
        )
        conns = self._ensure_workers(g)
        busy = [w for w, rows in enumerate(parts) if rows]
        for w in busy:
            conns[w].send(batch.take(parts[w]))
        # a worker without rows contributes nothing to the merge
        outcomes: list = [(OpCounters(), [], [], 0.0)] * self.n_workers
        for w in busy:
            try:
                outcomes[w] = conns[w].recv()
            except EOFError:
                outcomes[w] = ReproError(
                    f"worker process {w} exited during a level"
                )
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        return self._merge(batch, outcomes, counters, emit)
