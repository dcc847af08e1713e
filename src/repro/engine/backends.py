"""The built-in execution backends.

The four level-loop backends share one runner (:func:`_run_levels`)
over :func:`repro.engine.level_loop.run_level_loop`; each supplies only
its raw-word generation step and the compressed-domain model its WAH
step runs, and takes its default level store from
:attr:`~repro.engine.registry.BackendInfo.storage`.  ``"multiprocess"``
runs the partition-persistent worker pool of
:mod:`repro.parallel.mp_backend` instead:

* ``"incore"`` — the paper's contribution: candidates in RAM, tail-list
  pair generation (Figure 3);
* ``"bitscan"`` — same storage, the paper's *rejected* n-bit-scan
  generation, kept runnable for the ablation;
* ``"ooc"`` — the retired predecessor: candidates spill to disk per
  level, I/O counted;
* ``"threads"`` — the paper's actual parallelisation: shared-memory
  worker threads over the same adjacency bitmap, LPT-seeded per level
  with intra-level work stealing
  (:mod:`repro.parallel.thread_backend`);
* ``"multiprocess"`` — the process-based analogue: persistent worker
  partitions plus the centralised load-balancing scheduler.

All five return the same canonical
:class:`~repro.core.clique_enumerator.EnumerationResult` and emit
identical clique sets for identical bounds — the invariant
``tests/engine/test_equivalence.py`` and the randomized
``tests/engine/test_property_harness.py`` enforce across the whole
registry.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.errors import ParameterError
from repro.core.clique_enumerator import (
    EnumerationResult,
    generate_next_level,
    generate_next_level_bitscan,
)
from repro.core.compressed_domain import CompressedExpander
from repro.core.counters import IOStats
from repro.core.graph import Graph
from repro.core.out_of_core import DiskLevelStore
from repro.engine.config import (
    LEVEL_STORES,
    EnumerationConfig,
    resolve_compute_domain,
    resolve_for_backend,
    resolve_kernel,
)
from repro.engine.level_loop import (
    GenerationStep,
    make_emitter,
    run_level_loop,
)
from repro.engine.level_store import CompressedLevelStore, MemoryLevelStore
from repro.engine.registry import get_backend, register_backend

if TYPE_CHECKING:
    from repro.parallel.thread_backend import ThreadedExpander

__all__ = [
    "run_incore",
    "run_bitscan",
    "run_ooc",
    "run_threads",
    "run_multiprocess",
]

OnClique = Callable[[tuple[int, ...]], None] | None


def _reject_unknown_options(config: EnumerationConfig, known: set[str]):
    unknown = set(config.options) - known
    if unknown:
        raise ParameterError(
            f"backend {config.backend!r} does not understand option(s) "
            f"{', '.join(sorted(unknown))}; known: "
            f"{', '.join(sorted(known)) or '(none)'}"
        )


def _store_policy(config: EnumerationConfig, name: str, domain: str):
    """Resolve the effective level store ``name`` for the level loop.

    Returns ``(store_factory, io, store_options)`` — the factory for
    :func:`~repro.engine.level_loop.run_level_loop`, the shared
    :class:`IOStats` when the substrate touches disk (``None``
    otherwise), and the option keys the substrate understands (fed to
    :func:`_reject_unknown_options`, so e.g. a spill ``directory`` on
    the in-memory substrate still fails before work starts).
    ``domain`` is the run's resolved compute domain — the compressed
    store streams its level compressed for a ``"wah"`` step and decoded
    for a ``"bitset"`` one.
    """
    if name == "auto":
        raise ParameterError(
            "level_store='auto' must be resolved before a runner is "
            "called — dispatch through EnumerationEngine.run (or the "
            "job service), which picks the concrete substrate"
        )
    if name == "memory":
        return MemoryLevelStore, None, set()
    if name == "wah":
        chunk_size = config.option("chunk_size", 256)
        return (
            lambda: CompressedLevelStore(chunk_size, domain),
            None,
            {"chunk_size"},
        )
    if name == "disk":
        io = IOStats()
        directory = config.option("directory")
        chunk_size = config.option("chunk_size", 256)
        return (
            lambda: DiskLevelStore(directory, chunk_size, io),
            io,
            {"directory", "chunk_size"},
        )
    raise ParameterError(  # pragma: no cover - config validates first
        f"unknown level store {name!r}; expected one of "
        f"{', '.join(LEVEL_STORES)}"
    )


def _run_levels(
    g: Graph,
    config: EnumerationConfig,
    on_clique: OnClique,
    backend: str,
    bitset_step: GenerationStep,
    model: str,
    wrap: Callable[[GenerationStep], ThreadedExpander] | None = None,
    wrap_options: frozenset[str] = frozenset(),
) -> EnumerationResult:
    """The one runner every level-loop backend shares.

    A backend supplies its raw-word generation step (``bitset_step``)
    and the :class:`~repro.core.compressed_domain.CompressedExpander`
    model (``"pairs"`` or ``"bitscan"``) its WAH-domain step runs;
    everything else follows from ``config`` and the backend's
    :class:`~repro.engine.registry.BackendInfo`: the level store
    (``config.level_store``, else ``info.storage``), the compute
    domain, and the WAH step kernel.  Every step takes and returns
    level batches, so store and step combine freely.  ``wrap`` turns
    the step into a parallel one (a :class:`~repro.parallel.
    thread_backend.ThreadedExpander`, which annotates the result with
    its workers and steals) and ``wrap_options`` are the option keys it
    reads.
    """
    info = get_backend(backend)
    if config.jobs is not None and not info.parallel:
        raise ParameterError(
            f"backend {config.backend!r} is sequential; jobs is only "
            "valid for parallel backends (see `repro engines`)"
        )
    store_name = config.level_store or info.storage
    domain = resolve_compute_domain(config, store_name, info)
    kernel = resolve_kernel(config, info)
    store_factory, io, known = _store_policy(config, store_name, domain)
    _reject_unknown_options(config, known | wrap_options)
    step, expander = bitset_step, None
    if domain == "wah":
        expander = CompressedExpander(g, model=model, kernel=kernel)
        step = expander.step
    pool = None
    if wrap is not None:
        pool = wrap(step)
        step = pool.step
    with pool or nullcontext():
        result = run_level_loop(
            g,
            config,
            on_clique,
            step=step,
            store_factory=store_factory,
            backend=backend,
            io=io,
        )
    if pool is not None:
        pool.annotate(result)
    result.compute_domain = domain
    result.kernel = kernel
    if expander is not None:
        result.domain_stats.update(expander.stats())
    return result


@register_backend(
    "incore",
    description="in-memory candidates, tail-list generation (the paper)",
    storage="memory",
    level_stores=LEVEL_STORES,
    compute_domains=("bitset", "wah"),
    kernels=("python", "numpy"),
)
def run_incore(
    g: Graph, config: EnumerationConfig, on_clique: OnClique = None
) -> EnumerationResult:
    """The paper's in-core Clique Enumerator on the unified loop."""
    return _run_levels(
        g, config, on_clique, "incore", generate_next_level, "pairs"
    )


@register_backend(
    "bitscan",
    description="in-memory candidates, rejected n-bit-scan generation "
    "(ablation)",
    storage="memory",
    level_stores=LEVEL_STORES,
    compute_domains=("bitset", "wah"),
    kernels=("python", "numpy"),
)
def run_bitscan(
    g: Graph, config: EnumerationConfig, on_clique: OnClique = None
) -> EnumerationResult:
    """The Section 2.3 bit-scan generation variant on the unified loop."""
    return _run_levels(
        g, config, on_clique, "bitscan", generate_next_level_bitscan,
        "bitscan",
    )


@register_backend(
    "ooc",
    description="disk-spilled candidates per level, I/O counted "
    "(the retired out-of-core mode)",
    storage="disk",
    level_stores=LEVEL_STORES,
    kernels=("python", "numpy"),
)
def run_ooc(
    g: Graph, config: EnumerationConfig, on_clique: OnClique = None
) -> EnumerationResult:
    """The out-of-core substrate: every level spilled and re-read once.

    ``config.level_store`` can override the substrate (e.g. ``"wah"``
    holds the levels compressed in RAM instead); the result's ``io``
    field is populated only when the effective substrate touches disk.
    """
    return _run_levels(
        g, config, on_clique, "ooc", generate_next_level, "pairs"
    )


@register_backend(
    "threads",
    description="shared-memory worker threads with intra-level work "
    "stealing (the paper's Altix mode)",
    storage="memory",
    parallel=True,
    level_stores=LEVEL_STORES,
    compute_domains=("bitset", "wah"),
    kernels=("python", "numpy"),
)
def run_threads(
    g: Graph, config: EnumerationConfig, on_clique: OnClique = None
) -> EnumerationResult:
    """The ``incore`` loop with each level fanned across worker threads.

    The step — raw-word or WAH-domain — runs inside a
    :class:`~repro.parallel.thread_backend.ThreadedExpander` of
    ``config.jobs`` threads that steal ``steal_granularity``-sized
    slices, so output, statistics and operation counters are
    byte-identical to ``incore`` on every level store.  Cliques stream
    through ``on_clique`` at each level barrier.
    """
    from repro.parallel.thread_backend import (
        DEFAULT_STEAL_GRANULARITY,
        ThreadedExpander,
        resolve_worker_count,
    )

    def threaded(step: GenerationStep) -> ThreadedExpander:
        return ThreadedExpander(
            resolve_worker_count(config.jobs),
            config.option("steal_granularity", DEFAULT_STEAL_GRANULARITY),
            step=step,
        )

    return _run_levels(
        g, config, on_clique, "threads", generate_next_level, "pairs",
        wrap=threaded, wrap_options=frozenset({"steal_granularity"}),
    )


@register_backend(
    "multiprocess",
    description="partition-persistent worker processes with centralised "
    "load balancing",
    storage="memory",
    parallel=True,
    level_stores=("memory",),
)
def run_multiprocess(
    g: Graph, config: EnumerationConfig, on_clique: OnClique = None
) -> EnumerationResult:
    """The process-pool substrate, adapted to the canonical result type.

    Workers own persistent sub-list partitions (the paper's thread-local
    memory); the parent relays sub-lists between them when the estimated
    load gap crosses ``rel_tolerance``.  Cliques are canonically sorted
    within each level, so output order matches the sequential backends.
    Isolated vertices (``k_min == 1``) are emitted in the parent — they
    carry no parallel work — before the pool starts at level 2.

    The ``max_cliques`` budget is enforced while replaying the pool's
    output through the shared emitter, i.e. *after* the distributed
    enumeration has finished — unlike the sequential substrates it
    bounds the returned output, not the work in flight.
    """
    from repro.parallel.mp_backend import enumerate_maximal_cliques_mp

    _reject_unknown_options(config, {"rel_tolerance"})
    # workers keep their partitions in local memory; pretending to
    # honour a disk or compressed substrate would silently change what
    # candidate_bytes means.  The shared resolver raises the same
    # ConfigError the engine facade and the service submit path do, so
    # a direct runner call cannot drift from them.
    config = resolve_for_backend(config, get_backend("multiprocess"))
    if config.k_max is not None and config.k_max < 2:
        # no parallel work exists below level 2; the sequential loop is
        # the exact semantics (isolated vertices, completed flag) —
        # minus the multiprocess-only knobs it would not understand
        result = run_incore(
            g, replace(config, options={}, jobs=None), on_clique
        )
        result.backend = "multiprocess"
        return result
    result = EnumerationResult(
        k_min=config.k_min,
        k_max=config.k_max,
        backend="multiprocess",
    )
    level = [config.k_min]
    emit = make_emitter(result, config, on_clique, lambda: level[0])
    if config.k_min == 1:
        for v in range(g.n):
            if g.degree(v) == 0:
                result.counters.maximal_emitted += 1
                emit((v,))
    mp_res = enumerate_maximal_cliques_mp(
        g,
        k_min=max(2, config.k_min),
        k_max=config.k_max,
        n_workers=config.jobs,
        rel_tolerance=config.option("rel_tolerance", 0.20),
    )
    result.counters.merge(mp_res.counters)
    result.counters.levels = max(result.counters.levels, mp_res.levels)
    result.n_workers = mp_res.n_workers
    result.transfers = mp_res.transfers
    result.completed = mp_res.exhausted
    for clique in mp_res.cliques:
        level[0] = len(clique)
        emit(clique)
    return result
