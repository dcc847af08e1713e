"""The built-in execution backends.

All five backends share one runner (:func:`_run_levels`) over
:func:`repro.engine.level_loop.run_level_loop`; each supplies only its
raw-word generation step, the compressed-domain model its WAH step
runs and, for the parallel two, the expander that fans a level across
workers, and takes its default level store from
:attr:`~repro.engine.registry.BackendInfo.storage`:

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
* ``"multiprocess"`` — the process-based analogue: each level's rows
  LPT-partitioned across worker processes
  (:mod:`repro.parallel.mp_backend`).

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
from repro.engine.level_loop import GenerationStep, run_level_loop
from repro.engine.level_store import CompressedLevelStore, MemoryLevelStore
from repro.engine.registry import get_backend, register_backend

if TYPE_CHECKING:
    from repro.parallel.thread_backend import LevelFanOut

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
    wrap: Callable[[GenerationStep], LevelFanOut] | None = None,
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
    thread_backend.LevelFanOut` over threads or processes, which
    annotates the result with its workers and balance) and
    ``wrap_options`` are the option keys it reads.  The config is
    checked against the registry entry first, so a direct runner call
    raises the same :class:`~repro.errors.ConfigError` as the engine
    facade and the service's submit path.
    """
    info = get_backend(backend)
    config = resolve_for_backend(config, info)
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
    description="per-level worker-process fan-out of the shared level "
    "loop",
    storage="memory",
    parallel=True,
    level_stores=LEVEL_STORES,
)
def run_multiprocess(
    g: Graph, config: EnumerationConfig, on_clique: OnClique = None
) -> EnumerationResult:
    """The ``incore`` loop with each level fanned across worker processes.

    The raw-word step runs inside a
    :class:`~repro.parallel.mp_backend.ProcessExpander` of
    ``config.jobs`` processes, each shipped its LPT share of the level's
    rows, so output, statistics and operation counters are
    byte-identical to ``incore`` on every level store, and both budgets
    bound the work in flight.  Cliques stream through ``on_clique`` at
    each level barrier.
    """
    from repro.parallel.mp_backend import ProcessExpander
    from repro.parallel.thread_backend import resolve_worker_count

    def processes(step: GenerationStep) -> ProcessExpander:
        return ProcessExpander(resolve_worker_count(config.jobs), step)

    return _run_levels(
        g, config, on_clique, "multiprocess", generate_next_level,
        "pairs", wrap=processes,
    )
