"""Unified run configuration for every enumeration backend.

One :class:`EnumerationConfig` describes a run completely: the size
window (the paper's ``Init_K`` and the optional upper bound), the safety
budgets, the backend name resolved through
:mod:`repro.engine.registry`, and a free-form ``options`` mapping for
backend-specific knobs (spill directory and chunk size for ``"ooc"``,
scheduler tolerance for ``"multiprocess"``).  The config is frozen and
validated at construction, so a bad parameter fails before any work
starts — and before a worker pool or spill directory is created.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ConfigError, ParameterError

__all__ = [
    "EnumerationConfig",
    "LEVEL_STORES",
    "LEVEL_STORE_AUTO",
    "COMPUTE_DOMAINS",
    "KERNELS",
    "resolve_for_backend",
    "resolve_level_store",
    "resolve_compute_domain",
    "resolve_kernel",
]

#: the level-storage substrates a config may request: ``"memory"``
#: (:class:`~repro.engine.level_store.MemoryLevelStore`), ``"disk"``
#: (:class:`~repro.core.out_of_core.DiskLevelStore`), ``"wah"``
#: (:class:`~repro.engine.level_store.CompressedLevelStore`).
LEVEL_STORES = ("memory", "disk", "wah")

#: the additional ``level_store`` policy value: pick the cheapest
#: concrete substrate whose *predicted* peak (:func:`repro.core.
#: memory_model.predict_profile`) fits the memory budget, preferring
#: ``memory`` over ``wah`` over ``disk``.  Resolved per run against
#: the graph — by :func:`resolve_level_store` via the engine facade,
#: or by the job scheduler against its configured budget — so it is
#: deliberately *not* part of :data:`LEVEL_STORES`: backends advertise
#: and run only concrete substrates.
LEVEL_STORE_AUTO = "auto"

#: the word representations a generation step may run on:
#: ``"bitset"`` (raw ``uint64`` word arrays, the historical hot path),
#: ``"wah"`` (the compressed-domain kernels of
#: :mod:`repro.core.compressed_domain`), or ``"auto"`` — resolve to
#: ``"wah"`` when the effective level store is ``"wah"`` and the
#: backend supports it (keeping the level compressed end to end),
#: ``"bitset"`` otherwise.
COMPUTE_DOMAINS = ("auto", "bitset", "wah")

#: the kernel implementations a WAH compute-domain step may select:
#: ``"python"`` (the scalar per-pair kernels of
#: :mod:`repro.core.compressed`), ``"numpy"`` (the batched
#: structure-of-arrays kernels of :mod:`repro.core.wah_kernels`), or
#: ``"auto"`` — resolve to ``"numpy"`` when the backend advertises it,
#: ``"python"`` otherwise.  The two are byte-equivalent; the choice
#: affects only speed and telemetry.
KERNELS = ("auto", "python", "numpy")


def _stable_key(value: Any) -> tuple[str, object]:
    """An order-insensitive, hash/eq-consistent stand-in for ``value``.

    Containers whose equality crosses hashability lines are unified
    *before* the hashable fast path — ``frozenset({1}) == {1}`` and a
    hashable Mapping equal to a plain dict must produce the same key —
    and are canonically sorted, so two equal options dicts built in
    different insertion orders agree.  Everything else collapses to its
    hash (``1`` and ``1.0`` compare equal and hash equal, so they stay
    consistent; ``tuple`` never equals ``list``, so their different
    tags are safe).  The leading tag keeps the sort inside
    mappings/sets well-defined for mixed types.
    """
    if isinstance(value, Mapping):
        return (
            "m",
            tuple(sorted(
                (_stable_key(k), _stable_key(v))
                for k, v in value.items()
            )),
        )
    if isinstance(value, (set, frozenset)):
        return ("s", tuple(sorted(_stable_key(v) for v in value)))
    try:
        return ("h", hash(value))
    except TypeError:
        pass
    if isinstance(value, (list, tuple)):
        return ("l", tuple(_stable_key(v) for v in value))
    return ("r", repr(value))


@dataclass(frozen=True)
class EnumerationConfig:
    """Everything a backend needs to know about one enumeration run.

    Attributes
    ----------
    backend:
        Registry name of the execution substrate (``"incore"``,
        ``"bitscan"``, ``"ooc"``, ``"threads"``, ``"multiprocess"``, or
        any backend registered via :func:`repro.engine.register_backend`).
    k_min:
        Lower clique-size bound (the paper's ``Init_K``).  All built-in
        backends support 1; for a backend registered with a higher
        ``min_k_min`` floor, the engine promotes the value before
        dispatch.
    k_max:
        Optional upper bound; enumeration stops after emitting maximal
        cliques of this size.
    max_cliques:
        Optional output budget; exceeding it raises
        :class:`~repro.errors.BudgetExceeded`.
    max_candidate_bytes:
        Optional per-level cap on measured candidate storage; exceeding
        it raises :class:`~repro.errors.BudgetExceeded`.  Ignored by
        backends that do not track level storage centrally.
    jobs:
        Worker count for parallel backends — processes for
        ``"multiprocess"``, shared-memory threads for ``"threads"``
        (``None`` lets the backend pick, e.g. the CPU count).
        Sequential backends reject a non-``None`` value rather than
        silently ignoring it.
    level_store:
        Storage substrate for candidate levels: one of
        :data:`LEVEL_STORES` (``"memory"``, ``"disk"``, ``"wah"``),
        :data:`LEVEL_STORE_AUTO` (``"auto"`` — the cheapest advertised
        substrate whose predicted peak fits the memory budget,
        resolved per run), or ``None`` for the backend's default
        (memory for ``incore``/``bitscan``, disk for ``ooc``).
        Backends that do
        not run the shared level loop reject substrates they cannot
        honour rather than silently ignoring the policy.  Part of the
        config's equality/hash, so the service result cache can never
        conflate runs on different substrates.
    compute_domain:
        Word representation of the generation step: one of
        :data:`COMPUTE_DOMAINS`.  ``"auto"`` (the default) follows the
        effective level store — a ``"wah"`` store runs the
        compressed-domain kernels on backends that support them, so the
        level never round-trips through raw bit strings; anything else
        runs the historical ``"bitset"`` word arrays.  An explicit
        domain a backend did not advertise (``BackendInfo.
        compute_domains``) is rejected by :func:`resolve_for_backend`.
        Part of the config's equality/hash, so the service result cache
        distinguishes the domains even though their outputs are
        byte-identical by construction.
    kernel:
        Kernel implementation of the WAH-domain generation step (and
        only of that step — the WAH level store always uses the batched
        codec, whose canonical words do not depend on a kernel): one of
        :data:`KERNELS`.  ``"auto"`` (the default) picks the batched
        numpy structure-of-arrays kernels when the backend advertises
        them (``BackendInfo.kernels``) and the scalar python kernels
        otherwise; the explicit values pin one implementation (e.g. for
        the equivalence harness or microbenchmarks).  An explicit
        kernel a backend did not advertise is rejected by
        :func:`resolve_for_backend`.  Ignored by ``"bitset"``-domain
        runs, but still part of the config's equality/hash so the
        service result cache keys stay conservative.
    options:
        Backend-specific knobs, e.g. ``{"directory": ..., "chunk_size":
        512}`` for ``"ooc"``, ``{"rel_tolerance": 0.1}`` for
        ``"multiprocess"``, or ``{"steal_granularity": 4}`` for
        ``"threads"`` (validated here because it is a concurrency knob
        whose misconfiguration must fail before a pool starts; like
        every option it is hashed into the config identity, so the
        service result cache never conflates runs with different
        stealing policies).  Unknown keys are rejected by the backend.
    """

    backend: str = "incore"
    k_min: int = 1
    k_max: int | None = None
    max_cliques: int | None = None
    max_candidate_bytes: int | None = None
    jobs: int | None = None
    level_store: str | None = None
    compute_domain: str = "auto"
    kernel: str = "auto"
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.backend or not isinstance(self.backend, str):
            raise ParameterError(
                f"backend must be a non-empty string, got {self.backend!r}"
            )
        if self.k_min < 1:
            raise ParameterError(f"k_min must be >= 1, got {self.k_min}")
        if self.k_max is not None and self.k_max < self.k_min:
            raise ParameterError(
                f"k_max ({self.k_max}) must be >= k_min ({self.k_min})"
            )
        if self.max_cliques is not None and self.max_cliques < 0:
            raise ParameterError(
                f"max_cliques must be >= 0, got {self.max_cliques}"
            )
        if (
            self.max_candidate_bytes is not None
            and self.max_candidate_bytes < 0
        ):
            raise ParameterError(
                "max_candidate_bytes must be >= 0, got "
                f"{self.max_candidate_bytes}"
            )
        if self.jobs is not None and self.jobs < 1:
            raise ParameterError(f"jobs must be >= 1, got {self.jobs}")
        if (
            self.level_store is not None
            and self.level_store != LEVEL_STORE_AUTO
            and self.level_store not in LEVEL_STORES
        ):
            raise ParameterError(
                f"level_store must be one of {', '.join(LEVEL_STORES)} "
                f"or {LEVEL_STORE_AUTO!r} (or None for the backend "
                f"default), got {self.level_store!r}"
            )
        if self.compute_domain not in COMPUTE_DOMAINS:
            raise ParameterError(
                f"compute_domain must be one of "
                f"{', '.join(COMPUTE_DOMAINS)}, got "
                f"{self.compute_domain!r}"
            )
        if self.kernel not in KERNELS:
            raise ParameterError(
                f"kernel must be one of {', '.join(KERNELS)}, got "
                f"{self.kernel!r}"
            )
        # normalise to a plain dict so `options` is hashable-agnostic and
        # cheap to .get() from; the field stays read-only by convention.
        object.__setattr__(self, "options", dict(self.options))
        gran = self.options.get("steal_granularity")
        if gran is not None and (
            not isinstance(gran, int)
            or isinstance(gran, bool)
            or gran < 1
        ):
            raise ParameterError(
                f"steal_granularity must be an int >= 1, got {gran!r}"
            )

    def __hash__(self) -> int:
        # the frozen dataclass's auto-hash would choke on the options
        # dict; hash its canonical :func:`_stable_key` instead.  The
        # canonical key is used unconditionally — a fast path for
        # all-hashable options would hash equal values differently
        # (frozenset vs set) depending on which path they took,
        # breaking the hash/eq contract the service ResultCache dict
        # key depends on.
        return hash((
            self.backend,
            self.k_min,
            self.k_max,
            self.max_cliques,
            self.max_candidate_bytes,
            self.jobs,
            self.level_store,
            self.compute_domain,
            self.kernel,
            _stable_key(self.options),
        ))

    def with_backend(self, backend: str) -> "EnumerationConfig":
        """A copy of this config targeting a different backend."""
        return replace(self, backend=backend)

    def option(self, key: str, default: Any = None) -> Any:
        """Read one backend-specific option with a default."""
        return self.options.get(key, default)


def resolve_for_backend(
    config: "EnumerationConfig", info: Any
) -> "EnumerationConfig":
    """Cross-validate a config against its backend's registry entry.

    The single place config-vs-backend consistency is decided, shared
    by every path that accepts a config — the engine facade before
    dispatch, and the job service at *submit* time — so ``repro
    enumerate`` and ``repro submit`` raise the identical
    :class:`~repro.errors.ConfigError` for the identical mistake
    (historically the service only discovered an unsupported
    ``level_store`` when the job ran, burning a queue slot on a job
    doomed to fail).

    ``info`` is a :class:`~repro.engine.registry.BackendInfo` (typed
    loosely to keep this module below the registry).  Returns the
    config, with ``k_min`` promoted to the backend's ``min_k_min``
    floor when needed.
    """
    if config.level_store == LEVEL_STORE_AUTO:
        if not info.level_stores:
            # a backend that manages its own storage has nothing for
            # the auto policy to choose between — its default *is* the
            # resolution, exactly as a None level_store would be
            return resolve_for_backend(
                replace(config, level_store=None), info
            )
    elif (
        config.level_store is not None
        and config.level_store not in info.level_stores
    ):
        raise ConfigError(
            f"backend {config.backend!r} does not support level store "
            f"{config.level_store!r}; supported: "
            f"{', '.join(info.level_stores) or '(backend-managed)'}"
        )
    if (
        config.compute_domain != "auto"
        and config.compute_domain not in info.compute_domains
    ):
        raise ConfigError(
            f"backend {config.backend!r} does not support compute "
            f"domain {config.compute_domain!r}; supported: "
            f"{', '.join(info.compute_domains)} (or 'auto')"
        )
    if (
        config.kernel != "auto"
        and config.kernel not in info.kernels
    ):
        raise ConfigError(
            f"backend {config.backend!r} does not support kernel "
            f"{config.kernel!r}; supported: "
            f"{', '.join(info.kernels)} (or 'auto')"
        )
    if config.k_min < info.min_k_min:
        return replace(config, k_min=info.min_k_min)
    return config


#: substrate preference of the auto policy: raw in-memory candidates
#: are fastest, WAH compression cuts the peak ~5.2x at modest CPU
#: cost, and the disk spill bounds residency at streaming speed.
_AUTO_STORE_PREFERENCE = ("memory", "wah", "disk")


def resolve_level_store(
    config: "EnumerationConfig",
    g: Any,
    info: Any,
    budget_bytes: int | None = None,
    *,
    predicted: Any = None,
) -> str:
    """The concrete substrate a ``level_store="auto"`` run executes on.

    Forward-runs the paper recurrences (:func:`repro.core.memory_model.
    predict_profile`) on the graph's ``(n, m)`` and picks the first
    substrate in memory → wah → disk order that the backend advertises
    *and* whose predicted peak fits ``budget_bytes``.  With no budget
    given, the machine's currently available memory is used; when even
    that is unknown, or nothing fits, the cheapest advertised substrate
    (the last preference) wins — the disk spill always "fits" in the
    sense that its residency barely grows with the level.

    ``g`` needs ``n``/``m`` attributes, plus the adjacency bitmap when
    ``k_min <= 2`` (for the exact seed count that sharpens the 2→3
    recurrence transition — skipped for duck-typed graphs without
    ``adj``); ``info`` is the backend's
    :class:`~repro.engine.registry.BackendInfo`.  A caller that has
    already run the model (the job scheduler predicts for admission
    control anyway) passes its
    :class:`~repro.core.memory_model.PredictedProfile` as ``predicted``
    to skip the recomputation.
    """
    from repro.core.memory_model import (
        available_memory_bytes,
        predict_graph_profile,
    )

    advertised = [
        s for s in _AUTO_STORE_PREFERENCE if s in info.level_stores
    ]
    if not advertised:
        raise ConfigError(
            f"backend {config.backend!r} advertises no level stores; "
            "level_store='auto' needs at least one to choose from"
        )
    if budget_bytes is None:
        budget_bytes = available_memory_bytes()
    if budget_bytes is None:
        return advertised[0]
    if predicted is None:
        predicted = predict_graph_profile(g, config.k_min, config.k_max)
    for store in advertised:
        if predicted.peak_bytes(store) <= budget_bytes:
            return store
    return advertised[-1]


def resolve_compute_domain(
    config: "EnumerationConfig", effective_store: str, info: Any
) -> str:
    """The concrete domain (``"bitset"`` / ``"wah"``) of one run.

    ``"auto"`` follows the effective level store: a ``"wah"`` store runs
    the compressed-domain kernels when the backend advertises them, so
    the level never round-trips through raw bit strings; every other
    store — and every backend without compressed kernels — resolves to
    ``"bitset"``.  Explicit domains pass through (they were validated
    against ``info.compute_domains`` by :func:`resolve_for_backend`).
    """
    if config.compute_domain != "auto":
        return config.compute_domain
    if effective_store == "wah" and "wah" in info.compute_domains:
        return "wah"
    return "bitset"


def resolve_kernel(config: "EnumerationConfig", info: Any) -> str:
    """The concrete kernel (``"python"`` / ``"numpy"``) of one run.

    ``"auto"`` picks the batched numpy kernels whenever the backend
    advertises them — they are byte-equivalent to the python kernels
    and strictly faster on whole-level batches — falling back to
    ``"python"`` otherwise.  Explicit kernels pass through (validated
    against ``info.kernels`` by :func:`resolve_for_backend`).
    """
    if config.kernel != "auto":
        return config.kernel
    if "numpy" in info.kernels:
        return "numpy"
    return "python"
