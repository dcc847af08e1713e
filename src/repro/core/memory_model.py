"""Memory accounting for the level-wise enumeration (Figure 9 substrate).

The paper measures "the memory used to keep all cliques of different sizes
during the procedure of clique enumeration" (Figure 9: rising to ~20 GB at
clique size 13 on the 2,895-vertex graph, then falling) and derives the
space bound

    ``M[k]*c + N[k]*((k-1)*c + ceil(n/8)) + N[k]*sizeof(pointer)``

for candidate storage at level ``k``, along with the recurrences

    ``N[k+1] <= M[k] - 2*N[k]``
    ``M[k+1] <= (1/2) * (M[k] - 2*N[k]) * (n - k)``

This module turns recorded :class:`~repro.core.clique_enumerator.
LevelStats` into the Figure 9 series, checks the recurrences, and scales
bytes for reporting.  It also runs the recurrences *forward*:
:func:`predict_profile` turns ``(n_vertices, n_edges, k_min, seed
count)`` into a per-level upper bound on candidate storage — the number
the service's admission control charges a job against the machine
budget before the job ever runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.clique_enumerator import (
    INDEX_BYTES,
    POINTER_BYTES,
    LevelStats,
)
from repro.core.graph import Graph

__all__ = [
    "MemoryProfile",
    "memory_profile",
    "check_paper_recurrences",
    "bytes_to_unit",
    "PredictedProfile",
    "predict_profile",
    "predict_graph_profile",
    "seed_sublist_count",
    "parse_byte_size",
    "available_memory_bytes",
    "WAH_COMPRESSION_RATIO",
    "DISK_RESIDENT_RATIO",
]

_UNITS = {"B": 1, "KB": 1024, "MB": 1024**2, "GB": 1024**3, "TB": 1024**4}

#: measured whole-level WAH compression of candidate storage on the
#: evaluation graphs (the paper's closing observation; the committed
#: ``benchmarks/baselines/engines_wah.json`` baseline pins ~5.2x).
#: Used to *calibrate* the raw prediction for the ``"wah"`` store —
#: an estimate for admission control, not a bound.
WAH_COMPRESSION_RATIO = 5.2

#: resident-set divisor for the ``"disk"`` store: levels spill to disk
#: and stream back chunk-by-chunk, so only a small working set of
#: sub-lists is resident at once.  Predicted resident bytes =
#: ``peak / DISK_RESIDENT_RATIO`` — again an admission estimate, not a
#: bound; disk is the substrate of last resort precisely because its
#: residency barely grows with the level.
DISK_RESIDENT_RATIO = 64


def bytes_to_unit(n_bytes: int, unit: str = "MB") -> float:
    """Convert a byte count to the requested unit."""
    try:
        return n_bytes / _UNITS[unit]
    except KeyError:
        raise ValueError(
            f"unknown unit {unit!r}; expected one of {sorted(_UNITS)}"
        ) from None


@dataclass(frozen=True)
class MemoryProfile:
    """The Figure 9 series for one enumeration run.

    ``sizes[i]`` is the clique size (level) and ``measured_bytes[i]`` /
    ``formula_bytes[i]`` the candidate storage at that level, measured from
    the actual containers and from the paper's formula respectively.
    """

    sizes: list[int]
    measured_bytes: list[int]
    formula_bytes: list[int]
    candidates: list[int]
    sublists: list[int]

    def peak(self) -> tuple[int, int]:
        """(clique size at peak, measured peak bytes)."""
        if not self.sizes:
            return (0, 0)
        i = max(range(len(self.sizes)), key=lambda j: self.measured_bytes[j])
        return (self.sizes[i], self.measured_bytes[i])

    def series(self, unit: str = "MB") -> list[tuple[int, float]]:
        """(clique size, measured bytes in ``unit``) pairs."""
        return [
            (k, bytes_to_unit(b, unit))
            for k, b in zip(self.sizes, self.measured_bytes)
        ]


def memory_profile(level_stats: list[LevelStats]) -> MemoryProfile:
    """Build a :class:`MemoryProfile` from recorded level statistics."""
    return MemoryProfile(
        sizes=[ls.k for ls in level_stats],
        measured_bytes=[ls.candidate_bytes for ls in level_stats],
        formula_bytes=[ls.paper_formula_bytes for ls in level_stats],
        candidates=[ls.n_candidates for ls in level_stats],
        sublists=[ls.n_sublists for ls in level_stats],
    )


def check_paper_recurrences(
    level_stats: list[LevelStats], n_vertices: int
) -> list[str]:
    """Verify the level-growth bounds on a recorded run.

    Checks the paper's ``N[k+1] <= M[k] - 2N[k]`` exactly (a new sub-list
    with at least two members consumes a tail with at least two higher
    partners, so at most ``M[k] - 2N[k]`` tails qualify), and the
    *worst-case-safe* form of the M recurrence,
    ``M[k+1] <= (M[k] - 2N[k]) * (n - k)``.

    The paper states the M bound with an extra factor 1/2 from the
    higher-index-only comparison; that halving is an average-case argument
    — on dense graphs (e.g. K4 at level 2) the measured ``M[3]`` exceeds
    it — so the strict checker uses the un-halved bound and reports the
    halved one only informationally via the returned messages when
    exceeded.

    Returns a list of human-readable violations of the safe bounds (empty
    for every correct run).
    """
    issues: list[str] = []
    for prev, cur in zip(level_stats, level_stats[1:]):
        if cur.k != prev.k + 1:
            issues.append(
                f"levels not consecutive: {prev.k} -> {cur.k}"
            )
            continue
        cap_n = max(0, prev.n_candidates - 2 * prev.n_sublists)
        if cur.n_sublists > cap_n:
            issues.append(
                f"N[{cur.k}] = {cur.n_sublists} exceeds bound "
                f"M[{prev.k}] - 2N[{prev.k}] = {cap_n}"
            )
        cap_m = cap_n * max(0, n_vertices - prev.k)
        if cur.n_candidates > cap_m:
            issues.append(
                f"M[{cur.k}] = {cur.n_candidates} exceeds safe bound "
                f"(M[{prev.k}]-2N[{prev.k}])(n-k) = {cap_m}"
            )
    return issues


# -- the predictive side ------------------------------------------------------


@dataclass(frozen=True)
class PredictedProfile:
    """A forward-run of the paper recurrences: per-level *upper bounds*.

    ``candidates[i]`` / ``sublists[i]`` cap the real ``M[k]`` / ``N[k]``
    at ``sizes[i]``, and ``predicted_bytes[i]`` is the measured-storage
    formula (``M*c + N*((k-1)*c + ceil(n/8)) + N*ptr``) evaluated on
    those caps — so it bounds the raw (``"memory"``-store) candidate
    bytes the run can reach at that level.  The wah/disk estimates in
    :meth:`peak_bytes` are *calibrated predictions*, not bounds.
    """

    n_vertices: int
    n_edges: int
    k_min: int
    sizes: list[int] = field(default_factory=list)
    candidates: list[int] = field(default_factory=list)
    sublists: list[int] = field(default_factory=list)
    predicted_bytes: list[int] = field(default_factory=list)
    wah_ratio: float = WAH_COMPRESSION_RATIO

    def peak(self) -> tuple[int, int]:
        """(clique size at the predicted peak, raw peak bytes)."""
        if not self.sizes:
            return (0, 0)
        i = max(
            range(len(self.sizes)), key=lambda j: self.predicted_bytes[j]
        )
        return (self.sizes[i], self.predicted_bytes[i])

    def peak_bytes(self, level_store: str | None = None) -> int:
        """The predicted peak for one storage substrate.

        ``"memory"`` (or ``None``) is the raw upper bound; ``"wah"``
        divides by the measured compression ratio; ``"disk"`` charges
        only the streamed working set (``DISK_RESIDENT_RATIO``).
        """
        raw = self.peak()[1]
        if level_store is None or level_store == "memory":
            return raw
        if level_store == "wah":
            return max(1, int(raw / self.wah_ratio)) if raw else 0
        if level_store == "disk":
            return max(1, raw // DISK_RESIDENT_RATIO) if raw else 0
        raise ValueError(
            f"unknown level store {level_store!r}; expected memory, "
            "wah, or disk"
        )


def _clique_count_bound(n: int, m: int, j: int) -> int:
    """Kruskal–Katona style cap on the number of ``j``-cliques.

    With ``x`` solving ``x(x-1)/2 = m`` (the clique order a complete
    graph with ``m`` edges would have), ``#K_j <= C(x, j)`` — the
    generalized binomial with real ``x``.  Zero once ``j`` exceeds
    ``x``, which is what terminates the forward run: no graph with
    ``m`` edges holds a clique larger than ``x``.
    """
    if j <= 0:
        return 0
    if j == 1:
        return n
    if m <= 0:
        return 0
    x = (1.0 + math.sqrt(1.0 + 8.0 * m)) / 2.0
    if x < j:
        return 0
    prod = 1.0
    for i in range(j):
        prod *= (x - i) / (i + 1)
    return math.floor(prod)


def predict_profile(
    n_vertices: int,
    n_edges: int,
    k_min: int = 1,
    n_seed_sublists: int | None = None,
    *,
    k_max: int | None = None,
    wah_ratio: float = WAH_COMPRESSION_RATIO,
) -> PredictedProfile:
    """Forward-run the paper recurrences into a per-level byte bound.

    Starting from the seed level (level 2 holds at most the ``m``
    edges; ``n_seed_sublists`` — the *exact* count from
    :func:`seed_sublist_count`, or any under-estimate — sharpens the
    2→3 transition through ``N[3] <= M[2] - 2N[2]``), every later
    level is capped by the safe form of the M recurrence
    (``M[k+1] <= (M[k] - 2N[k])(n-k) <= M[k](n-k)``) intersected with
    the clique-count bound of :func:`_clique_count_bound`, which both
    keeps the caps from exploding and terminates the run: the cap hits
    zero no later than clique size ``~sqrt(2m)``.

    Every cap is a true upper bound on the real ``M[k]`` / ``N[k]``,
    so ``predicted_bytes`` bounds the raw candidate storage a
    ``"memory"``-store run can measure — the guarantee the property
    harness pins across the graph-family matrix.
    """
    if n_vertices < 0 or n_edges < 0:
        raise ValueError(
            f"need n_vertices >= 0 and n_edges >= 0, got "
            f"{n_vertices}/{n_edges}"
        )
    if k_min < 1:
        raise ValueError(f"k_min must be >= 1, got {k_min}")
    if n_seed_sublists is not None and n_seed_sublists < 0:
        raise ValueError(
            f"n_seed_sublists must be >= 0, got {n_seed_sublists}"
        )
    profile = PredictedProfile(
        n_vertices=n_vertices,
        n_edges=n_edges,
        k_min=k_min,
        wah_ratio=wah_ratio,
    )
    n, m = n_vertices, n_edges
    start = max(2, k_min)
    words = (n + 63) // 64
    bitstring = words * 8

    def level_bytes(k: int, cap_m: int, cap_n: int) -> int:
        return cap_m * INDEX_BYTES + cap_n * (
            (k - 1) * INDEX_BYTES + bitstring + POINTER_BYTES
        )

    # caps at the first stored level
    cap_m = m
    cap_n = min(n, m // 2)
    if start == 2 and n_seed_sublists is not None:
        cap_n = min(cap_n, n_seed_sublists)
    surv = None  # exact-seed M[k]-2N[k] bound, one transition only
    if start == 2 and n_seed_sublists is not None:
        surv = max(0, m - 2 * n_seed_sublists)
    for k in range(3, start + 1):
        # chain up to a k_min > 2 seed: N unknown, so the safe M bound
        # degrades to M[k+1] <= M[k] * (n - k)
        cap_m = min(cap_m * max(0, n - (k - 1)), _clique_count_bound(n, m, k))
        cap_n = min(cap_m // 2, _clique_count_bound(n, m, k - 1))
    k = start
    while cap_m >= 2 and (k_max is None or k <= k_max):
        profile.sizes.append(k)
        profile.candidates.append(cap_m)
        profile.sublists.append(cap_n)
        profile.predicted_bytes.append(level_bytes(k, cap_m, cap_n))
        prev_m = cap_m
        growth = surv if surv is not None else prev_m
        surv = None
        cap_m = min(
            growth * max(0, n - k), _clique_count_bound(n, m, k + 1)
        )
        cap_n = min(growth, cap_m // 2, _clique_count_bound(n, m, k))
        k += 1
    return profile


def seed_sublist_count(g: Graph) -> int:
    """Exact ``N[2]``: level-2 sub-lists the seeding will build.

    Mirrors ``build_initial_sublists`` — vertex ``v`` contributes a
    sub-list iff at least two of its higher-numbered neighbors form
    non-maximal edges with it (an edge is non-maximal when the
    endpoints share a common neighbor).  Exactness matters: the 2→3
    recurrence transition in :func:`predict_profile` is only a valid
    bound for ``n_seed_sublists <= N[2]``.
    """
    adj = g.adj
    count = 0
    for v in range(g.n):
        nbrs = g.neighbors(v)
        tails = nbrs[nbrs > v]
        if tails.size < 2:
            continue
        nonmax = (adj[tails] & adj[v][None, :]).any(axis=1)
        if int(nonmax.sum()) > 1:
            count += 1
    return count


def predict_graph_profile(
    g: Graph, k_min: int, k_max: int | None = None
) -> PredictedProfile:
    """:func:`predict_profile` for enumerating ``g`` from ``k_min``.

    Runs from edges (``k_min <= 2``) pass the exact seed count of
    :func:`seed_sublist_count`; a duck-typed graph without the ``adj``
    bitmap (only ``n``/``m``) skips it.
    """
    seeds = (
        seed_sublist_count(g)
        if k_min <= 2 and hasattr(g, "adj")
        else None
    )
    return predict_profile(g.n, g.m, k_min, seeds, k_max=k_max)


def parse_byte_size(text: str) -> int:
    """Parse a human byte size (``"512M"``, ``"2.5GB"``, ``"4096"``).

    Suffixes are the binary units of :data:`_UNITS`, case-insensitive,
    with or without the trailing ``B``.  Used by ``repro serve
    --memory-budget``.
    """
    raw = text.strip()
    number = raw
    unit = "B"
    for i, ch in enumerate(raw):
        if ch not in "0123456789._":
            number, unit = raw[:i], raw[i:].strip().upper()
            break
    if unit in ("K", "M", "G", "T"):
        unit += "B"
    if not number or unit not in _UNITS:
        raise ValueError(
            f"cannot parse byte size {text!r}; expected e.g. 4096, "
            "512M, or 2.5GB"
        )
    try:
        value = float(number)
    except ValueError:
        raise ValueError(
            f"cannot parse byte size {text!r}; expected e.g. 4096, "
            "512M, or 2.5GB"
        ) from None
    if value < 0:
        raise ValueError(f"byte size must be >= 0, got {text!r}")
    return int(value * _UNITS[unit])


def available_memory_bytes() -> int | None:
    """The machine's currently available memory, or ``None``.

    Reads ``MemAvailable`` from ``/proc/meminfo`` (Linux); other
    platforms return ``None`` and the auto-store policy falls back to
    preferring the in-memory substrate.
    """
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None
