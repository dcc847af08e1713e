"""The Clique Enumerator: the paper's maximal-clique algorithm (Section 2.3).

The algorithm proceeds level by level.  At level ``k`` it holds only the
*candidate* k-cliques — those contained in some (k+1)-clique — grouped into
sub-lists sharing a (k-1)-clique prefix (:class:`~repro.core.sublist.
CliqueSubList`).  One generation step (:func:`generate_next_level`, the
paper's ``GenerateKCliques`` of Figure 3) turns level ``k`` into level
``k+1``:

* for each sub-list and each tail vertex ``v`` (except the last), the
  common neighbors of ``prefix + (v,)`` are one bitwise AND:
  ``CN(prefix) & N(v)``;
* each higher tail ``u`` adjacent to ``v`` yields the (k+1)-clique
  ``prefix + (v, u)``;
* that clique is **maximal** iff ``CN(prefix+(v,)) & N(u)`` has no 1-bit —
  the paper's ``BitOneExists`` test — and is then emitted immediately;
* non-maximal cliques become the new sub-list for prefix ``prefix + (v,)``;
  sub-lists with fewer than two members are dropped (a single candidate
  can pair with nothing, and — per the paper's observation — a k-clique
  that shares no (k-1) vertices with another k-clique seeds no (k+1)-clique
  that would not be found elsewhere).

Consequently maximal cliques are emitted in **non-decreasing order of
size**, each exactly once, and memory holds only candidates — the two
properties the paper contrasts against Kose et al. and Bron–Kerbosch.

Drivers
-------
:func:`enumerate_maximal_cliques` runs the complete pipeline: seeding at
``k_min`` (edges for ``k_min <= 2``, the k-clique enumerator of
:mod:`repro.core.kclique` for ``k_min >= 3`` — the paper's ``Init_K``),
then levels until exhaustion or ``k_max``.  Per-level statistics (the
paper's ``N[k]``, ``M[k]``) are recorded for the memory-usage experiment
(Figure 9) and for the parallel machine model.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError
from repro.core import bitset as bs
from repro.core.counters import IOStats, OpCounters
from repro.core.graph import Graph
from repro.core.sublist import CliqueLevelBatch, CliqueSubList

__all__ = [
    "LevelStats",
    "EnumerationResult",
    "paper_formula_bytes",
    "generate_next_level",
    "generate_next_level_bitscan",
    "tail_pairs",
    "build_initial_sublists",
    "build_sublists_from_k_cliques",
    "enumerate_maximal_cliques",
]

#: bytes per stored vertex index (the paper's ``c``); we store int64.
INDEX_BYTES = 8
#: bytes per sub-list pointer in the paper's space formula.
POINTER_BYTES = 8


@dataclass(frozen=True)
class LevelStats:
    """Accounting for one level of the enumeration.

    Attributes
    ----------
    k:
        Clique size of this level's candidates.
    n_sublists:
        The paper's ``N[k]`` — number of candidate sub-lists.
    n_candidates:
        The paper's ``M[k]`` — total candidate k-cliques.
    maximal_emitted:
        Maximal cliques of size ``k`` emitted while generating this level.
    candidate_bytes:
        Measured bytes held by the candidate sub-lists at this level.
    paper_formula_bytes:
        The paper's estimate ``M[k]*c + N[k]*((k-1)*c + ceil(n/8))``
        plus ``N[k]`` pointers.
    """

    k: int
    n_sublists: int
    n_candidates: int
    maximal_emitted: int
    candidate_bytes: int
    paper_formula_bytes: int


def paper_formula_bytes(k: int, n_sublists: int, n_candidates: int,
                        n_vertices: int) -> int:
    """The paper's Section 2.3 space estimate for level ``k``."""
    bitstring = bs.n_words(n_vertices) * 8
    return (
        n_candidates * INDEX_BYTES
        + n_sublists * ((k - 1) * INDEX_BYTES + bitstring)
        + n_sublists * POINTER_BYTES
    )


@dataclass
class EnumerationResult:
    """The canonical result of one enumeration run, whatever the backend.

    Every registered :mod:`repro.engine` backend returns this type, so
    callers can switch substrates without touching their result handling.

    Attributes
    ----------
    cliques:
        Maximal cliques as sorted tuples, in emission order —
        non-decreasing size, canonical within a size.  Empty when a
        callback consumed them instead.
    level_stats:
        One :class:`LevelStats` per candidate level processed (empty for
        backends that do not track levels centrally, e.g. multiprocess).
    counters:
        Operation counts (feed the parallel machine model).
    completed:
        False when stopped early by ``k_max`` with candidates remaining.
    k_min, k_max:
        The requested size range.
    backend:
        Registry name of the backend that produced this result.
    io:
        Disk traffic of the run, for disk-backed substrates; ``None``
        for purely in-memory backends.
    wall_seconds:
        Wall-clock duration of the run as measured by the engine facade
        (0.0 when the backend was invoked directly).
    n_workers:
        Worker processes used (1 for sequential substrates).
    transfers:
        Sub-lists relayed between workers by the load-balancing
        scheduler (0 for sequential substrates).
    compute_domain:
        The resolved word representation the generation step ran on:
        ``"bitset"`` (raw ``uint64`` word arrays) or ``"wah"`` (the
        compressed-domain kernels of
        :mod:`repro.core.compressed_domain`).  Always the resolved
        value — a config's ``"auto"`` never appears here.
    kernel:
        The resolved WAH kernel implementation of the run:
        ``"python"`` (scalar per-pair kernels) or ``"numpy"`` (the
        batched structure-of-arrays kernels of
        :mod:`repro.core.wah_kernels`).  Like ``compute_domain``,
        always the resolved value; for pure-bitset runs it records
        what a WAH store/step of this run would have used.
    domain_stats:
        Compressed-domain telemetry, empty for pure bitset runs:
        ``decompressed_bytes`` (sub-list bytes materialised in raw form
        while streaming levels), ``decompressed_bytes_avoided`` (raw
        bytes that stayed compressed end to end), ``kernel_word_ops`` /
        ``kernel_ands`` (compressed words touched / kernel calls), and
        ``adj_rows_compressed``.  Deliberately *not* part of
        ``counters``: the operation counters follow the paper's
        representation-independent model and stay byte-identical across
        compute domains.
    level_seconds:
        Wall-clock seconds per candidate level as timed by the shared
        level loop — entry 0 is the seeding step, entry ``i`` the
        generation of ``level_stats[i]``.  Empty for backends that do
        not run the shared loop.
    load_balance:
        Measured per-worker load-balance summary of a real parallel
        run (the paper's Figure 8 signal, computed for actual threaded
        runs by :func:`repro.parallel.metrics.worker_load_balance`):
        ``n_workers``, ``mean_busy`` / ``std_busy`` seconds,
        ``std_over_mean`` against the paper's ±10% criterion, and the
        transfer count.  ``None`` for sequential runs and for parallel
        runs whose levels were too narrow to fan out.
    """

    cliques: list[tuple[int, ...]] = field(default_factory=list)
    level_stats: list[LevelStats] = field(default_factory=list)
    counters: OpCounters = field(default_factory=OpCounters)
    completed: bool = True
    k_min: int = 1
    k_max: int | None = None
    backend: str = "incore"
    io: IOStats | None = None
    wall_seconds: float = 0.0
    n_workers: int = 1
    transfers: int = 0
    compute_domain: str = "bitset"
    kernel: str = "python"
    domain_stats: dict = field(default_factory=dict)
    level_seconds: list[float] = field(default_factory=list)
    load_balance: dict | None = None

    @property
    def levels(self) -> int:
        """Highest candidate level reached (mirrors ``counters.levels``)."""
        return self.counters.levels

    def by_size(self) -> dict[int, list[tuple[int, ...]]]:
        """Group the collected cliques by size."""
        out: dict[int, list[tuple[int, ...]]] = {}
        for c in self.cliques:
            out.setdefault(len(c), []).append(c)
        return out

    def max_clique_size(self) -> int:
        """Largest maximal clique size seen (0 when none)."""
        return max((len(c) for c in self.cliques), default=0)

    def peak_candidate_bytes(self) -> int:
        """Peak measured candidate memory over all levels (Figure 9)."""
        return max(
            (ls.candidate_bytes for ls in self.level_stats), default=0
        )


# ---------------------------------------------------------------------------
# Core generation step (Figure 3 of the paper)
# ---------------------------------------------------------------------------

#: pair-scan batch budget: bounds the temporary test-matrix memory to
#: roughly ``PAIR_BATCH * n_words(n) * 8`` bytes.
PAIR_BATCH = 200_000


def tail_pairs(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions ``(i, j)`` of every tail pair within a sub-list.

    ``offsets`` delimits consecutive sub-lists in one flat tails array
    (sub-list ``s`` owns positions ``offsets[s]:offsets[s + 1]``; the
    first offset need not be 0).  The pairs come out sub-list by
    sub-list, each in ``np.triu_indices(t, k=1)`` row-major order, all
    built with a few ``repeat`` / ``cumsum`` passes and no per-sub-list
    loop.
    """
    pos = np.arange(offsets[0], offsets[-1], dtype=np.int64)
    # tails after each position within its own sub-list
    rows = offsets[1:].repeat(offsets[1:] - offsets[:-1]) - pos - 1
    first = pos.repeat(rows)
    row_start = rows.cumsum() - rows
    second = np.arange(first.size, dtype=np.int64)
    second -= (row_start - pos - 1).repeat(rows)
    return first, second


def _pair_chunks(pairs_cum: np.ndarray) -> list[tuple[int, int]]:
    """Sub-list ranges ``[lo, hi)`` of at most :data:`PAIR_BATCH` pairs.

    Greedy in level order, like filling one batch until the next
    sub-list would overflow it; a single sub-list above the budget is a
    chunk of its own.  Ranges holding no pair are skipped.
    """
    m = pairs_cum.size - 1
    chunks = []
    lo = 0
    while lo < m:
        hi = int(pairs_cum.searchsorted(
            pairs_cum[lo] + PAIR_BATCH, side="right"
        )) - 1
        hi = max(hi, lo + 1)
        if pairs_cum[hi] > pairs_cum[lo]:
            chunks.append((lo, hi))
        lo = hi
    return chunks


def _expand_chunk(
    level: CliqueLevelBatch,
    lo: int,
    hi: int,
    adj: np.ndarray,
    counters: OpCounters,
    emit: Callable[[tuple[int, ...]], None],
) -> CliqueLevelBatch | None:
    """The pair scan of sub-lists ``[lo, hi)`` as one vectorised pass.

    Emits the chunk's maximal cliques in order and returns the retained
    children, or ``None`` when there are none.
    """
    first, second = tail_pairs(level.offsets[lo:hi + 1])
    vi = level.tails[first]
    vj = level.tails[second]
    counters.pair_checks += int(vi.size)
    # adjacency bit of every (v_i, v_j) pair in one gather
    adjacent = (
        (adj[vi, vj >> 6] >> (vj & 63).astype(np.uint64)) & np.uint64(1)
    ).astype(bool)
    if not adjacent.any():
        return None
    first, vi, vj = first[adjacent], vi[adjacent], vj[adjacent]
    n_pairs = int(vi.size)
    counters.cliques_generated += n_pairs
    counters.bit_exist_checks += n_pairs
    counters.bit_and_ops += n_pairs
    # one group per (sub-list, v_i): the pairs sharing a first position
    boundary = np.empty(n_pairs, dtype=bool)
    boundary[0] = True
    np.not_equal(first[1:], first[:-1], out=boundary[1:])
    starts = boundary.nonzero()[0]
    group_of = boundary.cumsum() - 1
    counters.bit_and_ops += int(starts.size)  # child CN derivations
    gsid = level.offsets.searchsorted(first[starts], side="right") - 1
    gvi = vi[starts]
    # CN(prefix + (v_i,)) per group, then the maximality test
    # CN(prefix) & N(v_i) & N(v_j) as one AND per generated clique
    child_cn = level.cn_words[gsid]
    child_cn &= adj[gvi]
    tests = child_cn[group_of]
    tests &= adj[vj]
    nonmax = tests.any(axis=1)
    del tests  # the chunk's largest temporary, not needed past here
    maximal = (~nonmax).nonzero()[0]
    if maximal.size:
        k = level.k
        g_max = group_of[maximal]
        rows = np.empty((maximal.size, k + 1), dtype=np.int64)
        rows[:, :k - 1] = level.prefixes[gsid[g_max]]
        rows[:, k - 1] = gvi[g_max]
        rows[:, k] = vj[maximal]
        cliques = list(map(tuple, rows.tolist()))
        emit_batch = getattr(emit, "batch", None)
        if emit_batch is not None:
            counters.maximal_emitted += len(cliques)
            emit_batch(cliques)
        else:
            for clique in cliques:
                counters.maximal_emitted += 1
                emit(clique)
    # retain every group with at least two non-maximal candidates
    n_nonmax = np.add.reduceat(nonmax, starts)
    keep = n_nonmax > 1
    kept = keep.nonzero()[0]
    if not kept.size:
        return None
    counters.sublists_created += int(kept.size)
    prefixes = np.empty((kept.size, level.k), dtype=np.int64)
    prefixes[:, :-1] = level.prefixes[gsid[kept]]
    prefixes[:, -1] = gvi[kept]
    offsets = np.zeros(kept.size + 1, dtype=np.int64)
    n_nonmax[kept].cumsum(out=offsets[1:])
    tails = vj[nonmax & keep[group_of]]
    return CliqueLevelBatch(prefixes, offsets, tails, child_cn[kept])


def generate_next_level(
    sublists: CliqueLevelBatch | list[CliqueSubList],
    g: Graph,
    counters: OpCounters,
    emit: Callable[[tuple[int, ...]], None],
) -> CliqueLevelBatch | list[CliqueSubList]:
    """One ``GenerateKCliques`` step: level k sub-lists -> level k+1.

    Emits maximal (k+1)-cliques through ``emit`` and returns the candidate
    (k+1)-clique sub-lists in the input's form: a
    :class:`~repro.core.sublist.CliqueLevelBatch` for a batch, a list
    of :class:`~repro.core.sublist.CliqueSubList` for a list (converted
    at entry and exit, for the callers outside the level loop: the
    process workers and the machine-model trace).  Pure with respect to
    its inputs: sub-lists are never mutated, so a parallel driver can
    hand disjoint rows of a level to different workers and merge the
    outputs.

    The step is one vectorised kernel over the level's arrays, chunked
    to :data:`PAIR_BATCH` pairs to bound temporary memory: the tail
    pairs of every sub-list at once (:func:`tail_pairs`), one adjacency
    gather, one child common-neighbor string per ``(sub-list, v_i)``
    group, and the maximality test ``CN(prefix) & N(v_i) & N(v_j)``
    row-wise.  Each chunk's maximal cliques go out as one ordered list
    through ``emit.batch`` when the emitter has one (see
    :func:`repro.engine.level_loop.make_emitter`), else one call per
    clique.  The recorded counters follow the *paper's* operation model
    (one AND to derive each child common-neighbor string, one AND plus
    one BitOneExists per generated clique, one adjacency check per
    scanned pair), so analyses and the machine model stay faithful to
    Figure 3 even though the word-level arithmetic is batched.
    """
    if not isinstance(sublists, CliqueLevelBatch):
        if not sublists:
            return []
        batch = CliqueLevelBatch.from_sublists(sublists)
        return generate_next_level(batch, g, counters, emit).to_sublists()
    level = sublists
    counts = level.offsets[1:] - level.offsets[:-1]
    pairs_cum = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts * (counts - 1) // 2, out=pairs_cum[1:])
    parts = []
    for lo, hi in _pair_chunks(pairs_cum):
        part = _expand_chunk(level, lo, hi, g.adj, counters, emit)
        if part is not None:
            parts.append(part)
    if not parts:
        return CliqueLevelBatch.empty(level.k + 1, level.cn_words.shape[1])
    return CliqueLevelBatch.concat(parts)


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

def build_initial_sublists(
    g: Graph,
    counters: OpCounters,
    emit: Callable[[tuple[int, ...]], None],
    emit_maximal_edges: bool,
) -> list[CliqueSubList]:
    """Level-2 sub-lists from the edge set (one per low-endpoint vertex).

    An edge ``{v, u}`` (``v < u``) lives in the sub-list whose prefix is
    ``(v,)``.  Maximal edges — no common neighbor — are emitted (when
    ``emit_maximal_edges``) and excluded from the candidates; sub-lists
    with fewer than two candidates are dropped.
    """
    adj = g.adj
    out: list[CliqueSubList] = []
    for v in range(g.n):
        nbrs = g.neighbors(v)
        tails = nbrs[nbrs > v]
        if tails.size == 0:
            continue
        counters.cliques_generated += int(tails.size)
        counters.bit_and_ops += int(tails.size)
        counters.bit_exist_checks += int(tails.size)
        tests = adj[tails] & adj[v][None, :]
        nonmax = tests.any(axis=1)
        if emit_maximal_edges:
            for u in tails[~nonmax].tolist():
                counters.maximal_emitted += 1
                emit((v, int(u)))
        cand = tails[nonmax]
        if cand.size > 1:
            counters.sublists_created += 1
            out.append(CliqueSubList((v,), cand, adj[v]))
    return out


def build_sublists_from_k_cliques(
    g: Graph,
    k: int,
    cliques: list[tuple[int, ...]],
    counters: OpCounters,
) -> list[CliqueSubList]:
    """Group non-maximal k-cliques into level-k sub-lists (Init_K seeding).

    ``cliques`` must be sorted tuples in canonical order (as produced by
    :func:`repro.core.kclique.enumerate_k_cliques`); maximal k-cliques must
    already have been emitted by the caller and excluded here.
    """
    if k < 2:
        raise ParameterError(f"sub-lists exist for k >= 2, got {k}")
    out: list[CliqueSubList] = []
    adj = g.adj
    i = 0
    cliques = sorted(cliques)
    while i < len(cliques):
        prefix = cliques[i][:-1]
        j = i
        tails: list[int] = []
        while j < len(cliques) and cliques[j][:-1] == prefix:
            tails.append(cliques[j][-1])
            j += 1
        if len(tails) > 1:
            cn = adj[prefix[0]].copy()
            for p in prefix[1:]:
                counters.bit_and_ops += 1
                np.bitwise_and(cn, adj[p], out=cn)
            counters.sublists_created += 1
            out.append(
                CliqueSubList(prefix, np.asarray(tails, dtype=np.int64), cn)
            )
        i = j
    return out


# ---------------------------------------------------------------------------
# Driver (compatibility shim over the engine layer)
# ---------------------------------------------------------------------------

def enumerate_maximal_cliques(
    g: Graph,
    k_min: int = 1,
    k_max: int | None = None,
    on_clique: Callable[[tuple[int, ...]], None] | None = None,
    max_cliques: int | None = None,
    max_candidate_bytes: int | None = None,
) -> EnumerationResult:
    """Enumerate all maximal cliques with sizes in ``[k_min, k_max]``.

    This is the historical entry point, now a thin shim over the
    ``"incore"`` backend of :mod:`repro.engine` — the unified driver that
    also powers the bit-scan, out-of-core, and multiprocess substrates.
    Prefer :class:`repro.engine.EnumerationEngine` for new code; this
    function remains for the paper-faithful sequential algorithm.

    Parameters
    ----------
    g:
        Input graph.
    k_min:
        Lower size bound (the paper's ``Init_K``).  For ``k_min >= 3`` the
        k-clique enumerator seeds the levels; smaller values start from
        edges (and vertices for ``k_min = 1``).
    k_max:
        Optional upper size bound; enumeration stops after emitting
        maximal cliques of this size.  ``completed`` is False when
        candidates remained.
    on_clique:
        Optional sink.  When given, cliques stream to it and are *not*
        collected in the result (the paper's terabyte-scale outputs make
        collection optional by necessity).
    max_cliques:
        Optional budget; exceeding it raises
        :class:`~repro.errors.BudgetExceeded`.
    max_candidate_bytes:
        Optional cap on measured candidate memory per level; exceeding it
        raises :class:`~repro.errors.BudgetExceeded`.

    Returns
    -------
    EnumerationResult
        Maximal cliques in non-decreasing size order plus per-level stats.

    Examples
    --------
    >>> from repro.core.generators import barbell_graph
    >>> res = enumerate_maximal_cliques(barbell_graph(3))
    >>> sorted(res.cliques)
    [(0, 1, 2), (2, 3), (3, 4, 5)]
    """
    from repro.engine import EnumerationConfig, run_enumeration

    config = EnumerationConfig(
        backend="incore",
        k_min=k_min,
        k_max=k_max,
        max_cliques=max_cliques,
        max_candidate_bytes=max_candidate_bytes,
    )
    return run_enumeration(g, config, on_clique=on_clique)


# ---------------------------------------------------------------------------
# Ablation: the paper's rejected bit-scan generation variant
# ---------------------------------------------------------------------------

def generate_next_level_bitscan(
    level: CliqueLevelBatch,
    g: Graph,
    counters: OpCounters,
    emit: Callable[[tuple[int, ...]], None],
) -> CliqueLevelBatch:
    """The paper's alternative generation: scan the bit string directly.

    Section 2.3: "there is another way to generate (k+1)-cliques by
    taking advantage of the bit strings.  Going through each bit of the
    bit string, we are able to identify the common neighbors.  [...]
    However, we do not use this method because for each clique, every bit
    in the bit string of length n must be visited, which requires n
    comparisons while our method checks only the list of common neighbors
    whose size is bounded by (n-k)."

    Implemented for the ablation benchmark: output is identical to
    :func:`generate_next_level`; the cost model charges the full
    ``n``-bit scan per clique (tracked in ``counters.extra`` under
    ``bits_scanned``), and the wall-clock difference is measurable on
    sparse graphs where tail lists are far shorter than ``n``.  Takes
    and returns :class:`~repro.core.sublist.CliqueLevelBatch` levels;
    the scan itself walks the batch one sub-list at a time.
    """
    adj = g.adj
    n = g.n
    out: list[CliqueSubList] = []
    for sl in level.to_sublists():
        tails = sl.tails
        cn = sl.cn_words
        for v in tails.tolist()[:-1]:
            counters.bit_and_ops += 1
            child_cn = cn & adj[v]
            # mask away bits <= v, then scan the entire bit string
            masked = child_cn.copy()
            word = v >> 6
            masked[:word] = 0
            keep_high = ~((np.uint64(1) << np.uint64((v & 63) + 1))
                          - np.uint64(1)) if (v & 63) < 63 else np.uint64(0)
            masked[word] &= keep_high
            partners = bs.words_to_indices(masked, n)
            counters.extra["bits_scanned"] = (
                counters.extra.get("bits_scanned", 0) + n
            )
            if partners.size == 0:
                continue
            counters.cliques_generated += int(partners.size)
            counters.bit_and_ops += int(partners.size)
            counters.bit_exist_checks += int(partners.size)
            tests = adj[partners] & child_cn[None, :]
            nonmax = tests.any(axis=1)
            child_prefix = sl.prefix + (v,)
            for u in partners[~nonmax].tolist():
                counters.maximal_emitted += 1
                emit(child_prefix + (int(u),))
            cand = partners[nonmax]
            if cand.size > 1:
                counters.sublists_created += 1
                out.append(CliqueSubList(child_prefix, cand, child_cn))
    if not out:
        return CliqueLevelBatch.empty(level.k + 1, level.cn_words.shape[1])
    return CliqueLevelBatch.from_sublists(out)
