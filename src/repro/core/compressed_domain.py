"""Compressed-domain generation: the level step that never decompresses.

The paper closes Section 2.3 by observing that the sparsity of its
bitmap memory index "can potentially provide high compression rate and
allow for bitwise operations to be performed on the compressed data."
PR 3's :class:`~repro.engine.level_store.CompressedLevelStore` delivered
the first half — candidates rest WAH-compressed — but still decompressed
every chunk back to raw ``uint64`` words for expansion, paying the codec
twice and materialising the full working set anyway.  This module
delivers the second half: a generation step whose common-neighbor
derivations and ``BitOneExists`` maximality tests run *directly on the
WAH words* via the :mod:`repro.core.compressed` kernels, emitting new
tails and CN strings as WAH words without a ``BitSet`` round trip.

:class:`CompressedExpander` matches the engine's
:data:`~repro.engine.level_loop.GenerationStep` signature, so it plugs
into the shared level loop exactly where
:func:`~repro.core.clique_enumerator.generate_next_level` does — and it
charges the *identical* operation counters: the
:class:`~repro.core.counters.OpCounters` model counts the paper's
algorithmic operations (one AND per child CN derivation, one AND plus
one BitOneExists per generated clique, one adjacency probe per scanned
pair), which are representation-independent.  Output cliques, per-level
statistics, and merged counters are therefore byte-identical between
``compute_domain="bitset"`` and ``"wah"``; only the word arithmetic —
and the telemetry reported via :meth:`CompressedExpander.stats` —
differs.

Two step models are provided, mirroring the two bitset steps so each
backend keeps its documented counter model:

``"pairs"``
    The paper's tail-list generation (Figure 3), used by ``incore`` and
    ``threads``.
``"bitscan"``
    The rejected Section 2.3 bit-scan variant, used by ``bitscan``
    (including its ``bits_scanned`` cost accounting) — except that the
    partner scan walks the compressed words with fill-run skipping
    instead of visiting all ``n`` bits.

Each step model exists in two *kernel* implementations selected by the
``kernel`` parameter: ``"python"`` runs the per-pair loops over the
scalar kernels in :mod:`repro.core.compressed`, while ``"numpy"`` lifts
whole level chunks into the structure-of-arrays word layout of
:mod:`repro.core.wah_kernels` and replaces the inner loops with batched
adjacency probes, one vectorised ``batch_and`` per parent group, and one
``batch_and_any`` sweep per chunk of generated cliques.  The two kernels
are *byte-equivalent*: identical emitted cliques in identical order,
identical children, and identical :class:`~repro.core.counters.
OpCounters` — the counter model charges algorithmic operations, not
loop iterations, so bulk charging a batch equals charging its pairs one
by one.  Only the :meth:`CompressedExpander.stats` telemetry may differ
(the python kernels early-exit scans the batched kernels run in full).

Thread safety: one expander serves one run, but its :meth:`step` may be
called concurrently by the ``threads`` backend's workers — the WAH
adjacency-row caches are shared under a lock, and each worker thread
gets its own :class:`~repro.core.compressed.WahScratch`.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

import numpy as np

from repro.errors import ParameterError
from repro.core.bitset import WORD_BITS
from repro.core.clique_enumerator import PAIR_BATCH, tail_pairs
from repro.core.compressed import (
    WahBitmap,
    WahScratch,
    wah_and_any,
    wah_and_into,
    wah_from_sorted_indices,
    wah_indices_above,
)
from repro.core.counters import OpCounters
from repro.core.graph import Graph
from repro.obs.runtime import get_observability
from repro.core.sublist import (
    CliqueSubList,
    CompressedLevelBatch,
    CompressedSubList,
)
from repro.core.wah_kernels import (
    batch_and,
    batch_and_any,
    batch_decode_indices,
    batch_decode_words,
    batch_encode_indices,
    batch_encode_words,
    batch_indices_above,
    concat_streams,
    take_streams,
)

__all__ = ["CompressedExpander", "STEP_MODELS", "STEP_KERNELS"]

#: the two generation-step counter models an expander can mirror.
STEP_MODELS = ("pairs", "bitscan")

#: the two byte-equivalent kernel implementations of each model.
STEP_KERNELS = ("python", "numpy")

#: bitscan partner scans decode a (parents, universe) bit matrix; cap
#: parents per batch so that transient stays bounded (~32 MB of uint32).
_BITSCAN_BITS_BUDGET = 8_000_000


class CompressedExpander:
    """A generation step running the level expansion in the WAH domain.

    Parameters
    ----------
    g:
        The input graph; its adjacency rows are WAH-compressed lazily,
        one row per vertex the expansion actually touches, and cached
        for the whole run.
    model:
        Which bitset step's structure (and counter model) to mirror:
        ``"pairs"`` (:func:`~repro.core.clique_enumerator.
        generate_next_level`) or ``"bitscan"``
        (:func:`~repro.core.clique_enumerator.
        generate_next_level_bitscan`).
    emit_compressed:
        When True, :meth:`step` consumes
        :class:`~repro.core.sublist.CompressedSubList` entries (as
        streamed by ``CompressedLevelStore.stream_entries``) and emits
        children in the same form — the zero-round-trip path.  When
        False it consumes/produces plain
        :class:`~repro.core.sublist.CliqueSubList` for the ``memory`` /
        ``disk`` stores; the kernels still perform the derivations and
        maximality tests on compressed operands.
    kernel:
        ``"python"`` (the scalar per-pair kernels) or ``"numpy"`` (the
        batched :mod:`repro.core.wah_kernels` structure-of-arrays path).
        Byte-equivalent outputs and counters; see the module docstring.
        The numpy kernels additionally accept a whole
        :class:`~repro.core.sublist.CompressedLevelBatch` as the
        ``sublists`` argument of :meth:`step` and then return one, so
        batch-streaming stores never materialise per-entry objects.
    """

    def __init__(
        self,
        g: Graph,
        model: str = "pairs",
        emit_compressed: bool = False,
        kernel: str = "python",
    ):
        if model not in STEP_MODELS:
            raise ParameterError(
                f"step model must be one of {', '.join(STEP_MODELS)}, "
                f"got {model!r}"
            )
        if kernel not in STEP_KERNELS:
            raise ParameterError(
                f"step kernel must be one of {', '.join(STEP_KERNELS)}, "
                f"got {kernel!r}"
            )
        self._g = g
        self._adj = g.adj
        self._model = model
        self._emit_compressed = emit_compressed
        self.kernel = kernel
        #: bit universe of every CN string / tail bitmap of this graph —
        #: the full 64-bit word span, matching CompressedSubList.
        self._universe = WORD_BITS * int(g.adj.shape[1]) if g.n else 0
        self._n_groups = (self._universe + 30) // 31
        self._rows: list[list[int] | None] = [None] * g.n
        #: numpy-kernel adjacency cache: an SoA ``(words, offsets,
        #: slot)`` triple where ``slot[v]`` is row ``v``'s stream id
        #: (-1 while uncached).  Replaced atomically as a whole tuple,
        #: so lock-free readers always see a consistent snapshot.
        self._np_cache: tuple[np.ndarray, np.ndarray, np.ndarray] = (
            np.empty(0, dtype=np.uint32),
            np.zeros(1, dtype=np.int64),
            np.full(g.n, -1, dtype=np.int64),
        )
        self._rows_compressed = 0
        self._scratches: list[WahScratch] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        # the ambient tracer, captured once per expander (== per run);
        # the disabled plane costs one None check per step
        tracer = get_observability().tracer
        self._tracer = tracer if tracer.enabled else None

    # -- shared state --------------------------------------------------------

    def _row_words(self, v: int) -> list[int]:
        """The WAH words of vertex ``v``'s adjacency row (cached)."""
        row = self._rows[v]
        if row is None:
            words = WahBitmap.from_words(self._adj[v]).wah_words().tolist()
            with self._lock:
                if self._rows[v] is None:
                    self._rows[v] = words
                    self._rows_compressed += 1
                row = self._rows[v]
        return row

    def _np_rows_for(
        self, verts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """An SoA snapshot of the adjacency-row cache covering ``verts``.

        Returns ``(words, offsets, slot)``; rows not yet cached are
        batch-encoded under the lock first.  Snapshots are append-only,
        so a slot id stays valid in every later snapshot.
        """
        words, offsets, slot = self._np_cache
        verts = np.unique(verts)
        missing = verts[slot[verts] < 0]
        if missing.size:
            with self._lock:
                words, offsets, slot = self._np_cache
                missing = missing[slot[missing] < 0]
                if missing.size:
                    new_w, new_o = batch_encode_words(
                        self._adj[missing], self._universe
                    )
                    base = offsets.size - 1
                    offsets = np.concatenate(
                        (offsets, new_o[1:] + offsets[-1])
                    )
                    words = np.concatenate((words, new_w))
                    slot = slot.copy()
                    slot[missing] = base + np.arange(missing.size)
                    self._np_cache = (words, offsets, slot)
                    self._rows_compressed += int(missing.size)
        return words, offsets, slot

    def _scratch(self) -> WahScratch:
        """This thread's kernel workspace (created on first use)."""
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = WahScratch()
            self._local.scratch = scratch
            with self._lock:
                self._scratches.append(scratch)
        return scratch

    def stats(self) -> dict:
        """Telemetry for ``EnumerationResult.domain_stats``.

        Read after the run (the threads backend joins its pool at every
        level barrier, so worker scratches are quiescent by then).
        """
        with self._lock:
            return {
                "kernel_word_ops": sum(
                    s.word_ops for s in self._scratches
                ),
                "kernel_ands": sum(s.and_ops for s in self._scratches),
                "adj_rows_compressed": self._rows_compressed,
            }

    # -- the generation step -------------------------------------------------

    def step(
        self,
        sublists: list,
        g: Graph,
        counters: OpCounters,
        emit: Callable[[tuple[int, ...]], None],
    ) -> list:
        """One ``GenerateKCliques`` step in the compressed domain.

        Matches the engine's ``GenerationStep`` signature; ``g`` must be
        the graph the expander was built for.
        """
        if self._tracer is None:
            return self._dispatch(sublists, counters, emit)
        with self._tracer.span(
            "expand",
            kernel=self.kernel,
            model=self._model,
            parents=len(sublists),
        ) as span:
            children = self._dispatch(sublists, counters, emit)
            span.set(children=len(children))
            return children

    def _dispatch(
        self,
        sublists: list,
        counters: OpCounters,
        emit: Callable[[tuple[int, ...]], None],
    ) -> list:
        """Route one chunk to the configured kernel/model pair."""
        if self.kernel == "numpy":
            if self._model == "pairs":
                return self._step_pairs_np(sublists, counters, emit)
            return self._step_bitscan_np(sublists, counters, emit)
        if isinstance(sublists, CompressedLevelBatch):
            # the python kernels work per entry; round-trip through the
            # entry form so batch-streaming stores can still select them
            # (requires emit_compressed — a batch is a compressed level)
            entries = sublists.to_entries()
            if self._model == "pairs":
                children = self._step_pairs(entries, counters, emit)
            else:
                children = self._step_bitscan(entries, counters, emit)
            batch = CompressedLevelBatch.from_entries(children)
            if not children:
                batch = CompressedLevelBatch.empty(self._universe)
            return batch
        if self._model == "pairs":
            return self._step_pairs(sublists, counters, emit)
        return self._step_bitscan(sublists, counters, emit)

    def _unpack(self, sl) -> tuple[list[int], list[int] | None, object]:
        """``(tails, cn_wah, cn_words)`` whatever the sub-list form.

        ``cn_wah`` is ``None`` for uncompressed input — compressed
        lazily by the caller only when the sub-list produces children.
        """
        if isinstance(sl, CompressedSubList):
            return (
                list(sl.tails.iter_indices()),
                sl.cn.wah_words().tolist(),
                None,
            )
        return sl.tails.tolist(), None, sl.cn_words

    def _child(
        self,
        prefix: tuple[int, ...],
        v: int,
        cand: list[int],
        child_cn: list[int],
        cn_words,
    ):
        """Build one retained child sub-list in the configured form."""
        if self._emit_compressed:
            universe = self._universe
            return CompressedSubList(
                prefix=prefix,
                n_tails=len(cand),
                tails=WahBitmap(
                    universe, wah_from_sorted_indices(universe, cand)
                ),
                cn=WahBitmap(universe, list(child_cn)),
            )
        if cn_words is None:  # compressed input, uncompressed output
            child_words = WahBitmap(
                self._universe, list(child_cn)
            ).to_words()
        else:
            child_words = cn_words & self._adj[v]
        return CliqueSubList(
            prefix=prefix,
            tails=np.asarray(cand, dtype=np.int64),
            cn_words=child_words,
        )

    def _step_pairs(self, sublists, counters, emit) -> list:
        """The tail-list model: counters match ``generate_next_level``."""
        out: list = []
        scratch = self._scratch()
        n_groups = self._n_groups
        adj = self._adj
        for sl in sublists:
            tails, cn_wah, cn_words = self._unpack(sl)
            t = len(tails)
            if t < 2:
                continue
            counters.pair_checks += t * (t - 1) // 2
            for i in range(t - 1):
                v = tails[i]
                row_v = adj[v]
                partners = [
                    u
                    for u in tails[i + 1:]
                    if (int(row_v[u >> 6]) >> (u & 63)) & 1
                ]
                if not partners:
                    continue
                counters.bit_and_ops += 1  # child CN derivation
                if cn_wah is None:
                    cn_wah = WahBitmap.from_words(
                        cn_words
                    ).wah_words().tolist()
                child_cn = wah_and_into(
                    cn_wah, self._row_words(v), n_groups, scratch
                )
                child_prefix = sl.prefix + (v,)
                cand: list[int] = []
                for u in partners:
                    counters.cliques_generated += 1
                    counters.bit_and_ops += 1
                    counters.bit_exist_checks += 1
                    if wah_and_any(
                        child_cn, self._row_words(u), n_groups, scratch
                    ):
                        cand.append(u)
                    else:
                        counters.maximal_emitted += 1
                        emit(child_prefix + (u,))
                if len(cand) > 1:
                    counters.sublists_created += 1
                    out.append(
                        self._child(
                            child_prefix, v, cand, child_cn, cn_words
                        )
                    )
        return out

    # -- the numpy (structure-of-arrays) kernels -----------------------------

    def _np_load(self, sublists):
        """Normalise one level chunk into SoA form for the batch kernels.

        Accepts a list of :class:`CliqueSubList`, a list of
        :class:`CompressedSubList`, or a :class:`CompressedLevelBatch`,
        and returns ``(prefixes, tails, cn_words, cn_offsets, kind)``
        where ``tails`` holds one ascending ``int64`` index array per
        sub-list and ``kind`` names the input form (``"raw"`` /
        ``"entries"`` / ``"batch"``) so children can be materialised to
        match.  Sub-lists with fewer than two tails are dropped here:
        neither step model can derive anything from them.
        """
        ng, universe = self._n_groups, self._universe
        if isinstance(sublists, CompressedLevelBatch):
            tw, to = sublists.tails_words, sublists.tails_offsets
            cw, co = sublists.cn_words, sublists.cn_offsets
            prefixes = list(sublists.prefixes)
            keep = np.flatnonzero(sublists.n_tails >= 2)
            filtered = keep.size < len(prefixes)
            if filtered:
                cw, co = take_streams(cw, co, keep)
                prefixes = [prefixes[i] for i in keep.tolist()]
            if sublists.tails_idx is not None:
                # the producing step cached its decoded tails — slice
                # the kept streams straight out of the cache
                flat, offs = sublists.tails_idx
                tails = [
                    flat[offs[i]:offs[i + 1]] for i in keep.tolist()
                ]
            else:
                if filtered:
                    tw, to = take_streams(tw, to, keep)
                flat, offs = batch_decode_indices(tw, to, ng, universe)
                tails = [
                    flat[offs[i]:offs[i + 1]]
                    for i in range(len(prefixes))
                ]
            return prefixes, tails, cw, co, "batch"
        sublists = [sl for sl in sublists if len(sl) >= 2]
        if not sublists:
            return (
                [],
                [],
                np.empty(0, dtype=np.uint32),
                np.zeros(1, dtype=np.int64),
                "raw",
            )
        if isinstance(sublists[0], CompressedSubList):
            tw, to = concat_streams(
                [e.tails.wah_words() for e in sublists]
            )
            flat, offs = batch_decode_indices(tw, to, ng, universe)
            tails = [
                flat[offs[i]:offs[i + 1]] for i in range(len(sublists))
            ]
            cw, co = concat_streams([e.cn.wah_words() for e in sublists])
            return [e.prefix for e in sublists], tails, cw, co, "entries"
        cw, co = batch_encode_words(
            np.stack([sl.cn_words for sl in sublists]), universe
        )
        return (
            [sl.prefix for sl in sublists],
            [sl.tails for sl in sublists],
            cw,
            co,
            "raw",
        )

    def _np_children(self, kind, out_prefixes, out_cands, parts):
        """Materialise retained children in the form matching ``kind``.

        ``parts`` holds per-batch SoA fragments of the kept child CN
        streams, in emission order; ``out_cands`` the matching ascending
        tail-index arrays.
        """
        universe, ng = self._universe, self._n_groups
        if not out_prefixes:
            return (
                CompressedLevelBatch.empty(universe)
                if kind == "batch"
                else []
            )
        words = np.concatenate([w for w, _ in parts])
        lens = np.concatenate([np.diff(o) for _, o in parts])
        offsets = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        if kind == "raw":
            mats = batch_decode_words(words, offsets, ng, universe)
            return [
                CliqueSubList(
                    prefix=out_prefixes[i],
                    tails=out_cands[i],
                    cn_words=mats[i],
                )
                for i in range(len(out_prefixes))
            ]
        counts = np.fromiter(
            (c.size for c in out_cands),
            dtype=np.int64,
            count=len(out_cands),
        )
        idx_offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=idx_offsets[1:])
        flat_cands = np.concatenate(out_cands)
        tw, to = batch_encode_indices(flat_cands, idx_offsets, universe)
        if kind == "batch":
            return CompressedLevelBatch(
                prefixes=tuple(out_prefixes),
                universe=universe,
                n_tails=counts,
                tails_words=tw,
                tails_offsets=to,
                cn_words=words,
                cn_offsets=offsets,
                tails_idx=(flat_cands, idx_offsets),
            )
        return [
            CompressedSubList(
                prefix=out_prefixes[i],
                n_tails=int(counts[i]),
                tails=WahBitmap._trusted(universe, tw[to[i]:to[i + 1]]),
                cn=WahBitmap._trusted(
                    universe, words[offsets[i]:offsets[i + 1]]
                ),
            )
            for i in range(len(out_prefixes))
        ]

    def _step_pairs_np(self, sublists, counters, emit):
        """The tail-list model on the batch kernels.

        Mirrors :meth:`_step_pairs` (and the in-core bitset step's
        ``PAIR_BATCH`` charging structure): counters, emitted cliques,
        and children are byte-identical to the python kernel's.
        """
        prefixes, tails, cn_w, cn_o, kind = self._np_load(sublists)
        scratch = self._scratch()
        out_prefixes: list[tuple[int, ...]] = []
        out_cands: list[np.ndarray] = []
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        n_lists = len(prefixes)
        start = 0
        while start < n_lists:
            end, budget = start, 0
            while end < n_lists:
                t = int(tails[end].size)
                pairs = t * (t - 1) // 2
                if end > start and budget + pairs > PAIR_BATCH:
                    break
                budget += pairs
                end += 1
            self._pairs_batch_np(
                start, end, prefixes, tails, cn_w, cn_o,
                counters, emit, scratch, out_prefixes, out_cands, parts,
            )
            start = end
        return self._np_children(kind, out_prefixes, out_cands, parts)

    def _pairs_batch_np(
        self, lo, hi, prefixes, tails, cn_w, cn_o,
        counters, emit, scratch, out_prefixes, out_cands, parts,
    ):
        """Expand sub-lists ``[lo, hi)`` as one vectorised pair batch."""
        ng = self._n_groups
        flat = np.concatenate(tails[lo:hi])
        counts = np.fromiter(
            (t.size for t in tails[lo:hi]), dtype=np.int64, count=hi - lo
        )
        offsets = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        first, second = tail_pairs(offsets)
        all_vi = flat[first]
        all_vj = flat[second]
        all_sid = lo + np.repeat(np.arange(hi - lo), counts)[first]
        counters.pair_checks += int(all_vi.size)
        if not all_vi.size:
            return
        adjacent = (
            self._adj[all_vi, all_vj >> 6]
            >> (all_vj & 63).astype(np.uint64)
        ) & np.uint64(1)
        mask = adjacent.astype(bool)
        if not mask.any():
            return
        pvi, pvj, psid = all_vi[mask], all_vj[mask], all_sid[mask]
        n_pairs = int(pvi.size)
        counters.cliques_generated += n_pairs
        counters.bit_and_ops += n_pairs
        counters.bit_exist_checks += n_pairs
        # parent groups: one child-CN derivation per distinct (sl, vi)
        boundary = np.empty(n_pairs, dtype=bool)
        boundary[0] = True
        np.logical_or(
            psid[1:] != psid[:-1], pvi[1:] != pvi[:-1], out=boundary[1:]
        )
        starts = np.flatnonzero(boundary)
        group_of = np.cumsum(boundary) - 1
        n_groups_here = int(starts.size)
        counters.bit_and_ops += n_groups_here
        gvi, gsid = pvi[starts], psid[starts]
        rw, ro, slot = self._np_rows_for(np.concatenate((gvi, pvj)))
        aw, ao = take_streams(cn_w, cn_o, gsid)
        bw, bo = take_streams(rw, ro, slot[gvi])
        chw, cho = batch_and(aw, ao, bw, bo, ng)
        scratch.and_ops += n_groups_here
        scratch.word_ops += int(ao[-1] + bo[-1] + cho[-1])
        # BitOneExists(child_cn & adj[vj]) for every generated clique
        taw, tao = take_streams(chw, cho, group_of)
        tbw, tbo = take_streams(rw, ro, slot[pvj])
        nonmax = batch_and_any(taw, tao, tbw, tbo, ng)
        scratch.and_ops += n_pairs
        scratch.word_ops += int(tao[-1] + tbo[-1])
        n_nonmax = np.add.reduceat(nonmax.astype(np.int64), starts)
        ends = np.append(starts[1:], n_pairs)
        pvj_l, nonmax_l = pvj.tolist(), nonmax.tolist()
        starts_l, ends_l = starts.tolist(), ends.tolist()
        kept: list[int] = []
        for gi in range(n_groups_here):
            s, e = starts_l[gi], ends_l[gi]
            nm = int(n_nonmax[gi])
            size = e - s
            if nm == size and nm <= 1:
                continue
            child_prefix = prefixes[int(gsid[gi])] + (int(gvi[gi]),)
            if nm < size:
                for idx in range(s, e):
                    if not nonmax_l[idx]:
                        counters.maximal_emitted += 1
                        emit(child_prefix + (pvj_l[idx],))
            if nm > 1:
                counters.sublists_created += 1
                kept.append(gi)
                out_prefixes.append(child_prefix)
                out_cands.append(pvj[s:e][nonmax[s:e]])
        if kept:
            parts.append(
                take_streams(chw, cho, np.asarray(kept, dtype=np.int64))
            )

    def _step_bitscan_np(self, sublists, counters, emit):
        """The bit-scan model on the batch kernels.

        Mirrors :meth:`_step_bitscan` — including the documented
        full-``n`` ``bits_scanned`` cost accounting — with the partner
        scan running as one ``batch_indices_above`` per parent chunk.
        """
        prefixes, tails, cn_w, cn_o, kind = self._np_load(sublists)
        scratch = self._scratch()
        out_prefixes: list[tuple[int, ...]] = []
        out_cands: list[np.ndarray] = []
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        n_lists = len(prefixes)
        cap = max(64, _BITSCAN_BITS_BUDGET // max(self._universe, 64))
        start = 0
        while start < n_lists:
            end, n_parents = start, 0
            while end < n_lists:
                p = int(tails[end].size) - 1
                if end > start and n_parents + p > cap:
                    break
                n_parents += p
                end += 1
            self._bitscan_batch_np(
                start, end, prefixes, tails, cn_w, cn_o,
                counters, emit, scratch, out_prefixes, out_cands, parts,
            )
            start = end
        return self._np_children(kind, out_prefixes, out_cands, parts)

    def _bitscan_batch_np(
        self, lo, hi, prefixes, tails, cn_w, cn_o,
        counters, emit, scratch, out_prefixes, out_cands, parts,
    ):
        """Expand sub-lists ``[lo, hi)`` as one vectorised parent batch."""
        ng, universe = self._n_groups, self._universe
        psid = np.concatenate(
            [
                np.full(tails[s].size - 1, s, dtype=np.int64)
                for s in range(lo, hi)
            ]
        )
        pvi = np.concatenate([tails[s][:-1] for s in range(lo, hi)])
        n_parents = int(pvi.size)
        if not n_parents:
            return
        # one child-CN AND and one full-n scan charged per parent,
        # whatever representation runs it — the documented cost model
        counters.bit_and_ops += n_parents
        counters.extra["bits_scanned"] = (
            counters.extra.get("bits_scanned", 0) + self._g.n * n_parents
        )
        rw, ro, slot = self._np_rows_for(pvi)
        aw, ao = take_streams(cn_w, cn_o, psid)
        bw, bo = take_streams(rw, ro, slot[pvi])
        chw, cho = batch_and(aw, ao, bw, bo, ng)
        scratch.and_ops += n_parents
        scratch.word_ops += int(ao[-1] + bo[-1] + cho[-1])
        flat_p, p_off = batch_indices_above(chw, cho, ng, universe, pvi)
        n_partners = int(flat_p.size)
        if not n_partners:
            return
        counters.cliques_generated += n_partners
        counters.bit_and_ops += n_partners
        counters.bit_exist_checks += n_partners
        parent_of = np.repeat(
            np.arange(n_parents, dtype=np.int64), np.diff(p_off)
        )
        rw, ro, slot = self._np_rows_for(flat_p)
        taw, tao = take_streams(chw, cho, parent_of)
        tbw, tbo = take_streams(rw, ro, slot[flat_p])
        nonmax = batch_and_any(taw, tao, tbw, tbo, ng)
        scratch.and_ops += n_partners
        scratch.word_ops += int(tao[-1] + tbo[-1])
        flat_l, nonmax_l = flat_p.tolist(), nonmax.tolist()
        p_off_l = p_off.tolist()
        kept: list[int] = []
        for p in range(n_parents):
            s, e = p_off_l[p], p_off_l[p + 1]
            if s == e:
                continue
            sub_nm = nonmax[s:e]
            nm = int(sub_nm.sum())
            size = e - s
            if nm == size and nm <= 1:
                continue
            child_prefix = prefixes[int(psid[p])] + (int(pvi[p]),)
            if nm < size:
                for idx in range(s, e):
                    if not nonmax_l[idx]:
                        counters.maximal_emitted += 1
                        emit(child_prefix + (flat_l[idx],))
            if nm > 1:
                counters.sublists_created += 1
                kept.append(p)
                out_prefixes.append(child_prefix)
                out_cands.append(flat_p[s:e][sub_nm])
        if kept:
            parts.append(
                take_streams(chw, cho, np.asarray(kept, dtype=np.int64))
            )

    def _step_bitscan(self, sublists, counters, emit) -> list:
        """The bit-scan model: counters match
        ``generate_next_level_bitscan`` (including ``bits_scanned``),
        but the partner scan fill-skips the compressed words instead of
        visiting all ``n`` bits."""
        out: list = []
        scratch = self._scratch()
        n_groups = self._n_groups
        n = self._g.n
        for sl in sublists:
            tails, cn_wah, cn_words = self._unpack(sl)
            if len(tails) < 2:
                continue
            if cn_wah is None:
                cn_wah = WahBitmap.from_words(
                    cn_words
                ).wah_words().tolist()
            for v in tails[:-1]:
                counters.bit_and_ops += 1
                child_cn = wah_and_into(
                    cn_wah, self._row_words(v), n_groups, scratch
                )
                # the documented bitscan cost model charges the full
                # n-bit scan per child, whatever representation ran it
                counters.extra["bits_scanned"] = (
                    counters.extra.get("bits_scanned", 0) + n
                )
                partners = list(wah_indices_above(child_cn, v))
                if not partners:
                    continue
                counters.cliques_generated += len(partners)
                counters.bit_and_ops += len(partners)
                counters.bit_exist_checks += len(partners)
                child_prefix = sl.prefix + (v,)
                cand: list[int] = []
                for u in partners:
                    if wah_and_any(
                        child_cn, self._row_words(u), n_groups, scratch
                    ):
                        cand.append(u)
                    else:
                        counters.maximal_emitted += 1
                        emit(child_prefix + (u,))
                if len(cand) > 1:
                    counters.sublists_created += 1
                    out.append(
                        self._child(
                            child_prefix, v, cand, child_cn, cn_words
                        )
                    )
        return out
