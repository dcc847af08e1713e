"""The k-clique sub-list: the Clique Enumerator's working data structure.

Section 2.3 of the paper: "the k-cliques generated from a same (k-1)-clique
naturally form a sub-list consisting of the (k-1)-clique with a list of
common neighbors of this (k-1)-clique.  [...] to avoid the duplication of
cliques, only the common neighbors whose indices [are] higher than the
index of the (k-1)-th vertex need to be kept" and "the algorithm keeps the
common neighbors of the shared (k-1)-clique for each k-clique sub-list
instead of each k-clique, which avoids large memory requirement as well as
repetitive bit operations."

A :class:`CliqueSubList` therefore stores

* ``prefix`` — the shared (k-1)-clique, an ascending vertex tuple stored
  once for the whole sub-list,
* ``tails`` — the k-th vertices, ascending, all greater than
  ``prefix[-1]``; entry ``t`` represents the k-clique ``prefix + (t,)``,
* ``cn_words`` — the common-neighbor bit string of *the prefix* (not of
  each member clique), so a member's common neighbors cost one AND.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bitset import WORD_BITS
from repro.core.compressed import WahBitmap
from repro.core.wah_kernels import (
    batch_decode_indices,
    batch_decode_words,
    batch_encode_indices,
    batch_encode_words,
    concat_streams,
    take_streams,
)

__all__ = [
    "CliqueSubList",
    "CliqueLevelBatch",
    "CompressedSubList",
    "CompressedLevelBatch",
]


@dataclass(frozen=True)
class CliqueSubList:
    """One sub-list of candidate k-cliques sharing a (k-1)-clique prefix.

    Attributes
    ----------
    prefix:
        The shared (k-1)-clique, ascending vertex indices.
    tails:
        ``int64`` array of k-th vertices, ascending, each greater than
        ``prefix[-1]``.  ``len(tails)`` is the number of candidate
        k-cliques in the sub-list.
    cn_words:
        ``uint64`` bit-string words of the common neighbors of ``prefix``.
    """

    prefix: tuple[int, ...]
    tails: np.ndarray
    cn_words: np.ndarray

    @property
    def k(self) -> int:
        """Size of the cliques this sub-list holds."""
        return len(self.prefix) + 1

    def __len__(self) -> int:
        return int(self.tails.size)

    def cliques(self) -> list[tuple[int, ...]]:
        """Materialise the member k-cliques (for tests and debugging)."""
        return [self.prefix + (int(t),) for t in self.tails.tolist()]

    def nbytes(self, index_bytes: int = 8, pointer_bytes: int = 8) -> int:
        """Measured storage: prefix + tails + bit string + list pointer.

        Mirrors the paper's space accounting
        ``M[k]*c + N[k]*((k-1)*c + ceil(n/8)) + N[k]*sizeof(pointer)``
        contribution of a single sub-list with ``c = index_bytes``.
        """
        return (
            self.tails.size * index_bytes
            + len(self.prefix) * index_bytes
            + self.cn_words.nbytes
            + pointer_bytes
        )

    def work_estimate(self) -> int:
        """Units of generation work this sub-list will cost.

        Dominated by the pairwise adjacency checks among tails —
        ``O(|tails|^2)`` — plus one length-n AND per tail.  The load
        balancer (:mod:`repro.parallel.load_balancer`) divides sub-lists
        across threads by this estimate.
        """
        t = int(self.tails.size)
        return t * (t - 1) // 2 + t * max(1, self.cn_words.size // 8)

    def __repr__(self) -> str:
        return (
            f"CliqueSubList(prefix={self.prefix}, "
            f"tails={self.tails.tolist()[:8]}"
            f"{'...' if self.tails.size > 8 else ''}, k={self.k})"
        )


@dataclass(frozen=True)
class CliqueLevelBatch:
    """A level chunk of raw sub-lists, structure-of-arrays.

    The raw-bitset twin of :class:`CompressedLevelBatch`: instead of one
    :class:`CliqueSubList` object per sub-list, the chunk is four
    contiguous arrays, the layout the vectorised generation step
    (:func:`~repro.core.clique_enumerator.generate_next_level`) and the
    memory and disk level stores move around whole.

    Attributes
    ----------
    prefixes:
        ``(m, k-1)`` ``int64`` — row ``i`` is sub-list ``i``'s shared
        (k-1)-clique.
    offsets:
        ``(m+1,)`` ``int64``, starting at 0 — sub-list ``i`` owns
        ``tails[offsets[i]:offsets[i + 1]]``.
    tails:
        ``(M,)`` ``int64`` — every sub-list's ascending tails,
        concatenated in level order.
    cn_words:
        ``(m, W)`` ``uint64`` — row ``i`` is the common-neighbor bit
        string of ``prefixes[i]``.

    Examples
    --------
    >>> a = CliqueSubList((0,), np.array([1, 2]), np.array([6], np.uint64))
    >>> b = CliqueSubList((1,), np.array([2, 3]), np.array([12], np.uint64))
    >>> batch = CliqueLevelBatch.from_sublists([a, b])
    >>> len(batch), batch.k, batch.offsets.tolist(), batch.tails.tolist()
    (2, 2, [0, 2, 4], [1, 2, 2, 3])
    >>> batch.nbytes() == a.nbytes() + b.nbytes()
    True
    >>> [sl.prefix for sl in batch.to_sublists()]
    [(0,), (1,)]
    """

    prefixes: np.ndarray
    offsets: np.ndarray
    tails: np.ndarray
    cn_words: np.ndarray

    @property
    def k(self) -> int:
        """Size of the cliques this batch holds."""
        return int(self.prefixes.shape[1]) + 1

    def __len__(self) -> int:
        return int(self.prefixes.shape[0])

    @property
    def n_candidates(self) -> int:
        """Total candidate cliques in the batch (its share of ``M[k]``)."""
        return int(self.tails.size)

    def nbytes(self, index_bytes: int = 8, pointer_bytes: int = 8) -> int:
        """Sum of :meth:`CliqueSubList.nbytes` over the batch's
        sub-lists, byte for byte."""
        return (
            (self.tails.size + self.prefixes.size) * index_bytes
            + self.cn_words.nbytes
            + len(self) * pointer_bytes
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, k: int, n_words: int) -> "CliqueLevelBatch":
        """The zero-sub-list batch of k-cliques over ``n_words`` words."""
        return cls(
            prefixes=np.zeros((0, k - 1), dtype=np.int64),
            offsets=np.zeros(1, dtype=np.int64),
            tails=np.zeros(0, dtype=np.int64),
            cn_words=np.zeros((0, n_words), dtype=np.uint64),
        )

    @classmethod
    def from_sublists(
        cls, sublists: list[CliqueSubList]
    ) -> "CliqueLevelBatch":
        """Pack one level's sub-lists (all of the same ``k``) in order."""
        if not sublists:
            return cls.empty(1, 0)
        counts = np.fromiter(
            (sl.tails.size for sl in sublists),
            dtype=np.int64,
            count=len(sublists),
        )
        offsets = np.zeros(len(sublists) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            prefixes=np.array(
                [sl.prefix for sl in sublists], dtype=np.int64
            ).reshape(len(sublists), -1),
            offsets=offsets,
            tails=np.concatenate(
                [sl.tails for sl in sublists]
            ).astype(np.int64, copy=False),
            cn_words=np.stack([sl.cn_words for sl in sublists]),
        )

    @classmethod
    def concat(
        cls, batches: "list[CliqueLevelBatch]"
    ) -> "CliqueLevelBatch":
        """Join batches of the same ``k``, in order."""
        if len(batches) == 1:
            return batches[0]
        counts = np.concatenate([np.diff(b.offsets) for b in batches])
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            prefixes=np.concatenate([b.prefixes for b in batches]),
            offsets=offsets,
            tails=np.concatenate([b.tails for b in batches]),
            cn_words=np.concatenate([b.cn_words for b in batches]),
        )

    # -- conversions -------------------------------------------------------

    def slice(self, lo: int, hi: int) -> "CliqueLevelBatch":
        """Sub-lists ``[lo, hi)`` as their own batch (array views)."""
        start, stop = int(self.offsets[lo]), int(self.offsets[hi])
        return CliqueLevelBatch(
            prefixes=self.prefixes[lo:hi],
            offsets=self.offsets[lo:hi + 1] - start,
            tails=self.tails[start:stop],
            cn_words=self.cn_words[lo:hi],
        )

    def take(self, rows) -> "CliqueLevelBatch":
        """Sub-lists ``rows`` (any order, repeats allowed) as a new
        batch."""
        rows = np.asarray(rows, dtype=np.int64)
        tails, offsets = take_streams(self.tails, self.offsets, rows)
        return CliqueLevelBatch(
            self.prefixes[rows], offsets, tails, self.cn_words[rows]
        )

    def to_sublists(self) -> list[CliqueSubList]:
        """Per-sub-list view: tails and bit strings are views into the
        batch arrays."""
        off = self.offsets.tolist()
        tails, cn = self.tails, self.cn_words
        return [
            CliqueSubList(prefix, tails[off[i]:off[i + 1]], cn[i])
            for i, prefix in enumerate(map(tuple, self.prefixes.tolist()))
        ]

    def __repr__(self) -> str:
        return (
            f"CliqueLevelBatch(sublists={len(self)}, k={self.k}, "
            f"candidates={self.n_candidates})"
        )


@dataclass(frozen=True)
class CompressedSubList:
    """A :class:`CliqueSubList` with both arrays WAH-compressed.

    The paper closes by observing that the sparsity of the bitmap memory
    index "can potentially provide high compression rate"; this is the
    candidate representation that realises it.  Tails are ascending and
    unique, so they are losslessly held as a bitmap over the same
    vertex universe as the common-neighbor string — on sparse
    genome-scale graphs both compress to a handful of words.

    Attributes
    ----------
    prefix:
        The shared (k-1)-clique, stored uncompressed (it is k-1 small
        integers).
    n_tails:
        ``len(tails)``, cached so accounting never pays a
        compressed-domain :meth:`~repro.core.compressed.WahBitmap.count`.
    tails:
        Compressed bitmap of the k-th vertices.
    cn:
        Compressed common-neighbor string of ``prefix``.
    """

    prefix: tuple[int, ...]
    n_tails: int
    tails: WahBitmap
    cn: WahBitmap

    @classmethod
    def from_sublist(cls, sl: CliqueSubList) -> "CompressedSubList":
        """Compress one sub-list (universe = the cn word span)."""
        n_bits = WORD_BITS * int(sl.cn_words.size)
        return cls(
            prefix=sl.prefix,
            n_tails=int(sl.tails.size),
            tails=WahBitmap.from_indices(n_bits, sl.tails),
            cn=WahBitmap.from_words(sl.cn_words),
        )

    def __len__(self) -> int:
        return self.n_tails

    def __repr__(self) -> str:
        return (
            f"CompressedSubList(prefix={self.prefix}, "
            f"n_tails={self.n_tails}, "
            f"words={self.tails.compressed_words()}"
            f"+{self.cn.compressed_words()})"
        )


@dataclass(frozen=True)
class CompressedLevelBatch:
    """A whole level chunk of compressed sub-lists, structure-of-arrays.

    The batch counterpart of a ``list[CompressedSubList]``: instead of
    one Python object (and two :class:`~repro.core.compressed.WahBitmap`
    wrappers) per sub-list, the level chunk holds **two flat ``uint32``
    word arrays** — every tails stream concatenated, every CN stream
    concatenated — plus ``int64`` offset arrays, the layout the
    :mod:`repro.core.wah_kernels` batch kernels consume directly.  All
    streams share one bit universe (the graph's 64-bit-padded vertex
    span), so the batch AND / decode / encode kernels can treat the
    whole chunk as run-boundary arithmetic on two arrays.

    Attributes
    ----------
    prefixes:
        The shared (k-1)-clique of each sub-list, in level order.
    universe:
        Bit universe of every tails/CN stream (``64 * ceil(n / 64)``).
    n_tails:
        ``int64`` per-entry tail counts (cached like
        :attr:`CompressedSubList.n_tails`).
    tails_words / tails_offsets:
        SoA batch of the compressed tails bitmaps; stream ``i`` is
        ``tails_words[tails_offsets[i]:tails_offsets[i + 1]]``.
    cn_words / cn_offsets:
        SoA batch of the compressed common-neighbor strings.
    tails_idx:
        Optional decoded-tails cache ``(flat_idx, idx_offsets)`` —
        exactly what :func:`~repro.core.wah_kernels.
        batch_decode_indices` would return for the tails batch.
        Constructors that already hold the indices (the batch encoder,
        the numpy generation step) attach them so consumers never pay
        the round-trip decode; purely derived data, excluded from
        comparison and repr.
    """

    prefixes: tuple[tuple[int, ...], ...]
    universe: int
    n_tails: np.ndarray
    tails_words: np.ndarray
    tails_offsets: np.ndarray
    cn_words: np.ndarray
    cn_offsets: np.ndarray
    tails_idx: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )

    def decoded_tails(self) -> tuple[np.ndarray, np.ndarray]:
        """``(flat_idx, idx_offsets)`` of every tails stream, cached."""
        if self.tails_idx is not None:
            return self.tails_idx
        return batch_decode_indices(
            self.tails_words, self.tails_offsets,
            self.n_groups, self.universe,
        )

    def __len__(self) -> int:
        return len(self.prefixes)

    @property
    def n_groups(self) -> int:
        """Shared WAH group count of every stream in the batch."""
        return (self.universe + 30) // 31

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_level(cls, level: CliqueLevelBatch) -> "CompressedLevelBatch":
        """Batch-compress a raw level batch (one vectorised encode each
        way).

        Produces byte-identical streams to
        :meth:`CompressedSubList.from_sublist` entry by entry — the
        canonicalisation lives in one shared kernel — so accounting and
        storage measurements are independent of which path compressed a
        chunk.
        """
        universe = WORD_BITS * int(level.cn_words.shape[1])
        if not len(level):
            return cls.empty(universe)
        cn_words, cn_offsets = batch_encode_words(level.cn_words, universe)
        tails_words, tails_offsets = batch_encode_indices(
            level.tails, level.offsets, universe
        )
        return cls(
            prefixes=tuple(map(tuple, level.prefixes.tolist())),
            universe=universe,
            n_tails=np.diff(level.offsets),
            tails_words=tails_words,
            tails_offsets=tails_offsets,
            cn_words=cn_words,
            cn_offsets=cn_offsets,
            tails_idx=(level.tails, level.offsets),
        )

    @classmethod
    def from_entries(
        cls, entries: list[CompressedSubList]
    ) -> "CompressedLevelBatch":
        """Assemble a batch from per-entry compressed sub-lists."""
        if not entries:
            return cls.empty(0)
        universe = entries[0].cn.n
        tails_words, tails_offsets = concat_streams(
            [e.tails.wah_words() for e in entries]
        )
        cn_words, cn_offsets = concat_streams(
            [e.cn.wah_words() for e in entries]
        )
        return cls(
            prefixes=tuple(e.prefix for e in entries),
            universe=universe,
            n_tails=np.fromiter(
                (e.n_tails for e in entries),
                dtype=np.int64,
                count=len(entries),
            ),
            tails_words=tails_words,
            tails_offsets=tails_offsets,
            cn_words=cn_words,
            cn_offsets=cn_offsets,
        )

    @classmethod
    def concat(
        cls, batches: "list[CompressedLevelBatch]"
    ) -> "CompressedLevelBatch":
        """Concatenate batches over the same universe, in order.

        Pure array concatenation — streams are copied verbatim, never
        re-encoded — so the result is byte-for-byte the batch that would
        have been built from the combined entries.  The decoded-tails
        cache survives when every input carries one.
        """
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls.empty(0)

        def _cat(words, offsets):
            lens = np.concatenate([np.diff(o) for o in offsets])
            out = np.zeros(lens.size + 1, dtype=np.int64)
            np.cumsum(lens, out=out[1:])
            return np.concatenate(words), out

        tw, to = _cat(
            [b.tails_words for b in batches],
            [b.tails_offsets for b in batches],
        )
        cw, co = _cat(
            [b.cn_words for b in batches],
            [b.cn_offsets for b in batches],
        )
        idx = None
        if all(b.tails_idx is not None for b in batches):
            flat, offs = _cat(
                [b.tails_idx[0] for b in batches],
                [b.tails_idx[1] for b in batches],
            )
            idx = (flat, offs)
        return cls(
            prefixes=tuple(
                p for b in batches for p in b.prefixes
            ),
            universe=batches[0].universe,
            n_tails=np.concatenate([b.n_tails for b in batches]),
            tails_words=tw,
            tails_offsets=to,
            cn_words=cw,
            cn_offsets=co,
            tails_idx=idx,
        )

    @classmethod
    def empty(cls, universe: int) -> "CompressedLevelBatch":
        """The zero-entry batch over ``universe`` bits."""
        return cls(
            prefixes=(),
            universe=universe,
            n_tails=np.zeros(0, dtype=np.int64),
            tails_words=np.zeros(0, dtype=np.uint32),
            tails_offsets=np.zeros(1, dtype=np.int64),
            cn_words=np.zeros(0, dtype=np.uint32),
            cn_offsets=np.zeros(1, dtype=np.int64),
        )

    # -- conversions -------------------------------------------------------

    def to_entries(self) -> list[CompressedSubList]:
        """Per-entry view: ``CompressedSubList`` objects sharing the
        flat word arrays (zero word copies — the bitmap wrappers are
        read-only views into the batch)."""
        universe = self.universe
        to = self.tails_offsets
        co = self.cn_offsets
        tw = self.tails_words
        cw = self.cn_words
        tw.setflags(write=False)
        cw.setflags(write=False)
        return [
            CompressedSubList(
                prefix=self.prefixes[i],
                n_tails=int(self.n_tails[i]),
                tails=WahBitmap._trusted(
                    universe, tw[to[i]:to[i + 1]]
                ),
                cn=WahBitmap._trusted(universe, cw[co[i]:co[i + 1]]),
            )
            for i in range(len(self.prefixes))
        ]

    def take(self, rows) -> "CompressedLevelBatch":
        """Entries ``rows`` (any order, repeats allowed) as a new batch;
        streams are gathered verbatim, never re-encoded."""
        rows = np.asarray(rows, dtype=np.int64)
        tw, to = take_streams(self.tails_words, self.tails_offsets, rows)
        cw, co = take_streams(self.cn_words, self.cn_offsets, rows)
        idx = self.tails_idx
        if idx is not None:
            idx = take_streams(idx[0], idx[1], rows)
        return CompressedLevelBatch(
            prefixes=tuple(self.prefixes[i] for i in rows.tolist()),
            universe=self.universe,
            n_tails=self.n_tails[rows],
            tails_words=tw,
            tails_offsets=to,
            cn_words=cw,
            cn_offsets=co,
            tails_idx=idx,
        )

    def to_level(self) -> CliqueLevelBatch:
        """Batch-decompress a non-empty batch to the raw
        :class:`CliqueLevelBatch` form (two vectorised decodes)."""
        flat_idx, idx_offsets = self.decoded_tails()
        return CliqueLevelBatch(
            prefixes=np.array(self.prefixes, dtype=np.int64),
            offsets=idx_offsets,
            tails=flat_idx,
            cn_words=batch_decode_words(
                self.cn_words, self.cn_offsets, self.n_groups,
                self.universe,
            ),
        )

    # -- accounting --------------------------------------------------------

    def nbytes(self, index_bytes: int = 8, pointer_bytes: int = 8) -> int:
        """Measured compressed storage, comparable to
        :meth:`CliqueLevelBatch.nbytes`: prefixes, both compressed
        payloads and one list pointer per entry."""
        prefix_len = sum(len(p) for p in self.prefixes)
        return (
            prefix_len * index_bytes
            + 4 * int(self.tails_words.size + self.cn_words.size)
            + pointer_bytes * len(self.prefixes)
        )

    def uncompressed_nbytes(
        self, index_bytes: int = 8, pointer_bytes: int = 8
    ) -> int:
        """What :meth:`CliqueLevelBatch.nbytes` charges for the
        decompressed batch, computed without decompressing anything
        (every universe is a whole number of 64-bit words).  The
        baseline the compressed paths report as decompressed bytes or
        as decompressed bytes avoided."""
        prefix_len = sum(len(p) for p in self.prefixes)
        return (
            int(self.n_tails.sum()) * index_bytes
            + prefix_len * index_bytes
            + (self.universe // 8 + pointer_bytes) * len(self.prefixes)
        )

    def __repr__(self) -> str:
        return (
            f"CompressedLevelBatch(entries={len(self.prefixes)}, "
            f"universe={self.universe}, "
            f"words={int(self.tails_words.size + self.cn_words.size)})"
        )
