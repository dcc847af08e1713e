"""Level storage substrates for the unified enumeration loop.

The Clique Enumerator touches its candidate sub-lists in exactly one
pattern: append the whole next level, then stream it back once for
expansion.  :class:`LevelStore` captures that single-pass contract plus
the accounting the level loop needs (``N[k]``, ``M[k]``, measured bytes
— the paper's per-level statistics), so the storage substrate becomes a
policy choice (:attr:`repro.engine.config.EnumerationConfig.level_store`):

* :class:`MemoryLevelStore` — candidates stay in RAM as the
  :class:`~repro.core.sublist.CliqueLevelBatch` arrays the generation
  step produced, and stream back as those same batches, so the step
  keeps its full cross-sub-list batching (the paper's in-core mode);
* :class:`~repro.core.out_of_core.DiskLevelStore` — candidates spill to
  disk as ``chunk_size``-row slices of the batch arrays and stream back
  slice by slice with counted I/O (the retired out-of-core mode, kept
  measurable);
* :class:`CompressedLevelStore` — candidates held WAH-compressed as
  :class:`~repro.core.sublist.CompressedLevelBatch` arrays
  (:mod:`repro.core.compressed`), realising the paper's closing remark
  that the sparse bitmap index "can potentially provide high
  compression rate".

All are driven by the same loop in :mod:`repro.engine.level_loop`, and
a level crosses every store in one currency: a store takes whole
structure-of-arrays batches (``append``) and yields them back
(``stream``) — raw :class:`~repro.core.sublist.CliqueLevelBatch` chunks
for a ``"bitset"``-domain step, and on the WAH store in the ``"wah"``
domain the stored :class:`~repro.core.sublist.CompressedLevelBatch`
parts themselves.  All enforce the single-pass contract: a second
``stream()`` — or an ``append()`` once streaming began — raises
:class:`~repro.errors.LevelStoreError` instead of silently replaying or
corrupting the level.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator

import numpy as np

from repro.errors import LevelStoreError, ParameterError
from repro.core.clique_enumerator import INDEX_BYTES, POINTER_BYTES
from repro.core.out_of_core import DiskLevelStore
from repro.core.sublist import CliqueLevelBatch, CompressedLevelBatch

__all__ = [
    "LevelStore",
    "MemoryLevelStore",
    "DiskLevelStore",
    "CompressedLevelStore",
]

#: the compute domains a :class:`CompressedLevelStore` can stream for.
_DOMAINS = ("bitset", "wah")


class LevelStore(ABC):
    """Single-pass storage for one level of candidate sub-lists.

    Contract: ``append`` the complete level batch by batch, then
    ``stream`` it back exactly once (in insertion order, as batches),
    then ``close``.  The contract is enforced — a second ``stream()``
    or a late ``append()`` raises :class:`~repro.errors.LevelStoreError`.
    Empty batches are ignored.  The accounting properties must reflect
    everything appended so far; the level loop reads them for per-level
    statistics and memory budgets without materialising the level.
    """

    @abstractmethod
    def append(self, batch: CliqueLevelBatch) -> None:
        """Add one batch of sub-lists to the level."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored sub-lists."""

    @property
    @abstractmethod
    def n_sublists(self) -> int:
        """The paper's ``N[k]`` for this level."""

    @property
    @abstractmethod
    def n_candidates(self) -> int:
        """The paper's ``M[k]`` for this level."""

    @property
    @abstractmethod
    def candidate_bytes(self) -> int:
        """Measured candidate storage of this level, in bytes."""

    @abstractmethod
    def stream(self) -> Iterator[CliqueLevelBatch | CompressedLevelBatch]:
        """Yield the level back in insertion order, batch by batch."""

    @abstractmethod
    def close(self) -> None:
        """Release any backing resources; idempotent."""

    def __enter__(self) -> "LevelStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoryLevelStore(LevelStore):
    """In-memory level store: the level's batches with the paper's
    accounting.

    Appended batches are held as given, never concatenated, and
    streamed back one per part — on the level loop that is one batch
    for the whole level, so the generation step keeps its full
    cross-sub-list pair batching (``PAIR_BATCH``).
    """

    def __init__(self) -> None:
        self._parts: list[CliqueLevelBatch] = []
        self._n_sublists = 0
        self._n_candidates = 0
        self._candidate_bytes = 0
        self._streamed = False

    def append(self, batch: CliqueLevelBatch) -> None:
        """Add a whole batch of sub-lists, held as one part."""
        if self._streamed:
            raise LevelStoreError(
                "append() after stream(): the level store is single-pass"
            )
        if not len(batch):
            return
        self._parts.append(batch)
        self._n_sublists += len(batch)
        self._n_candidates += batch.n_candidates
        self._candidate_bytes += batch.nbytes(INDEX_BYTES, POINTER_BYTES)

    def __len__(self) -> int:
        return self._n_sublists

    @property
    def n_sublists(self) -> int:
        """The paper's ``N[k]`` for this level."""
        return self._n_sublists

    @property
    def n_candidates(self) -> int:
        """The paper's ``M[k]`` for this level."""
        return self._n_candidates

    @property
    def candidate_bytes(self) -> int:
        """Measured candidate storage of this level, in bytes."""
        return self._candidate_bytes

    def stream(self) -> Iterator[CliqueLevelBatch]:
        """Yield the level as batches, one per stored part."""
        if self._streamed:
            raise LevelStoreError(
                "stream() called twice on a single-pass level store"
            )
        self._streamed = True
        return iter(self._parts)

    def close(self) -> None:
        """Drop the level (parts are garbage-collected)."""
        self._parts = []


class CompressedLevelStore(LevelStore):
    """WAH-compressed in-memory level store — the paper's "work underway".

    Every appended batch is held as a
    :class:`~repro.core.sublist.CompressedLevelBatch` (a raw
    :class:`~repro.core.sublist.CliqueLevelBatch` is compressed on the
    way in, one vectorised encode per ``chunk_size`` sub-lists): tails
    and the common-neighbor strings become WAH word streams, so
    :attr:`candidate_bytes` — the figure the Figure-9 experiment and
    the ``max_candidate_bytes`` budget read — is the *compressed*
    footprint.  On sparse
    genome-scale graphs the deep-level common-neighbor strings are a
    few set bits in a universe of thousands, where WAH shrinks them by
    an order of magnitude.  The WAH encoding is canonical, so the
    stored words — and every accounting property — do not depend on
    which path compressed a batch.

    How the level streams back follows the run's compute ``domain``:

    * ``"bitset"`` — the stored batches are decoded ``chunk_size``
      sub-lists at a time into :class:`~repro.core.sublist.
      CliqueLevelBatch` chunks, so at most one chunk of full-width bit
      strings is live while the generation step expands the level;
      everything not yet streamed stays compressed;
    * ``"wah"`` — the stored batches are yielded joined into one
      compressed batch, never re-encoded, for the compressed-domain
      generation step
      (:class:`~repro.core.compressed_domain.CompressedExpander`), with
      zero decompression.

    The two counters :attr:`decompressed_bytes` / :attr:`bypassed_bytes`
    record which path each streamed byte took, feeding the run's
    ``domain_stats["decompressed_bytes"]`` /
    ``["decompressed_bytes_avoided"]`` telemetry.

    Parameters
    ----------
    chunk_size:
        Sub-lists decompressed per streamed chunk in the ``"bitset"``
        domain.  Larger chunks keep more of the generation step's
        cross-sub-list batching; smaller chunks bound the transient
        decompressed working set.
    domain:
        ``"bitset"`` (decompressing stream) or ``"wah"`` (compressed
        stream).
    """

    def __init__(self, chunk_size: int = 256, domain: str = "bitset"):
        if chunk_size < 1:
            raise ParameterError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        if domain not in _DOMAINS:
            raise ParameterError(
                f"domain must be 'bitset' or 'wah', got {domain!r}"
            )
        self.chunk_size = chunk_size
        self.domain = domain
        self._parts: list[CompressedLevelBatch] = []
        self._n_sublists = 0
        self._n_candidates = 0
        self._candidate_bytes = 0
        self._uncompressed_bytes = 0
        self._streamed = False
        #: raw sub-list bytes materialised by a ``"bitset"`` stream.
        self.decompressed_bytes = 0
        #: raw-equivalent bytes a ``"wah"`` stream handed over still
        #: compressed — the "decompressed bytes avoided".
        self.bypassed_bytes = 0

    def append(
        self, batch: CliqueLevelBatch | CompressedLevelBatch
    ) -> None:
        """Store a batch compressed; a raw batch is encoded
        ``chunk_size`` sub-lists at a time, which bounds the codec's
        transient bit matrices as the decoding stream does."""
        if self._streamed:
            raise LevelStoreError(
                "append() after stream(): the level store is single-pass"
            )
        if isinstance(batch, CompressedLevelBatch):
            self._hold(batch)
            return
        n, step = len(batch), self.chunk_size
        for lo in range(0, n, step):
            self._hold(CompressedLevelBatch.from_level(
                batch.slice(lo, min(lo + step, n))
            ))

    def _hold(self, batch: CompressedLevelBatch) -> None:
        if not len(batch):
            return
        self._parts.append(batch)
        self._n_sublists += len(batch)
        self._n_candidates += int(batch.n_tails.sum())
        self._candidate_bytes += batch.nbytes(INDEX_BYTES, POINTER_BYTES)
        self._uncompressed_bytes += batch.uncompressed_nbytes(
            INDEX_BYTES, POINTER_BYTES
        )

    def __len__(self) -> int:
        return self._n_sublists

    @property
    def n_sublists(self) -> int:
        """The paper's ``N[k]`` for this level."""
        return self._n_sublists

    @property
    def n_candidates(self) -> int:
        """The paper's ``M[k]`` for this level."""
        return self._n_candidates

    @property
    def candidate_bytes(self) -> int:
        """Measured *compressed* candidate storage, in bytes."""
        return self._candidate_bytes

    @property
    def uncompressed_bytes(self) -> int:
        """What :class:`MemoryLevelStore` would have charged for this
        level — the baseline for :meth:`compression_ratio`."""
        return self._uncompressed_bytes

    def compression_ratio(self) -> float:
        """Uncompressed bytes over compressed bytes (>= 1 means win)."""
        if not self._candidate_bytes:
            return 1.0
        return self._uncompressed_bytes / self._candidate_bytes

    def stream(self) -> Iterator[CliqueLevelBatch | CompressedLevelBatch]:
        """Yield the level in the store's domain (see the class doc)."""
        if self._streamed:
            raise LevelStoreError(
                "stream() called twice on a single-pass level store"
            )
        self._streamed = True
        return self._stream()

    def _stream(self) -> Iterator[CliqueLevelBatch | CompressedLevelBatch]:
        if not self._parts:
            return
        # the parts are joined once (compressed words only): the wah
        # step gets the whole level, and decoded chunks run across part
        # boundaries, so every chunk but the last is full
        level = CompressedLevelBatch.concat(self._parts)
        self._parts = []
        if self.domain == "wah":
            self.bypassed_bytes += level.uncompressed_nbytes(
                INDEX_BYTES, POINTER_BYTES
            )
            yield level
            return
        n, step = len(level), self.chunk_size
        for lo in range(0, n, step):
            chunk = level.take(np.arange(lo, min(lo + step, n))).to_level()
            self.decompressed_bytes += chunk.nbytes(
                INDEX_BYTES, POINTER_BYTES
            )
            yield chunk

    # perfbench/layers.py wraps these names as well as append/stream,
    # and perfbench/ stays fixed while the engine changes, so they are
    # kept as aliases of the one interface
    append_batch = append
    stream_batches = stream_entries = stream

    def close(self) -> None:
        """Drop the compressed level."""
        self._parts = []


# The disk substrate implements the same interface structurally; register
# it so isinstance(LevelStore) holds without making repro.core depend on
# the engine package.
LevelStore.register(DiskLevelStore)
