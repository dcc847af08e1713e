"""Level-store substrate tests: the single-pass contract, the WAH
compressed store, and the ``level_store`` policy threading through
config, registry, facade, and cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import bitset as bs
from repro.core.generators import erdos_renyi, overlapping_cliques
from repro.core.sublist import (
    CliqueLevelBatch,
    CliqueSubList,
    CompressedLevelBatch,
    CompressedSubList,
)
from repro.engine import (
    LEVEL_STORES,
    CompressedLevelStore,
    DiskLevelStore,
    EnumerationConfig,
    EnumerationEngine,
    LevelStore,
    MemoryLevelStore,
    get_backend,
    run_enumeration,
)
from repro.errors import LevelStoreError, ParameterError
from repro.service.cache import ResultCache

ENGINE = EnumerationEngine()

#: the backends that run the shared level loop over a pluggable store.
STORE_BACKENDS = ("incore", "bitscan", "ooc", "threads")


def _sl(prefix, tails, n=256):
    return CliqueSubList(
        prefix=tuple(prefix),
        tails=np.asarray(tails, dtype=np.int64),
        cn_words=bs.indices_to_words(tails, n),
    )


def _stores(tmp_path, chunk_size=256):
    return {
        "memory": MemoryLevelStore(),
        "disk": DiskLevelStore(tmp_path, chunk_size),
        "wah": CompressedLevelStore(chunk_size),
    }


def _batch(first: int, count: int) -> CliqueLevelBatch:
    """``count`` level-2 sub-lists with prefixes ``first, first + 1...``"""
    if not count:
        return CliqueLevelBatch.empty(2, bs.n_words(256))
    return CliqueLevelBatch.from_sublists(
        [_sl([v], [v + 1, v + 2, v + 3]) for v in range(first, first + count)]
    )


def _rows(chunks) -> list[tuple[int, ...]]:
    """Streamed batches as their sub-lists' prefixes, in order."""
    return [sl.prefix for chunk in chunks for sl in chunk.to_sublists()]


class TestSinglePassContract:
    """Regression: a second stream() used to silently replay the whole
    level (MemoryLevelStore), double-counting expansion."""

    @pytest.mark.parametrize("name", LEVEL_STORES)
    def test_second_stream_raises(self, name, tmp_path):
        store = _stores(tmp_path)[name]
        store.append(_batch(0, 1))
        assert sum(len(c) for c in store.stream()) == 1
        with pytest.raises(LevelStoreError, match="twice"):
            store.stream()
        store.close()

    @pytest.mark.parametrize("name", LEVEL_STORES)
    def test_second_stream_raises_even_unconsumed(self, name, tmp_path):
        """The violation is detected at call time, not first-next."""
        store = _stores(tmp_path)[name]
        store.append(_batch(0, 1))
        store.stream()  # never iterated
        with pytest.raises(LevelStoreError):
            store.stream()
        store.close()

    @pytest.mark.parametrize("name", LEVEL_STORES)
    def test_append_after_stream_raises(self, name, tmp_path):
        store = _stores(tmp_path)[name]
        store.append(_batch(0, 1))
        list(store.stream())
        with pytest.raises(LevelStoreError, match="single-pass"):
            store.append(_batch(1, 1))
        store.close()

    @pytest.mark.parametrize("name", LEVEL_STORES)
    def test_close_stays_idempotent(self, name, tmp_path):
        store = _stores(tmp_path)[name]
        store.append(_batch(0, 1))
        store.close()
        store.close()


class TestBatchedStores:
    """The one store interface — ``append(batch)`` / ``stream()`` —
    on every store: same accounting, same order, same single-pass
    contract."""

    @pytest.mark.parametrize("name", LEVEL_STORES)
    def test_accounting_equals_per_sublist_appends(self, name, tmp_path):
        store = _stores(tmp_path)[name]
        parts = (_batch(0, 5), _batch(5, 3))
        for part in parts:
            store.append(part)
        sublists = [sl for part in parts for sl in part.to_sublists()]
        raw = sum(sl.nbytes() for sl in sublists)
        assert len(store) == store.n_sublists == 8
        assert store.n_candidates == sum(len(sl) for sl in sublists)
        if name == "wah":
            assert store.uncompressed_bytes == raw
            entries = [CompressedSubList.from_sublist(sl) for sl in sublists]
            assert store.candidate_bytes == sum(
                8 * len(e.prefix) + e.tails.nbytes() + e.cn.nbytes() + 8
                for e in entries
            )
        else:
            assert store.candidate_bytes == raw
        store.close()

    @pytest.mark.parametrize("name", LEVEL_STORES)
    def test_appends_stream_in_order(self, name, tmp_path):
        store = _stores(tmp_path, chunk_size=4)[name]
        store.append(_batch(0, 3))
        store.append(_batch(3, 0))  # empty: ignored
        store.append(_batch(3, 6))
        store.append(_batch(9, 2))
        assert len(store) == 11
        chunks = list(store.stream())
        assert all(isinstance(c, CliqueLevelBatch) for c in chunks)
        assert _rows(chunks) == [(v,) for v in range(11)]
        store.close()

    @pytest.mark.parametrize("name", LEVEL_STORES)
    def test_single_pass_across_both_methods(self, name, tmp_path):
        store = _stores(tmp_path)[name]
        store.append(_batch(0, 2))
        list(store.stream())
        with pytest.raises(LevelStoreError, match="twice"):
            store.stream()
        with pytest.raises(LevelStoreError, match="single-pass"):
            store.append(_batch(2, 1))
        with pytest.raises(LevelStoreError, match="single-pass"):
            store.append(_batch(3, 0))  # even an empty one
        store.close()

    def test_memory_holds_batches_as_appended(self):
        store = MemoryLevelStore()
        parts = [_batch(0, 4), _batch(4, 2)]
        for part in parts:
            store.append(part)
        assert list(store.stream()) == parts  # same objects

    def test_disk_spills_chunk_size_slices(self, tmp_path):
        store = DiskLevelStore(tmp_path, chunk_size=4)
        for first, count in ((0, 3), (3, 6), (9, 2)):
            store.append(_batch(first, count))
        chunks = list(store.stream())
        assert [len(c) for c in chunks] == [4, 4, 3]
        assert all(isinstance(c, CliqueLevelBatch) for c in chunks)
        assert _rows(chunks) == [(v,) for v in range(11)]
        assert store.stats.write_ops == store.stats.read_ops == 3
        assert store.stats.bytes_read == store.stats.bytes_written > 0
        assert not list(tmp_path.glob("*.spill"))
        store.close()


class TestCompressedLevelStore:
    def test_is_level_store(self):
        assert isinstance(CompressedLevelStore(), LevelStore)

    def test_accounting_matches_memory_counts(self):
        mem, wah = MemoryLevelStore(), CompressedLevelStore()
        for batch in (
            CliqueLevelBatch.from_sublists([_sl([0], [1, 2])]),
            CliqueLevelBatch.from_sublists([_sl([1], [2, 3, 4])]),
        ):
            mem.append(batch)
            wah.append(batch)
        assert wah.n_sublists == mem.n_sublists == 2
        assert wah.n_candidates == mem.n_candidates == 5
        assert wah.uncompressed_bytes == mem.candidate_bytes
        # the sparse 256-bit cn strings compress below the raw bytes
        assert wah.candidate_bytes < mem.candidate_bytes
        assert wah.compression_ratio() > 1

    def test_stream_roundtrips_sublists(self):
        store = CompressedLevelStore()
        items = [_sl([0], [1, 2]), _sl([1], [2, 3, 4]), _sl([2], [5, 9])]
        store.append(CliqueLevelBatch.from_sublists(items))
        streamed = [sl for chunk in store.stream()
                    for sl in chunk.to_sublists()]
        assert len(streamed) == len(items)
        for got, want in zip(streamed, items):
            assert got.prefix == want.prefix
            assert np.array_equal(got.tails, want.tails)
            assert np.array_equal(got.cn_words, want.cn_words)
        assert store.decompressed_bytes == store.uncompressed_bytes
        assert store.bypassed_bytes == 0

    def test_raw_batch_compressed_on_append(self):
        """A raw batch is compressed on the way in to the canonical
        words the per-entry encoder produces, and a pre-compressed
        batch is stored as-is with the same accounting."""
        items = [_sl([0], [1, 2]), _sl([1], [2, 3, 4]), _sl([2], [5, 9])]
        level = CliqueLevelBatch.from_sublists(items)
        raw = CompressedLevelStore(chunk_size=2, domain="wah")
        native = CompressedLevelStore(chunk_size=2, domain="wah")
        raw.append(level)
        native.append(CompressedLevelBatch.from_level(level))
        for attr in ("n_sublists", "n_candidates", "candidate_bytes",
                     "uncompressed_bytes"):
            assert getattr(raw, attr) == getattr(native, attr)
        (a,), (b,) = raw.stream(), native.stream()
        assert a.prefixes == b.prefixes
        for got, sl in zip(a.to_entries(), items):
            want = CompressedSubList.from_sublist(sl)
            assert got.tails == want.tails and got.cn == want.cn
        for name in ("n_tails", "tails_words", "tails_offsets",
                     "cn_words", "cn_offsets"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_stream_chunks_bound_decompression(self):
        """In the bitset domain at most ``chunk_size`` decoded rows are
        live per chunk, across append boundaries."""
        store = CompressedLevelStore(chunk_size=2)
        for i in range(5):
            store.append(_batch(i, 1))
        chunks = list(store.stream())
        assert [len(c) for c in chunks] == [2, 2, 1]
        assert all(isinstance(c, CliqueLevelBatch) for c in chunks)
        assert _rows(chunks) == [(v,) for v in range(5)]

    def test_empty_store_streams_nothing(self):
        assert list(CompressedLevelStore().stream()) == []

    def test_invalid_chunk_size(self):
        with pytest.raises(ParameterError):
            CompressedLevelStore(chunk_size=0)

    def test_invalid_domain(self):
        with pytest.raises(ParameterError, match="domain"):
            CompressedLevelStore(domain="raw")


class TestLevelStorePolicy:
    def test_constant_lists_stores(self):
        assert LEVEL_STORES == ("memory", "disk", "wah")

    def test_invalid_level_store_rejected_at_config(self):
        with pytest.raises(ParameterError, match="level_store"):
            EnumerationConfig(level_store="zip")

    def test_level_store_part_of_identity(self):
        a = EnumerationConfig(level_store="wah")
        b = EnumerationConfig()
        c = EnumerationConfig(level_store="wah")
        assert a != b
        assert a == c and hash(a) == hash(c)
        assert len({a, b, c}) == 2

    def test_registry_advertises_supported_stores(self):
        for backend in STORE_BACKENDS:
            assert get_backend(backend).level_stores == LEVEL_STORES
        assert get_backend("multiprocess").level_stores == ("memory",)

    def test_multiprocess_rejects_nondefault_store(self, triangle):
        with pytest.raises(ParameterError, match="does not support"):
            run_enumeration(
                triangle,
                EnumerationConfig(
                    backend="multiprocess", level_store="wah"
                ),
            )

    def test_multiprocess_accepts_memory_store(self, triangle):
        res = run_enumeration(
            triangle,
            EnumerationConfig(
                backend="multiprocess", level_store="memory", jobs=1
            ),
        )
        assert res.cliques == [(0, 1, 2)]

    def test_facade_rejects_store_on_storeless_backend(self, triangle):
        from repro.engine import register_backend, unregister_backend

        @register_backend("test-storeless")
        def run_storeless(g, config, on_clique=None):
            """Backend registered without level-store support."""
            raise AssertionError("must be rejected before dispatch")

        try:
            with pytest.raises(ParameterError, match="backend-managed"):
                run_enumeration(
                    triangle,
                    EnumerationConfig(
                        backend="test-storeless", level_store="memory"
                    ),
                )
        finally:
            unregister_backend("test-storeless")

    def test_spill_directory_rejected_off_disk_substrate(self, triangle):
        """A spill directory on the in-memory substrate fails before
        work, like every other inapplicable option."""
        for store in (None, "wah"):
            with pytest.raises(ParameterError, match="directory"):
                run_enumeration(
                    triangle,
                    EnumerationConfig(
                        backend="incore",
                        level_store=store,
                        options={"directory": "/tmp/x"},
                    ),
                )

    def test_incore_on_disk_substrate_accepts_spill_options(
        self, tmp_path
    ):
        g = erdos_renyi(30, 0.3, seed=6)
        res = run_enumeration(
            g,
            EnumerationConfig(
                backend="incore",
                k_min=2,
                level_store="disk",
                options={"directory": tmp_path, "chunk_size": 4},
            ),
        )
        ref = run_enumeration(g, EnumerationConfig(k_min=2))
        assert sorted(res.cliques) == sorted(ref.cliques)
        assert res.io is not None and res.io.bytes_written > 0
        assert list(tmp_path.glob("*.spill")) == []

    def test_ooc_on_wah_substrate_reports_no_io(self):
        g = erdos_renyi(25, 0.3, seed=7)
        res = run_enumeration(
            g,
            EnumerationConfig(backend="ooc", k_min=2, level_store="wah"),
        )
        assert res.io is None


class TestWahRuns:
    @pytest.fixture(scope="class")
    def sparse(self):
        g, _ = overlapping_cliques(
            400, [9, 8, 8, 7], 3, p=0.01, seed=13
        )
        return g

    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_wah_matches_memory_cliques(self, backend, sparse):
        ref = ENGINE.run(sparse, EnumerationConfig(k_min=3))
        res = ENGINE.run(
            sparse,
            EnumerationConfig(
                backend=backend, k_min=3, level_store="wah"
            ),
        )
        assert sorted(res.cliques) == sorted(ref.cliques)

    def test_wah_shrinks_the_figure9_peak(self, sparse):
        mem = ENGINE.run(
            sparse, EnumerationConfig(k_min=3, level_store="memory")
        )
        wah = ENGINE.run(
            sparse, EnumerationConfig(k_min=3, level_store="wah")
        )
        # N[k]/M[k] are substrate-independent; bytes are what shrink
        assert [
            (s.k, s.n_sublists, s.n_candidates) for s in mem.level_stats
        ] == [
            (s.k, s.n_sublists, s.n_candidates) for s in wah.level_stats
        ]
        assert 0 < wah.peak_candidate_bytes() < mem.peak_candidate_bytes()

    def test_wah_honours_byte_budget_on_compressed_footprint(self, sparse):
        from repro.errors import BudgetExceeded

        mem_peak = ENGINE.run(
            sparse, EnumerationConfig(k_min=3)
        ).peak_candidate_bytes()
        wah_peak = ENGINE.run(
            sparse, EnumerationConfig(k_min=3, level_store="wah")
        ).peak_candidate_bytes()
        # a budget between the two peaks kills the memory run but the
        # compressed run fits — the paper's whole point
        budget = (wah_peak + mem_peak) // 2
        with pytest.raises(BudgetExceeded):
            ENGINE.run(
                sparse,
                EnumerationConfig(k_min=3, max_candidate_bytes=budget),
            )
        res = ENGINE.run(
            sparse,
            EnumerationConfig(
                k_min=3, level_store="wah", max_candidate_bytes=budget
            ),
        )
        assert res.completed


class TestCacheKeyedByStore:
    def test_cache_distinguishes_level_store(self, triangle):
        cache = ResultCache()
        mem_cfg = EnumerationConfig(k_min=2)
        wah_cfg = EnumerationConfig(k_min=2, level_store="wah")
        first, hit1 = cache.run(ENGINE, triangle, mem_cfg)
        again, hit2 = cache.run(ENGINE, triangle, mem_cfg)
        other, hit3 = cache.run(ENGINE, triangle, wah_cfg)
        assert (hit1, hit2, hit3) == (False, True, False)
        assert again is first
        assert other is not first
        assert sorted(other.cliques) == sorted(first.cliques)
