"""Tests for the out-of-core level store and driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clique_enumerator import enumerate_maximal_cliques
from repro.core.generators import erdos_renyi, planted_clique
from repro.core.out_of_core import (
    DiskLevelStore,
    IOStats,
    enumerate_maximal_cliques_ooc,
)
from repro.core.sublist import CliqueLevelBatch, CliqueSubList
from repro.errors import ParameterError


def _sl(prefix, tails, n=32):
    from repro.core import bitset as bs

    return CliqueSubList(
        prefix=tuple(prefix),
        tails=np.asarray(tails, dtype=np.int64),
        cn_words=bs.indices_to_words(tails, n),
    )


def _batch(*sublists):
    return CliqueLevelBatch.from_sublists(list(sublists))


class TestDiskLevelStore:
    def test_roundtrip(self, tmp_path):
        with DiskLevelStore(tmp_path, chunk_size=2) as store:
            items = [_sl([0], [1, 2]), _sl([1], [2, 3]), _sl([2], [3, 4])]
            store.append(_batch(*items[:1]))
            store.append(_batch(*items[1:]))
            assert len(store) == 3
            back = [
                sl for chunk in store.stream() for sl in chunk.to_sublists()
            ]
        assert [sl.prefix for sl in back] == [(0,), (1,), (2,)]
        assert all(
            np.array_equal(a.tails, b.tails)
            and np.array_equal(a.cn_words, b.cn_words)
            for a, b in zip(items, back)
        )

    def test_empty_store_streams_nothing(self, tmp_path):
        with DiskLevelStore(tmp_path) as store:
            store.append(CliqueLevelBatch.empty(2, 1))
            assert len(store) == 0
            assert list(store.stream()) == []

    def test_io_stats_counted(self, tmp_path):
        stats = IOStats()
        with DiskLevelStore(tmp_path, chunk_size=1, stats=stats) as store:
            store.append(_batch(_sl([0], [1, 2])))
            list(store.stream())
        assert stats.write_ops == 1
        assert stats.read_ops == 1
        assert stats.bytes_written > 0
        assert stats.bytes_read == stats.bytes_written
        assert stats.total_bytes == 2 * stats.bytes_written

    def test_chunking(self, tmp_path):
        stats = IOStats()
        with DiskLevelStore(tmp_path, chunk_size=4, stats=stats) as store:
            for i in range(10):
                store.append(_batch(_sl([i], [i + 1, i + 2])))
            chunks = list(store.stream())
        assert [len(c) for c in chunks] == [4, 4, 2]
        assert all(isinstance(c, CliqueLevelBatch) for c in chunks)
        assert stats.write_ops == 3

    def test_invalid_chunk_size(self):
        with pytest.raises(ParameterError):
            DiskLevelStore(chunk_size=0)

    def test_temp_dir_mode(self):
        with DiskLevelStore() as store:
            store.append(_batch(_sl([0], [1, 2])))
            assert len(list(store.stream())) == 1


class TestOocDriver:
    def test_matches_in_core(self, seeded_er):
        in_core = enumerate_maximal_cliques(seeded_er, k_min=2)
        ooc = enumerate_maximal_cliques_ooc(seeded_er, k_min=2)
        assert sorted(ooc.cliques) == sorted(in_core.cliques)

    def test_io_traffic_positive(self):
        g, _ = planted_clique(50, 9, 0.1, seed=6)
        ooc = enumerate_maximal_cliques_ooc(g)
        assert ooc.io.bytes_written > 0
        assert ooc.io.bytes_read > 0

    def test_init_k_seeding(self):
        g, _ = planted_clique(40, 8, 0.12, seed=3)
        in_core = enumerate_maximal_cliques(g, k_min=4)
        ooc = enumerate_maximal_cliques_ooc(g, k_min=4)
        assert sorted(ooc.cliques) == sorted(in_core.cliques)

    def test_k_max(self):
        g = erdos_renyi(25, 0.4, seed=1)
        in_core = enumerate_maximal_cliques(g, k_min=2, k_max=3)
        ooc = enumerate_maximal_cliques_ooc(g, k_max=3)
        assert sorted(ooc.cliques) == sorted(in_core.cliques)

    def test_callback_mode(self):
        g = erdos_renyi(20, 0.3, seed=2)
        seen: list[tuple[int, ...]] = []
        res = enumerate_maximal_cliques_ooc(g, on_clique=seen.append)
        assert res.cliques == []
        assert sorted(seen) == sorted(
            enumerate_maximal_cliques(g, k_min=2).cliques
        )

    def test_invalid_range(self):
        with pytest.raises(ParameterError):
            enumerate_maximal_cliques_ooc(
                erdos_renyi(5, 0.5, seed=0), k_min=4, k_max=3
            )

    def test_explicit_directory(self, tmp_path):
        g = erdos_renyi(20, 0.35, seed=5)
        res = enumerate_maximal_cliques_ooc(g, directory=tmp_path)
        assert res.io.bytes_written > 0
        # spill files are cleaned up after streaming
        assert list(tmp_path.glob("*.spill")) == []
