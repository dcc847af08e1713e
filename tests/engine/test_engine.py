"""Unit tests for the engine layer: config, registry, stores, facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import bitset as bs
from repro.core.generators import complete_graph, erdos_renyi
from repro.core.sublist import CliqueLevelBatch, CliqueSubList
from repro.engine import (
    DiskLevelStore,
    EnumerationConfig,
    EnumerationEngine,
    LevelStore,
    MemoryLevelStore,
    available_backends,
    backend_table,
    get_backend,
    register_backend,
    run_enumeration,
    unregister_backend,
)
from repro.errors import BudgetExceeded, ParameterError


def _sl(prefix, tails, n=32):
    return CliqueSubList(
        prefix=tuple(prefix),
        tails=np.asarray(tails, dtype=np.int64),
        cn_words=bs.indices_to_words(tails, n),
    )



#: every built-in registry entry (all fields but ``runner``), as
#: ``repro engines`` advertises them
_BUILTIN_BACKENDS = {
    "bitscan": {
        "description": "in-memory candidates, rejected n-bit-scan "
        "generation (ablation)",
        "storage": "memory",
        "parallel": False,
        "min_k_min": 1,
        "level_stores": ("memory", "disk", "wah"),
        "compute_domains": ("bitset", "wah"),
        "kernels": ("python", "numpy"),
    },
    "incore": {
        "description": "in-memory candidates, tail-list generation "
        "(the paper)",
        "storage": "memory",
        "parallel": False,
        "min_k_min": 1,
        "level_stores": ("memory", "disk", "wah"),
        "compute_domains": ("bitset", "wah"),
        "kernels": ("python", "numpy"),
    },
    "multiprocess": {
        "description": "partition-persistent worker processes with "
        "centralised load balancing",
        "storage": "memory",
        "parallel": True,
        "min_k_min": 1,
        "level_stores": ("memory",),
        "compute_domains": ("bitset",),
        "kernels": ("python",),
    },
    "ooc": {
        "description": "disk-spilled candidates per level, I/O counted "
        "(the retired out-of-core mode)",
        "storage": "disk",
        "parallel": False,
        "min_k_min": 1,
        "level_stores": ("memory", "disk", "wah"),
        "compute_domains": ("bitset",),
        "kernels": ("python", "numpy"),
    },
    "threads": {
        "description": "shared-memory worker threads with intra-level "
        "work stealing (the paper's Altix mode)",
        "storage": "memory",
        "parallel": True,
        "min_k_min": 1,
        "level_stores": ("memory", "disk", "wah"),
        "compute_domains": ("bitset", "wah"),
        "kernels": ("python", "numpy"),
    },
}

_ENGINES_STDOUT = (
    "backend       storage  level stores     domains     kernels       "
    "parallel  description\n"
    "bitscan       memory   memory,disk,wah  bitset,wah  python,numpy  "
    "no        in-memory candidates, rejected n-bit-scan generation "
    "(ablation)\n"
    "incore        memory   memory,disk,wah  bitset,wah  python,numpy  "
    "no        in-memory candidates, tail-list generation (the paper)\n"
    "multiprocess  memory   memory           bitset      python        "
    "yes       partition-persistent worker processes with centralised "
    "load balancing\n"
    "ooc           disk     memory,disk,wah  bitset      python,numpy  "
    "no        disk-spilled candidates per level, I/O counted (the "
    "retired out-of-core mode)\n"
    "threads       memory   memory,disk,wah  bitset,wah  python,numpy  "
    "yes       shared-memory worker threads with intra-level work "
    "stealing (the paper's Altix mode)\n"
)


class TestConfig:
    def test_defaults(self):
        cfg = EnumerationConfig()
        assert cfg.backend == "incore"
        assert cfg.k_min == 1
        assert cfg.k_max is None

    def test_invalid_k_min(self):
        with pytest.raises(ParameterError):
            EnumerationConfig(k_min=0)

    def test_invalid_range(self):
        with pytest.raises(ParameterError):
            EnumerationConfig(k_min=5, k_max=4)

    def test_invalid_jobs(self):
        with pytest.raises(ParameterError):
            EnumerationConfig(jobs=0)

    def test_invalid_backend_name(self):
        with pytest.raises(ParameterError):
            EnumerationConfig(backend="")

    def test_with_backend(self):
        cfg = EnumerationConfig(k_min=3).with_backend("ooc")
        assert cfg.backend == "ooc"
        assert cfg.k_min == 3

    @pytest.mark.parametrize("bad", [0, -1, "4", 2.5, True])
    def test_invalid_steal_granularity(self, bad):
        with pytest.raises(ParameterError, match="steal_granularity"):
            EnumerationConfig(
                backend="threads", options={"steal_granularity": bad}
            )

    def test_steal_granularity_part_of_identity(self):
        a = EnumerationConfig(
            backend="threads", options={"steal_granularity": 2}
        )
        b = EnumerationConfig(
            backend="threads", options={"steal_granularity": 8}
        )
        c = EnumerationConfig(
            backend="threads", options={"steal_granularity": 2}
        )
        assert a != b
        assert a == c and hash(a) == hash(c)

    def test_options_are_copied(self):
        opts = {"chunk_size": 8}
        cfg = EnumerationConfig(backend="ooc", options=opts)
        opts["chunk_size"] = 99
        assert cfg.option("chunk_size") == 8

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EnumerationConfig().k_min = 2

    def test_hashable(self):
        a = EnumerationConfig(backend="ooc", options={"chunk_size": 8})
        b = EnumerationConfig(backend="ooc", options={"chunk_size": 8})
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_hashable_with_unhashable_option_values(self):
        """Regression: a list-valued option (e.g. spill dirs) used to
        raise TypeError from __hash__."""
        a = EnumerationConfig(
            backend="ooc", options={"dirs": ["/tmp/a", "/tmp/b"]}
        )
        b = EnumerationConfig(
            backend="ooc", options={"dirs": ["/tmp/a", "/tmp/b"]}
        )
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        c = EnumerationConfig(backend="ooc", options={"dirs": ["/tmp/c"]})
        assert a != c

    def test_hashable_with_mixed_type_option_keys(self):
        """Regression: mixed-type keys broke sorted() inside __hash__."""
        a = EnumerationConfig(options={1: "x", "z": 2})
        b = EnumerationConfig(options={"z": 2, 1: "x"})
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_hash_fallback_still_usable_as_dict_key(self):
        cfg = EnumerationConfig(options={"dirs": ["/tmp/a"]})
        table = {cfg: "cached"}
        same = EnumerationConfig(options={"dirs": ["/tmp/a"]})
        assert table[same] == "cached"

    def test_hash_eq_contract_with_nested_dict_insertion_order(self):
        """Regression: equal configs whose unhashable option values are
        dicts built in different insertion orders must hash equal."""
        a = EnumerationConfig(options={"m": {"a": 1, "b": 2}, "l": [0]})
        b = EnumerationConfig(options={"m": {"b": 2, "a": 1}, "l": [0]})
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_hash_eq_contract_with_numeric_type_mix(self):
        """[1] == [1.0] implies the configs are equal; their hashes
        must agree (hash(1) == hash(1.0) carries through)."""
        a = EnumerationConfig(options={"x": [1]})
        b = EnumerationConfig(options={"x": [1.0]})
        assert a == b
        assert hash(a) == hash(b)

    def test_hash_eq_contract_across_hashability_lines(self):
        """frozenset({1}) == {1}: equal configs must hash equal even
        when one option value is hashable and the other is not."""
        a = EnumerationConfig(options={"x": frozenset({1})})
        b = EnumerationConfig(options={"x": {1}})
        assert a == b
        assert hash(a) == hash(b)
        assert {a: "cached"}[b] == "cached"

    def test_jobs_rejected_by_sequential_backends(self, triangle):
        for backend in ("incore", "bitscan", "ooc"):
            with pytest.raises(ParameterError, match="sequential"):
                run_enumeration(
                    triangle,
                    EnumerationConfig(backend=backend, jobs=2),
                )


class TestResolveForBackend:
    def test_unsupported_store_raises_config_error(self):
        from repro.errors import ConfigError
        from repro.engine import resolve_for_backend

        with pytest.raises(ConfigError, match="does not support"):
            resolve_for_backend(
                EnumerationConfig(
                    backend="multiprocess", level_store="wah", jobs=2
                ),
                get_backend("multiprocess"),
            )

    def test_supported_store_passes_through(self):
        from repro.engine import resolve_for_backend

        cfg = EnumerationConfig(backend="incore", level_store="wah")
        assert resolve_for_backend(cfg, get_backend("incore")) is cfg

    def test_k_min_floor_promoted(self):
        from repro.engine import resolve_for_backend

        @register_backend("test-resolve-floor", min_k_min=4)
        def run_floor(g, config, on_clique=None):
            """Never dispatched in this test."""

        try:
            out = resolve_for_backend(
                EnumerationConfig(backend="test-resolve-floor", k_min=2),
                get_backend("test-resolve-floor"),
            )
        finally:
            unregister_backend("test-resolve-floor")
        assert out.k_min == 4

    def test_direct_multiprocess_runner_raises_same_error(self, triangle):
        """Bypassing the facade cannot dodge (or reword) the check."""
        from repro.errors import ConfigError
        from repro.engine.backends import run_multiprocess

        with pytest.raises(ConfigError) as direct:
            run_multiprocess(
                triangle,
                EnumerationConfig(
                    backend="multiprocess", level_store="disk", jobs=2
                ),
            )
        with pytest.raises(ConfigError) as facade:
            run_enumeration(
                triangle,
                EnumerationConfig(
                    backend="multiprocess", level_store="disk", jobs=2
                ),
            )
        assert str(direct.value) == str(facade.value)


class TestRegistry:
    def test_builtins_registered(self):
        assert {"incore", "bitscan", "ooc", "multiprocess"} <= set(
            available_backends()
        )

    def test_unknown_backend(self):
        with pytest.raises(ParameterError, match="unknown backend"):
            get_backend("does-not-exist")

    def test_unknown_backend_via_run(self, triangle):
        with pytest.raises(ParameterError, match="available"):
            run_enumeration(
                triangle, EnumerationConfig(backend="does-not-exist")
            )

    def test_register_and_unregister(self, triangle):
        @register_backend("test-null", description="no-op test backend")
        def run_null(g, config, on_clique=None):
            """No-op backend for registry tests."""
            from repro.core.clique_enumerator import EnumerationResult

            return EnumerationResult(backend="test-null")

        try:
            assert "test-null" in available_backends()
            res = run_enumeration(
                triangle, EnumerationConfig(backend="test-null")
            )
            assert res.backend == "test-null"
        finally:
            unregister_backend("test-null")
        assert "test-null" not in available_backends()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ParameterError, match="already registered"):
            register_backend("incore", lambda g, c, s: None)

    def test_min_k_min_promoted_by_engine(self, triangle):
        seen: list[int] = []

        @register_backend("test-floor", min_k_min=3)
        def run_floor(g, config, on_clique=None):
            """Records the k_min it was dispatched with."""
            from repro.core.clique_enumerator import EnumerationResult

            seen.append(config.k_min)
            return EnumerationResult(backend="test-floor")

        try:
            run_enumeration(
                triangle, EnumerationConfig(backend="test-floor", k_min=1)
            )
        finally:
            unregister_backend("test-floor")
        assert seen == [3]

    def test_backend_table_entries(self, capsys):
        from dataclasses import fields

        from repro.cli import main

        table = backend_table()
        names = [info.name for info in table]
        assert names == sorted(names)
        ooc = next(info for info in table if info.name == "ooc")
        assert ooc.storage == "disk"
        mp = next(info for info in table if info.name == "multiprocess")
        assert mp.parallel
        # every advertised field of every built-in, pinned verbatim
        pinned = {
            info.name: {
                f.name: getattr(info, f.name)
                for f in fields(info)
                if f.name not in ("name", "runner")
            }
            for info in table
        }
        assert pinned == _BUILTIN_BACKENDS
        assert main(["engines"]) == 0
        assert capsys.readouterr().out == _ENGINES_STDOUT

    @pytest.mark.parametrize(
        "backend, accepted, extra",
        [
            # (backend, option keys it accepts, config fields the
            # options need): store options follow the effective store
            pytest.param(
                "incore", {"directory", "chunk_size"},
                {"level_store": "disk"}, id="incore",
            ),
            pytest.param(
                "bitscan", {"chunk_size"}, {"level_store": "wah"},
                id="bitscan",
            ),
            pytest.param(
                "ooc", {"directory", "chunk_size"}, {}, id="ooc"
            ),
            pytest.param(
                "threads", {"steal_granularity", "chunk_size"},
                {"jobs": 2, "level_store": "wah"}, id="threads",
            ),
            pytest.param(
                "multiprocess", {"rel_tolerance"}, {"jobs": 2},
                id="multiprocess",
            ),
        ],
    )
    def test_unknown_option_rejected(
        self, backend, accepted, extra, triangle, tmp_path
    ):
        values = {
            "chunk_size": 64,
            "directory": str(tmp_path),
            "steal_granularity": 2,
            "rel_tolerance": 0.1,
        }
        base = EnumerationConfig(backend=backend, k_min=2, **extra)
        want = run_enumeration(triangle, base).cliques
        # each accepted key runs and changes nothing observable
        options = {key: values[key] for key in accepted}
        config = EnumerationConfig(
            backend=backend, k_min=2, options=options, **extra
        )
        assert run_enumeration(triangle, config).cliques == want
        # a key valid on some other backend (or store) is still refused
        for key in sorted(set(values) - accepted) + ["bogus"]:
            with pytest.raises(ParameterError, match="option"):
                run_enumeration(
                    triangle,
                    EnumerationConfig(
                        backend=backend,
                        k_min=2,
                        options={**options, key: values.get(key, 1)},
                        **extra,
                    ),
                )


class TestLevelStores:
    def test_memory_store_accounting(self):
        store = MemoryLevelStore()
        store.append(CliqueLevelBatch.from_sublists([_sl([0], [1, 2])]))
        store.append(CliqueLevelBatch.from_sublists([_sl([1], [2, 3, 4])]))
        assert len(store) == 2
        assert store.n_sublists == 2
        assert store.n_candidates == 5
        assert store.candidate_bytes > 0

    def test_memory_store_single_chunk(self):
        store = MemoryLevelStore()
        items = [_sl([0], [1, 2]), _sl([1], [2, 3])]
        batch = CliqueLevelBatch.from_sublists(items)
        store.append(batch)
        chunks = list(store.stream())
        assert chunks == [batch]
        assert [sl.prefix for sl in chunks[0].to_sublists()] == [
            sl.prefix for sl in items
        ]

    def test_empty_memory_store_streams_nothing(self):
        assert list(MemoryLevelStore().stream()) == []

    def test_disk_store_is_level_store(self, tmp_path):
        assert issubclass(DiskLevelStore, LevelStore)
        with DiskLevelStore(tmp_path) as store:
            assert isinstance(store, LevelStore)

    def test_disk_store_accounting_matches_memory(self, tmp_path):
        mem, disk = MemoryLevelStore(), DiskLevelStore(tmp_path)
        for sl in (_sl([0], [1, 2]), _sl([1], [2, 3, 4])):
            batch = CliqueLevelBatch.from_sublists([sl])
            mem.append(batch)
            disk.append(batch)
        assert disk.n_sublists == mem.n_sublists
        assert disk.n_candidates == mem.n_candidates
        assert disk.candidate_bytes == mem.candidate_bytes
        disk.close()


class TestFacade:
    def test_default_config(self, triangle):
        res = EnumerationEngine().run(triangle)
        assert res.cliques == [(0, 1, 2)]
        assert res.backend == "incore"

    def test_engine_level_default_config(self, triangle):
        engine = EnumerationEngine(EnumerationConfig(backend="bitscan"))
        assert engine.run(triangle).backend == "bitscan"

    def test_per_call_config_overrides(self, triangle):
        engine = EnumerationEngine(EnumerationConfig(backend="bitscan"))
        res = engine.run(triangle, EnumerationConfig(backend="incore"))
        assert res.backend == "incore"

    def test_backends_listing(self):
        assert EnumerationEngine.backends() == available_backends()

    def test_wall_seconds_measured(self):
        res = run_enumeration(erdos_renyi(20, 0.3, seed=1))
        assert res.wall_seconds > 0

    def test_max_cliques_budget_across_backends(self):
        g = erdos_renyi(30, 0.5, seed=1)
        for backend in ("incore", "bitscan", "ooc"):
            with pytest.raises(BudgetExceeded):
                run_enumeration(
                    g,
                    EnumerationConfig(
                        backend=backend, k_min=2, max_cliques=3
                    ),
                )

    def test_memory_budget_on_disk_backend(self):
        g = complete_graph(10)
        with pytest.raises(BudgetExceeded):
            run_enumeration(
                g,
                EnumerationConfig(
                    backend="ooc", k_min=2, max_candidate_bytes=10
                ),
            )

    def test_ooc_reports_io(self):
        g = erdos_renyi(25, 0.35, seed=2)
        res = run_enumeration(g, EnumerationConfig(backend="ooc"))
        assert res.io is not None
        assert res.io.bytes_written > 0
        assert res.io.bytes_read > 0

    def test_ooc_shared_directory_across_levels(self, tmp_path):
        """Consecutive levels spill into one directory without the next
        level's writer truncating the file the current level streams."""
        g = erdos_renyi(120, 0.25, seed=9)
        cfg = EnumerationConfig(
            backend="ooc",
            k_min=2,
            options={"directory": tmp_path, "chunk_size": 4},
        )
        res = run_enumeration(g, cfg)
        ref = run_enumeration(g, EnumerationConfig(k_min=2))
        assert sorted(res.cliques) == sorted(ref.cliques)
        assert list(tmp_path.glob("*.spill")) == []

    def test_level_stats_match_across_store_backends(self):
        g = erdos_renyi(25, 0.35, seed=3)
        incore = run_enumeration(
            g, EnumerationConfig(backend="incore", k_min=2)
        )
        ooc = run_enumeration(g, EnumerationConfig(backend="ooc", k_min=2))
        assert incore.level_stats == ooc.level_stats

    def test_multiprocess_jobs_respected(self):
        g = erdos_renyi(25, 0.35, seed=4)
        res = run_enumeration(
            g, EnumerationConfig(backend="multiprocess", jobs=2)
        )
        assert res.n_workers == 2

    def test_multiprocess_counters_are_canonical(self):
        """Worker op counts fold into the canonical fields, so the
        counters stay comparable with the sequential substrates."""
        g = erdos_renyi(25, 0.35, seed=5)
        mp = run_enumeration(
            g, EnumerationConfig(backend="multiprocess", k_min=2, jobs=2)
        )
        seq = run_enumeration(g, EnumerationConfig(k_min=2))
        assert mp.counters.pair_checks == seq.counters.pair_checks
        assert mp.counters.maximal_emitted == seq.counters.maximal_emitted
        assert mp.counters.total_work() == seq.counters.total_work()
