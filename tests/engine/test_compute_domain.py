"""The compute-domain axis: ``bitset`` vs ``wah`` generation.

The contract the tentpole must keep forever: for every backend that
advertises the ``wah`` compute domain (``incore``/``bitscan``/
``threads``) on every level store it supports, the compressed-domain
generation step produces the byte-identical clique *sequence*, the
byte-identical per-level :class:`~repro.core.clique_enumerator.
LevelStats`, and the byte-identical merged
:class:`~repro.core.counters.OpCounters` as the raw-word path — the
representation changes, the algorithm (and its paper-faithful operation
model) does not.  What may differ is only the telemetry in
``result.domain_stats``, which this suite also pins: the
``wah``+``wah`` pairing streams levels compressed end to end (zero
decompressed bytes), while the at-rest path reports the codec traffic
it pays.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.errors import ConfigError, ParameterError
from repro.core.compressed_domain import CompressedExpander
from repro.core.generators import (
    erdos_renyi,
    overlapping_cliques,
    planted_clique,
)
from repro.core.graph import Graph
from repro.core.sublist import CliqueLevelBatch, CompressedLevelBatch
from repro.engine import (
    COMPUTE_DOMAINS,
    EnumerationConfig,
    EnumerationEngine,
    get_backend,
    resolve_compute_domain,
    resolve_for_backend,
)
from repro.engine.level_store import CompressedLevelStore

ENGINE = EnumerationEngine()

#: the backends the tentpole wired the compressed domain into.
WAH_BACKENDS = ("incore", "bitscan", "threads")


def _graph():
    g, _ = overlapping_cliques(
        120, [9, 8, 7, 6], 3, p=0.03, seed=11
    )
    return g


class TestConfigValidation:
    def test_domains_tuple(self):
        assert COMPUTE_DOMAINS == ("auto", "bitset", "wah")

    def test_default_is_auto(self):
        assert EnumerationConfig().compute_domain == "auto"

    def test_unknown_domain_rejected(self):
        with pytest.raises(ParameterError, match="compute_domain"):
            EnumerationConfig(compute_domain="simd")

    def test_hash_and_eq_distinguish_domains(self):
        """The service result cache may never conflate the domains."""
        a = EnumerationConfig(level_store="wah", compute_domain="bitset")
        b = EnumerationConfig(level_store="wah", compute_domain="wah")
        assert a != b
        assert hash(a) != hash(b)

    @pytest.mark.parametrize("backend", ["ooc", "multiprocess"])
    def test_explicit_wah_rejected_where_unsupported(self, backend):
        config = EnumerationConfig(
            backend=backend,
            compute_domain="wah",
            jobs=2 if backend == "multiprocess" else None,
        )
        with pytest.raises(ConfigError, match="compute domain"):
            resolve_for_backend(config, get_backend(backend))
        with pytest.raises(ConfigError, match="compute domain"):
            ENGINE.run(Graph(4), config)

    def test_submit_path_raises_identical_error(self):
        """`repro submit` refuses at submission with the engine's exact
        ConfigError — the shared resolution point."""
        from repro.service.jobs import JobSpec

        config = EnumerationConfig(
            backend="multiprocess", compute_domain="wah", jobs=2
        )
        with pytest.raises(ConfigError) as engine_exc:
            resolve_for_backend(config, get_backend("multiprocess"))
        with pytest.raises(ConfigError) as submit_exc:
            JobSpec(graph=Graph(3), config=config)
        assert str(submit_exc.value) == str(engine_exc.value)

    def test_advertised_via_backend_info(self):
        for name in WAH_BACKENDS:
            assert get_backend(name).compute_domains == ("bitset", "wah")
        assert get_backend("ooc").compute_domains == ("bitset",)
        assert get_backend("multiprocess").compute_domains == ("bitset",)

    def test_auto_resolution(self):
        incore = get_backend("incore")
        assert resolve_compute_domain(
            EnumerationConfig(), "memory", incore
        ) == "bitset"
        assert resolve_compute_domain(
            EnumerationConfig(), "wah", incore
        ) == "wah"
        assert resolve_compute_domain(
            EnumerationConfig(), "wah", get_backend("ooc")
        ) == "bitset"
        assert resolve_compute_domain(
            EnumerationConfig(compute_domain="wah"), "memory", incore
        ) == "wah"


class TestDomainEquivalence:
    """wah vs bitset: byte-identical everything but the telemetry."""

    @pytest.fixture(scope="class")
    def graph(self):
        return _graph()

    @pytest.mark.parametrize("backend", WAH_BACKENDS)
    @pytest.mark.parametrize("store", ["memory", "disk", "wah"])
    def test_byte_identical_across_matrix(self, graph, backend, store):
        jobs = 2 if get_backend(backend).parallel else None
        base = ENGINE.run(graph, EnumerationConfig(
            backend=backend, level_store=store,
            compute_domain="bitset", jobs=jobs,
        ))
        wah = ENGINE.run(graph, EnumerationConfig(
            backend=backend, level_store=store,
            compute_domain="wah", jobs=jobs,
        ))
        assert wah.cliques == base.cliques
        assert wah.level_stats == base.level_stats
        assert wah.counters.snapshot() == base.counters.snapshot()
        assert wah.completed == base.completed
        assert base.compute_domain == "bitset"
        assert wah.compute_domain == "wah"

    def test_size_window_and_budget_parity(self, graph):
        """Init_K seeding, k_max cuts, and streamed sinks behave the
        same in both domains."""
        collected: list = []
        base = ENGINE.run(graph, EnumerationConfig(
            backend="incore", level_store="wah", k_min=3, k_max=6,
            compute_domain="bitset",
        ))
        wah = ENGINE.run(
            graph,
            EnumerationConfig(
                backend="incore", level_store="wah", k_min=3, k_max=6,
                compute_domain="wah",
            ),
            on_clique=collected.append,
        )
        assert collected == base.cliques
        assert wah.completed == base.completed

    def test_resolved_domain_reported_for_auto(self, graph):
        res = ENGINE.run(graph, EnumerationConfig(
            backend="incore", level_store="wah"
        ))
        assert res.compute_domain == "wah"
        res = ENGINE.run(graph, EnumerationConfig(backend="incore"))
        assert res.compute_domain == "bitset"
        # ooc never runs the wah domain, even under an "auto" config
        res = ENGINE.run(graph, EnumerationConfig(
            backend="ooc", level_store="wah"
        ))
        assert res.compute_domain == "bitset"


class TestDomainTelemetry:
    @pytest.fixture(scope="class")
    def graph(self):
        return _graph()

    def test_wah_domain_on_wah_store_never_decompresses(self, graph):
        res = ENGINE.run(graph, EnumerationConfig(
            backend="incore", level_store="wah", compute_domain="wah"
        ))
        stats = res.domain_stats
        assert stats.get("decompressed_bytes", 0) == 0
        assert stats["decompressed_bytes_avoided"] > 0
        assert stats["kernel_word_ops"] > 0
        assert stats["kernel_ands"] > 0
        assert stats["adj_rows_compressed"] > 0

    def test_at_rest_path_reports_codec_traffic(self, graph):
        res = ENGINE.run(graph, EnumerationConfig(
            backend="incore", level_store="wah", compute_domain="bitset"
        ))
        assert res.domain_stats["decompressed_bytes"] > 0
        assert res.domain_stats.get("decompressed_bytes_avoided", 0) == 0

    def test_bitset_on_raw_stores_reports_nothing(self, graph):
        res = ENGINE.run(graph, EnumerationConfig(backend="incore"))
        assert res.domain_stats == {}

    def test_level_seconds_recorded_by_the_loop(self, graph):
        res = ENGINE.run(graph, EnumerationConfig(backend="incore"))
        assert len(res.level_seconds) == len(res.level_stats)
        assert all(s >= 0 for s in res.level_seconds)


def _seed(g) -> CliqueLevelBatch:
    """The level-2 seed of ``g`` as the level loop stores it."""
    from repro.core.counters import OpCounters
    from repro.engine.level_loop import seed_level

    _, seed = seed_level(g, 2, OpCounters(), lambda c: None)
    return CliqueLevelBatch.from_sublists(seed)


class TestCompressedStream:
    """The zero-round-trip store surface the wah domain rides on."""

    def _store_with(self, g, domain="wah"):
        store = CompressedLevelStore(chunk_size=2, domain=domain)
        store.append(_seed(g))
        return store

    def test_stream_entries_yields_compressed(self):
        """In the wah domain the store hands over its compressed
        batches; ``stream_entries`` is an alias of that one stream."""
        assert CompressedLevelStore.stream_entries is (
            CompressedLevelStore.stream
        )
        g, _ = planted_clique(40, 6, 0.1, seed=3)
        store = self._store_with(g)
        chunks = list(store.stream_entries())
        assert chunks
        assert all(isinstance(c, CompressedLevelBatch) for c in chunks)
        assert store.bypassed_bytes == store.uncompressed_bytes > 0
        assert store.decompressed_bytes == 0

    def test_stream_entries_shares_single_pass_contract(self):
        from repro.errors import LevelStoreError

        g, _ = planted_clique(40, 6, 0.1, seed=3)
        store = self._store_with(g)
        list(store.stream_entries())
        with pytest.raises(LevelStoreError, match="single-pass"):
            store.stream()
        store2 = self._store_with(g, domain="bitset")
        list(store2.stream())
        with pytest.raises(LevelStoreError, match="single-pass"):
            store2.stream_batches()

    def test_native_compressed_append_identical_accounting(self):
        """Appending a compressed batch directly (the wah-domain path)
        charges the same bytes as compressing the equivalent raw batch
        (the bitset path) — so per-level stats stay byte-identical
        across domains."""
        g, _ = planted_clique(40, 6, 0.1, seed=3)
        raw_store = self._store_with(g)
        native_store = CompressedLevelStore(chunk_size=2)
        native_store.append(CompressedLevelBatch.from_level(_seed(g)))
        assert native_store.candidate_bytes == raw_store.candidate_bytes
        assert native_store.n_candidates == raw_store.n_candidates
        assert (
            native_store.uncompressed_bytes == raw_store.uncompressed_bytes
        )


class TestCompressedExpander:
    def test_model_validated(self):
        with pytest.raises(ParameterError, match="step model"):
            CompressedExpander(Graph(4), model="vectorised")

    def test_work_estimate_parity(self):
        """LPT partitioning sees identical weights in both forms, equal
        to the per-sub-list estimate."""
        from repro.parallel.thread_backend import _work_estimates

        g = erdos_renyi(80, 0.2, seed=2)
        seed = _seed(g)
        assert len(seed)
        expected = [sl.work_estimate() for sl in seed.to_sublists()]
        assert _work_estimates(seed) == expected
        assert _work_estimates(
            CompressedLevelBatch.from_level(seed)
        ) == expected

    def test_step_signature_matches_generation_step(self):
        """The expander is a drop-in GenerationStep: same call shape,
        same children as the reference, in the input batch's form."""
        from repro.core.clique_enumerator import generate_next_level
        from repro.core.counters import OpCounters

        g, _ = planted_clique(50, 7, 0.12, seed=5)
        seed = _seed(g)
        ref_counters = OpCounters()
        ref_cliques: list = []
        ref = generate_next_level(
            seed, g, ref_counters, ref_cliques.append
        )
        for kernel, level in itertools.product(
            ("python", "numpy"),
            (seed, CompressedLevelBatch.from_level(seed)),
        ):
            expander = CompressedExpander(g, model="pairs", kernel=kernel)
            counters, cliques = OpCounters(), []
            children = expander.step(level, g, counters, cliques.append)
            assert cliques == ref_cliques
            assert counters.snapshot() == ref_counters.snapshot()
            assert type(children) is type(level)
            if isinstance(children, CompressedLevelBatch):
                children = children.to_level()
            for name in ("prefixes", "offsets", "tails", "cn_words"):
                assert np.array_equal(
                    getattr(children, name), getattr(ref, name)
                )


class TestWireProtocol:
    def test_payload_roundtrip(self):
        from repro.service.protocol import (
            config_from_payload,
            config_to_payload,
        )

        config = EnumerationConfig(
            backend="incore", level_store="wah", compute_domain="wah"
        )
        payload = config_to_payload(config)
        assert payload["compute_domain"] == "wah"
        assert config_from_payload(payload) == config
        # the default never travels
        assert "compute_domain" not in config_to_payload(
            EnumerationConfig()
        )

    def test_job_to_dict_carries_domain(self):
        from repro.service.jobs import Job, JobSpec

        job = Job("j1", JobSpec(
            graph=Graph(3),
            config=EnumerationConfig(
                backend="incore", level_store="wah", compute_domain="wah"
            ),
        ))
        assert job.to_dict()["compute_domain"] == "wah"
