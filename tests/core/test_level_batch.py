"""The structure-of-arrays level batch and the vectorised generation step.

:func:`~repro.core.clique_enumerator.generate_next_level` runs one
numpy kernel over a whole :class:`~repro.core.sublist.CliqueLevelBatch`.
Here it is held against a pure-Python rendering of the paper's
Figure 3, written with sets and ints only: per level, the same cliques
in the same order, the same children, the same operation counters, and
``nbytes()`` equal to the per-sub-list sum.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import clique_enumerator
from repro.core.clique_enumerator import (
    build_initial_sublists,
    generate_next_level,
    tail_pairs,
)
from repro.core.counters import OpCounters
from repro.core.generators import complete_graph, erdos_renyi
from repro.core.graph import Graph
from repro.core.sublist import CliqueLevelBatch, CliqueSubList
from repro.engine import EnumerationConfig, EnumerationEngine

ENGINE = EnumerationEngine()

# ---------------------------------------------------------------------------
# the reference: Figure 3 over Python sets and int bit strings
# ---------------------------------------------------------------------------


def _neighbour_masks(g: Graph) -> list[int]:
    masks = []
    for v in range(g.n):
        mask = 0
        for u in g.neighbors(v).tolist():
            mask |= 1 << u
        masks.append(mask)
    return masks


def _ref_counters() -> dict[str, int]:
    return dict.fromkeys(
        ("bit_and_ops", "bit_exist_checks", "pair_checks",
         "cliques_generated", "maximal_emitted", "sublists_created"),
        0,
    )


def ref_seed(nbrs: list[int], counters: dict, emitted: list,
             emit_edges=True):
    """Level-2 sub-lists ``(prefix, tails, cn)`` from the edge set."""
    n = len(nbrs)
    level = []
    for v in range(n):
        tails = [u for u in range(v + 1, n) if nbrs[v] >> u & 1]
        cands = []
        for u in tails:
            counters["cliques_generated"] += 1
            counters["bit_and_ops"] += 1
            counters["bit_exist_checks"] += 1
            if nbrs[v] & nbrs[u]:
                cands.append(u)
            elif emit_edges:
                counters["maximal_emitted"] += 1
                emitted.append((v, u))
        if len(cands) > 1:
            counters["sublists_created"] += 1
            level.append(((v,), cands, nbrs[v]))
    return level


def ref_step(nbrs: list[int], level, counters: dict, emitted: list):
    """One GenerateKCliques step, Figure 3, pair by pair."""
    children = []
    for prefix, tails, cn in level:
        for i, v in enumerate(tails):
            group = []
            for u in tails[i + 1:]:
                counters["pair_checks"] += 1
                if not nbrs[v] >> u & 1:
                    continue
                counters["cliques_generated"] += 1
                counters["bit_exist_checks"] += 1
                counters["bit_and_ops"] += 1
                group.append(u)
            if not group:
                continue
            counters["bit_and_ops"] += 1  # CN(prefix + (v,))
            child_cn = cn & nbrs[v]
            cands = []
            for u in group:
                if child_cn & nbrs[u]:
                    cands.append(u)
                else:
                    counters["maximal_emitted"] += 1
                    emitted.append(prefix + (v, u))
            if len(cands) > 1:
                counters["sublists_created"] += 1
                children.append((prefix + (v,), cands, child_cn))
    return children


def ref_nbytes(level, n_words: int) -> int:
    return sum(
        8 * len(tails) + 8 * len(prefix) + 8 * n_words + 8
        for prefix, tails, _ in level
    )


def _as_ref(batch: CliqueLevelBatch):
    """A batch in the reference's ``(prefix, tails, cn)`` form."""
    out = []
    for sl in batch.to_sublists():
        cn = sum(int(w) << (64 * i) for i, w in enumerate(sl.cn_words))
        out.append((sl.prefix, sl.tails.tolist(), cn))
    return out


def _counters(c: OpCounters) -> dict[str, int]:
    snap = c.snapshot()
    snap.pop("levels", None)
    return snap


class BatchEmitter:
    """An emitter with ``.batch``, recording how cliques arrived."""

    def __init__(self):
        self.cliques: list[tuple[int, ...]] = []
        self.calls = 0

    def __call__(self, clique):
        self.cliques.append(clique)

    def batch(self, cliques):
        self.calls += 1
        self.cliques.extend(cliques)


def assert_levels_match(g: Graph, emitter_kind: str = "batch") -> int:
    """Walk every level of ``g`` through kernel and reference; returns
    the number of levels compared."""
    n_words = max(1, (g.n + 63) // 64)
    counters, ref_c = OpCounters(), _ref_counters()
    emitter, ref_emitted = BatchEmitter(), []
    # a bound method has no ``batch``: the per-clique fallback
    emit = emitter if emitter_kind == "batch" else emitter.__call__
    nbrs = _neighbour_masks(g)
    seed = build_initial_sublists(g, counters, emit, True)
    level = ref_seed(nbrs, ref_c, ref_emitted)
    batch = CliqueLevelBatch.from_sublists(seed)
    assert _as_ref(batch) == level
    levels = 0
    while level:
        assert batch.nbytes() == ref_nbytes(level, n_words)
        assert batch.nbytes() == sum(sl.nbytes() for sl in seed)
        batch = generate_next_level(batch, g, counters, emit)
        level = ref_step(nbrs, level, ref_c, ref_emitted)
        levels += 1
        assert isinstance(batch, CliqueLevelBatch)
        assert _as_ref(batch) == level
        assert emitter.cliques == ref_emitted
        assert _counters(counters) == ref_c
        seed = batch.to_sublists()
    assert len(batch) == 0 and batch.nbytes() == 0
    return levels


# ---------------------------------------------------------------------------
# kernel vs reference
# ---------------------------------------------------------------------------

#: up to three 64-bit words per bit string
graphs = st.builds(
    erdos_renyi,
    st.integers(min_value=0, max_value=150),
    st.sampled_from([0.02, 0.1, 0.25, 0.4]),
    seed=st.integers(min_value=0, max_value=2**16),
)


class TestAgainstReference:
    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(g=graphs, emitter_kind=st.sampled_from(["batch", "plain"]))
    def test_every_level_matches(self, g, emitter_kind):
        assert_levels_match(g, emitter_kind)

    @pytest.mark.parametrize("budget", [1, 3, 7, 40])
    def test_chunks_crossing_pair_batch(self, monkeypatch, budget):
        monkeypatch.setattr(clique_enumerator, "PAIR_BATCH", budget)
        for seed in range(4):
            assert assert_levels_match(erdos_renyi(45, 0.4, seed=seed))

    def test_small_pair_batch_emits_one_batch_per_chunk(self, monkeypatch):
        g = erdos_renyi(40, 0.4, seed=2)
        seed = CliqueLevelBatch.from_sublists(
            build_initial_sublists(g, OpCounters(), lambda c: None, True)
        )
        whole, chunked = BatchEmitter(), BatchEmitter()
        generate_next_level(seed, g, OpCounters(), whole)
        monkeypatch.setattr(clique_enumerator, "PAIR_BATCH", 5)
        generate_next_level(seed, g, OpCounters(), chunked)
        assert chunked.cliques == whole.cliques
        assert whole.calls == 1 < chunked.calls

    def test_level_with_nothing_retained(self):
        # disjoint triangles: level 2 yields only maximal triangles
        g = Graph(9)
        for base in (0, 3, 6):
            g.add_edge(base, base + 1)
            g.add_edge(base, base + 2)
            g.add_edge(base + 1, base + 2)
        assert assert_levels_match(g) == 1
        counters, emitter = OpCounters(), BatchEmitter()
        seed = CliqueLevelBatch.from_sublists(
            build_initial_sublists(g, counters, emitter, True)
        )
        out = generate_next_level(seed, g, counters, emitter)
        assert len(out) == 0 and out.k == 3
        assert emitter.cliques == [(0, 1, 2), (3, 4, 5), (6, 7, 8)]

    def test_complete_graph_keeps_one_chain(self):
        assert assert_levels_match(complete_graph(9)) == 7

    def test_one_row_slices_match_the_whole_batch(self):
        """Stepping a level one sub-list at a time (as the machine-model
        trace does) gives the children, cliques and counters of one
        whole-batch step."""
        g = erdos_renyi(40, 0.35, seed=5)
        seed = CliqueLevelBatch.from_sublists(
            build_initial_sublists(g, OpCounters(), lambda c: None, True)
        )
        c_rows, c_batch = OpCounters(), OpCounters()
        e_rows, e_batch = [], []
        children = [
            generate_next_level(
                seed.slice(row, row + 1), g, c_rows, e_rows.append
            )
            for row in range(len(seed))
        ]
        whole = generate_next_level(seed, g, c_batch, e_batch.append)
        rows = CliqueLevelBatch.concat(children)
        assert rows.prefixes.tolist() == whole.prefixes.tolist()
        assert rows.offsets.tolist() == whole.offsets.tolist()
        assert rows.tails.tolist() == whole.tails.tolist()
        assert (rows.cn_words == whole.cn_words).all()
        assert e_rows == e_batch
        assert c_rows.snapshot() == c_batch.snapshot()


# ---------------------------------------------------------------------------
# whole pipeline vs reference: k_min = 1 and a k_max cut
# ---------------------------------------------------------------------------


def ref_enumerate(g: Graph, k_min: int, k_max: int | None):
    counters, emitted = _ref_counters(), []
    nbrs = _neighbour_masks(g)
    if k_min == 1:
        for v in range(g.n):
            if g.degree(v) == 0:
                counters["maximal_emitted"] += 1
                emitted.append((v,))
    level = ref_seed(
        nbrs, counters, emitted, emit_edges=k_max is None or k_max >= 2
    )
    k = 2
    while level and (k_max is None or k < k_max):
        level = ref_step(nbrs, level, counters, emitted)
        k += 1
    return emitted, counters, not level


class TestPipelineAgainstReference:
    @pytest.mark.parametrize("backend", ["incore", "ooc"])
    @pytest.mark.parametrize(
        "k_min,k_max", [(1, None), (1, 1), (1, 2), (2, 3), (1, 4)]
    )
    def test_bounds(self, backend, k_min, k_max):
        # three isolated vertices for k_min = 1
        g = _with_isolated(erdos_renyi(50, 0.3, seed=11), 3)
        res = ENGINE.run(
            g,
            EnumerationConfig(
                backend=backend, k_min=k_min, k_max=k_max,
                options={"chunk_size": 4} if backend == "ooc" else {},
            ),
        )
        emitted, counters, exhausted = ref_enumerate(g, k_min, k_max)
        assert res.cliques == emitted
        assert _counters(res.counters) == counters
        assert res.completed == exhausted


def _with_isolated(g: Graph, extra: int) -> Graph:
    out = Graph(g.n + extra)
    for u, v in g.edges():
        out.add_edge(u, v)
    return out


# ---------------------------------------------------------------------------
# the batch container itself
# ---------------------------------------------------------------------------


def _sample_batch() -> tuple[CliqueLevelBatch, list[CliqueSubList]]:
    g = erdos_renyi(70, 0.3, seed=4)
    seed = build_initial_sublists(g, OpCounters(), lambda c: None, True)
    return CliqueLevelBatch.from_sublists(seed), seed


class TestCliqueLevelBatch:
    def test_layout(self):
        batch, seed = _sample_batch()
        assert batch.prefixes.shape == (len(seed), 1)
        assert batch.prefixes.dtype == np.int64
        assert batch.offsets.shape == (len(seed) + 1,)
        assert batch.offsets[0] == 0
        assert batch.tails.dtype == np.int64
        assert batch.cn_words.shape == (len(seed), 2)
        assert batch.cn_words.dtype == np.uint64
        assert len(batch) == len(seed)
        assert batch.n_candidates == sum(len(sl) for sl in seed)

    def test_round_trip(self):
        batch, seed = _sample_batch()
        back = batch.to_sublists()
        assert [sl.prefix for sl in back] == [sl.prefix for sl in seed]
        for a, b in zip(back, seed):
            np.testing.assert_array_equal(a.tails, b.tails)
            np.testing.assert_array_equal(a.cn_words, b.cn_words)

    @pytest.mark.parametrize("index_bytes,pointer_bytes", [(8, 8), (4, 0)])
    def test_nbytes_is_the_per_sublist_sum(self, index_bytes, pointer_bytes):
        batch, seed = _sample_batch()
        assert batch.nbytes(index_bytes, pointer_bytes) == sum(
            sl.nbytes(index_bytes, pointer_bytes) for sl in seed
        )

    def test_slice_and_concat_invert(self):
        batch, seed = _sample_batch()
        parts = [batch.slice(lo, min(lo + 7, len(batch)))
                 for lo in range(0, len(batch), 7)]
        assert sum(len(p) for p in parts) == len(batch)
        joined = CliqueLevelBatch.concat(parts)
        for name in ("prefixes", "offsets", "tails", "cn_words"):
            np.testing.assert_array_equal(
                getattr(joined, name), getattr(batch, name)
            )
        assert parts[1].nbytes() == sum(sl.nbytes() for sl in seed[7:14])

    def test_pickles(self):
        batch, _ = _sample_batch()
        part = batch.slice(3, 9)
        back = pickle.loads(pickle.dumps(part))
        np.testing.assert_array_equal(back.tails, part.tails)
        assert back.offsets[0] == 0 and back.nbytes() == part.nbytes()

    def test_empty(self):
        empty = CliqueLevelBatch.empty(4, 3)
        assert len(empty) == 0 and empty.k == 4
        assert empty.nbytes() == 0 and empty.to_sublists() == []
        assert len(CliqueLevelBatch.from_sublists([])) == 0


class TestTailPairs:
    @pytest.mark.parametrize("counts", [[0], [1], [2], [5, 0, 3, 1, 4]])
    def test_row_major_triu_order(self, counts):
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        first, second = tail_pairs(offsets)
        want_i, want_j = [], []
        for start, t in zip(offsets[:-1].tolist(), counts):
            iu, ju = np.triu_indices(t, k=1)
            want_i += (iu + start).tolist()
            want_j += (ju + start).tolist()
        assert first.tolist() == want_i
        assert second.tolist() == want_j

    def test_offsets_need_not_start_at_zero(self):
        first, second = tail_pairs(np.array([4, 7], dtype=np.int64))
        assert list(zip(first.tolist(), second.tolist())) == [
            (4, 5), (4, 6), (5, 6)
        ]
