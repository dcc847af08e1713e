"""Tests for the ``multiprocess`` backend: the shared level loop with
each level fanned across worker processes."""

from __future__ import annotations

import multiprocessing as mp
import threading

import pytest

from repro.core.clique_enumerator import enumerate_maximal_cliques
from repro.core.generators import erdos_renyi, planted_partition
from repro.engine import EnumerationConfig, EnumerationEngine, backends
from repro.errors import ParameterError

ENGINE = EnumerationEngine()


def _run(g, on_clique=None, **fields):
    return ENGINE.run(
        g, EnumerationConfig(backend="multiprocess", **fields), on_clique
    )


@pytest.fixture(scope="module")
def workload():
    g, _ = planted_partition(
        80, [9, 8, 8], p_in=0.95, p_out=0.04, seed=31
    )
    return g


class TestMPBackend:
    def test_single_worker_matches_sequential(self, workload):
        seq = enumerate_maximal_cliques(workload, k_min=2)
        par = _run(workload, k_min=2, jobs=1)
        assert sorted(par.cliques) == sorted(seq.cliques)
        assert par.n_workers == 1

    def test_two_workers_match_sequential(self, workload):
        seq = enumerate_maximal_cliques(workload, k_min=2)
        par = _run(workload, k_min=2, jobs=2)
        assert sorted(par.cliques) == sorted(seq.cliques)
        assert par.n_workers == 2

    def test_init_k_seeding(self, workload):
        seq = enumerate_maximal_cliques(workload, k_min=4)
        par = _run(workload, k_min=4, jobs=2)
        assert sorted(par.cliques) == sorted(seq.cliques)

    def test_k_max(self, workload):
        seq = enumerate_maximal_cliques(workload, k_min=2, k_max=4)
        par = _run(workload, k_min=2, k_max=4, jobs=2)
        assert sorted(par.cliques) == sorted(seq.cliques)
        assert not par.completed

    def test_non_decreasing_order_preserved(self, workload):
        par = _run(workload, k_min=2, jobs=2)
        sizes = [len(c) for c in par.cliques]
        assert sizes == sorted(sizes)

    def test_invalid_range(self, workload):
        with pytest.raises(ParameterError):
            _run(workload, k_min=5, k_max=4, jobs=2)

    def test_empty_graph(self):
        from repro.core.graph import Graph

        par = _run(Graph(0), k_min=2, jobs=2)
        assert par.cliques == []
        assert par.completed

    def test_random_graph_matches(self):
        g = erdos_renyi(40, 0.3, seed=9)
        seq = enumerate_maximal_cliques(g, k_min=2)
        par = _run(g, k_min=2, jobs=2)
        assert sorted(par.cliques) == sorted(seq.cliques)


def _raise_in_worker(batch, g, counters, emit):
    if mp.parent_process() is not None:
        raise RuntimeError("injected worker fault")
    return backends.generate_next_level(batch, g, counters, emit)


def _run_within(seconds, **fields):
    """``_run`` on a helper thread; the exception it raised, if any.

    Fails the test if the run has not returned within ``seconds`` —
    an injected fault must not hang the caller.
    """
    outcome = []

    def target():
        try:
            outcome.append(_run(**fields))
        except BaseException as exc:  # noqa: BLE001 — handed back
            outcome.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"run still going after {seconds} s"
    return outcome[0]


@pytest.mark.stress
@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="the injected step reaches the workers by fork",
)
def test_worker_fault_surfaces_and_reaps_workers(workload, monkeypatch):
    """A step raising inside a worker fails run() promptly and leaves
    no worker process behind."""
    monkeypatch.setattr(
        backends, "generate_next_level", _raise_in_worker
    )
    error = _run_within(60, g=workload, k_min=2, jobs=2)
    assert isinstance(error, RuntimeError)
    assert "injected worker fault" in str(error)
    assert mp.active_children() == []


@pytest.mark.stress
def test_raising_sink_reaps_workers(workload):
    """A sink raising at a level barrier fails the run and leaves no
    worker process behind; the backend is immediately reusable."""

    class Boom(RuntimeError):
        pass

    def sink(clique):
        if len(clique) > 2:
            raise Boom("sink rejected clique")

    error = _run_within(60, g=workload, k_min=2, jobs=2, on_clique=sink)
    assert isinstance(error, Boom)
    assert mp.active_children() == []
    assert _run(workload, k_min=2, jobs=2).cliques == ENGINE.run(
        workload, EnumerationConfig(k_min=2)
    ).cliques
