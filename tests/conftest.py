"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.core.generators import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    planted_clique,
    star_graph,
)
from repro.core.graph import Graph


@pytest.fixture
def empty_graph() -> Graph:
    return Graph(0)


@pytest.fixture
def singleton_graph() -> Graph:
    return Graph(1)


@pytest.fixture
def triangle() -> Graph:
    return complete_graph(3)


@pytest.fixture
def k5() -> Graph:
    return complete_graph(5)


@pytest.fixture
def p4() -> Graph:
    return path_graph(4)


@pytest.fixture
def c6() -> Graph:
    return cycle_graph(6)


@pytest.fixture
def star7() -> Graph:
    return star_graph(7)


@pytest.fixture
def barbell4() -> Graph:
    return barbell_graph(4)


@pytest.fixture
def random_graph() -> Graph:
    """A fixed mid-size random graph with varied clique structure."""
    g, _ = planted_clique(40, 7, 0.15, seed=11)
    return g


@pytest.fixture(params=[0, 1, 2, 3])
def seeded_er(request) -> Graph:
    """Four small random graphs for cross-validation sweeps."""
    return erdos_renyi(18, 0.35, seed=request.param)


def nx_maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """Reference maximal cliques via networkx, sorted canonically."""
    import networkx as nx

    nxg = g.to_networkx()
    return sorted(tuple(sorted(c)) for c in nx.find_cliques(nxg))


#: registry name of :func:`memory_only_backend`
MEMORY_ONLY = "test-memory-only"


@pytest.fixture
def memory_only_backend():
    """A registered level-loop backend that honours only the memory
    store: the example of a backend refusing an explicit level store.

    Yields its registry name; unregistered on teardown.  Registered
    per test, so parser choices and parametrizations built at
    collection time never see it.
    """
    from repro.core.clique_enumerator import generate_next_level
    from repro.engine import register_backend, unregister_backend
    from repro.engine.backends import _run_levels

    def run(g, config, on_clique=None):
        return _run_levels(
            g, config, on_clique, MEMORY_ONLY, generate_next_level,
            "pairs",
        )

    register_backend(
        MEMORY_ONLY, run, description="memory store only",
        level_stores=("memory",),
    )
    yield MEMORY_ONLY
    unregister_backend(MEMORY_ONLY)
