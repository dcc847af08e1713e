"""``max_candidate_bytes`` is checked against every stored level.

The level loop must hold each level it stores to the budget — the
seed level, and the last level it keeps when ``k_max`` stops the run —
on every backend and every level store.  Regression: the
check used to run only before generating a further level, so a run
bounded by ``k_max`` never checked the last level it kept.
"""

from __future__ import annotations

import pytest

from repro.core.generators import erdos_renyi
from repro.engine import EnumerationConfig, EnumerationEngine
from repro.errors import BudgetExceeded

ENGINE = EnumerationEngine()

BACKENDS = ("incore", "bitscan", "ooc", "threads", "multiprocess")
STORES = ("memory", "disk", "wah")


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(120, 0.3, seed=1)


def _config(backend, store, k_min=3, **fields):
    jobs = 2 if backend in ("threads", "multiprocess") else None
    return EnumerationConfig(
        backend=backend, k_min=k_min, level_store=store, jobs=jobs,
        **fields,
    )


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("k_max", [3, None])
def test_budget_checked_on_every_stored_level(graph, backend, store, k_max):
    free = ENGINE.run(graph, _config(backend, store, k_max=3))
    (seed_stats,) = free.level_stats
    seed_bytes = seed_stats.candidate_bytes
    assert seed_bytes > 0
    with pytest.raises(BudgetExceeded) as info:
        ENGINE.run(graph, _config(
            backend, store, k_max=k_max, max_candidate_bytes=seed_bytes - 1
        ))
    assert info.value.level == 3
    assert info.value.emitted == free.counters.maximal_emitted
    # the bound is inclusive: exactly the seed's bytes fits
    fits = ENGINE.run(graph, _config(
        backend, store, k_max=3, max_candidate_bytes=seed_bytes
    ))
    assert fits.cliques == free.cliques


@pytest.mark.parametrize("store", STORES)
def test_last_kept_level_is_checked(graph, store):
    """From ``k_min=2``, a budget between the seed level and the level
    kept under ``k_max=3`` trips at level 3, after the level-3 cliques
    went out."""
    free = ENGINE.run(graph, _config("incore", store, k_min=2, k_max=3))
    seed, last = free.level_stats
    assert last.candidate_bytes > seed.candidate_bytes
    with pytest.raises(BudgetExceeded) as info:
        ENGINE.run(graph, _config(
            "incore", store, k_min=2, k_max=3,
            max_candidate_bytes=last.candidate_bytes - 1,
        ))
    assert info.value.level == 3
    assert info.value.emitted == free.counters.maximal_emitted
