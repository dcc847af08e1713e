"""A ``max_cliques`` trip delivers exactly the leading cliques.

The generation step emits each chunk's maximal cliques as one ordered
list through the emitter's ``batch`` method.  A budget that trips in
the middle of such a list must still deliver exactly the first
``max_cliques`` cliques of the unbounded run, on every backend, and
:class:`~repro.errors.BudgetExceeded` must report the same ``emitted``
and ``level`` as per-clique emission did.  A running service job must
still stop at its next emission once cancelled.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.generators import erdos_renyi
from repro.engine import EnumerationConfig, EnumerationEngine, get_backend
from repro.errors import BudgetExceeded
from repro.service import JobScheduler, JobSpec, JobStatus

ENGINE = EnumerationEngine()

#: (label, config fields): every backend, and every store of the
#: batched in-core loop
CASES = [
    ("incore", {}),
    ("incore-disk", {"level_store": "disk", "options": {"chunk_size": 8}}),
    ("incore-wah", {"level_store": "wah"}),
    ("bitscan", {"backend": "bitscan"}),
    ("ooc", {"backend": "ooc"}),
    ("threads", {"backend": "threads", "jobs": 2}),
    ("multiprocess", {"backend": "multiprocess", "jobs": 2}),
]


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(70, 0.3, seed=5)


@pytest.fixture(scope="module")
def full(graph):
    cliques = ENGINE.run(graph, EnumerationConfig(k_min=2)).cliques
    # the budgets below land inside the level-3 and level-4 lists
    assert {2, 3, 4} <= {len(c) for c in cliques}
    return cliques


def _budgets(full):
    first = {}
    for i, clique in enumerate(full):
        first.setdefault(len(clique), i)
    return [1, first[3] + 5, first[4] + 2, len(full) - 1]


@pytest.mark.parametrize("label,fields", CASES, ids=[c[0] for c in CASES])
def test_trip_delivers_the_leading_cliques(graph, full, label, fields):
    budgets = _budgets(full)
    if label == "multiprocess":
        budgets = budgets[1:3]  # each run spawns a worker pool
    for budget in budgets:
        delivered = []
        config = EnumerationConfig(k_min=2, max_cliques=budget, **fields)
        with pytest.raises(BudgetExceeded) as info:
            ENGINE.run(graph, config, on_clique=delivered.append)
        assert delivered == full[:budget]
        assert info.value.emitted == budget
        # k_min = 2: the level being generated is the tripping size
        assert info.value.level == len(full[budget])


def _incore_twin(fields):
    """``incore`` config fields on the same effective level store."""
    backend = fields.get("backend", "incore")
    return {
        "level_store": fields.get("level_store")
        or get_backend(backend).storage,
        "options": fields.get("options", {}),
    }


@pytest.mark.parametrize("label,fields", CASES, ids=[c[0] for c in CASES])
def test_candidate_budget_trips_at_the_incore_level(graph, label, fields):
    """``max_candidate_bytes`` is checked on every stored level, so each
    backend trips where ``incore`` on the same store does: on the seed
    level (1000 bytes) and on the peak generated level (peak - 1)."""
    twin = _incore_twin(fields)
    ref = ENGINE.run(graph, EnumerationConfig(k_min=2, **twin))
    res = ENGINE.run(graph, EnumerationConfig(k_min=2, **fields))
    assert res.level_stats == ref.level_stats
    for budget, level in ((1000, 2), (ref.peak_candidate_bytes() - 1, 3)):
        trips = []
        for case in (twin, fields):
            config = EnumerationConfig(
                k_min=2, max_candidate_bytes=budget, **case
            )
            with pytest.raises(BudgetExceeded) as info:
                ENGINE.run(graph, config)
            trips.append((info.value.level, info.value.emitted))
        assert trips[0] == trips[1]
        assert trips[1][0] == level


def test_exact_budget_does_not_trip(graph, full):
    res = ENGINE.run(
        graph, EnumerationConfig(k_min=2, max_cliques=len(full))
    )
    assert res.cliques == full


def test_cancel_stops_a_dense_job_at_the_next_emission():
    g = erdos_renyi(300, 0.25, seed=1)  # the dense rung's er300 graph
    delivered: list[tuple[int, ...]] = []
    started, release = threading.Event(), threading.Event()
    with JobScheduler(workers=1) as sched:
        original = sched.engine.run

        def gated(graph, config=None, on_clique=None):
            def hook(clique):
                on_clique(clique)
                delivered.append(clique)
                if len(delivered) == 1000:
                    started.set()
                    release.wait(30)

            return original(graph, config, hook)

        sched.engine.run = gated
        job = sched.submit(
            JobSpec(
                graph=g,
                config=EnumerationConfig(k_min=2),
                sink="count",
                use_cache=False,
            )
        )
        assert started.wait(30)
        assert sched.cancel(job.id)
        release.set()
        job.wait(30)
        sched.engine.run = original
    assert job.status is JobStatus.CANCELLED
    assert len(delivered) == 1000  # of 39,179 maximal cliques
