"""Seeded inputs of the four workloads.

Every builder takes the workload seed and returns the same graphs for
the same seed.  Generators are called through their modules so that the
traced run's wrappers (``layers.py``) see the calls as graph ingest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.bio import coexpression, correlation, expression
from repro.core import generators
from repro.core.graph import Graph

WORKLOADS = ("seed", "dense", "memory", "sweep")

#: scaled Init_K of the paper's Figure 5/6 runs 18/19/20
SEED_INIT_K = (9, 10, 11)

#: chain of the memory rung: the ``mouse_brain_dense()`` shape cut at
#: a largest clique of 18, so one job takes seconds, not tens
MEMORY_CHAIN = (18, 17, 16, 15, 14, 13, 12, 11, 10)

#: sweep: co-expression datasets and threshold ladder.  Several
#: datasets per run average out how much one dataset's planted modules
#: happen to merge with background genes, which sets the cost of its
#: jobs.
SWEEP_DATASETS = 8
SWEEP_GENES = 1000
SWEEP_CONDITIONS = 48
SWEEP_MODULES = ((6, 0.97),) * 16
SWEEP_DENSITIES = tuple(
    float(d) for d in np.linspace(0.003, 0.008, 5)
)
SWEEP_K_MIN = (2, 3, 4, 5, 6)


@dataclass(frozen=True)
class Job:
    """One enumeration input: a graph and the ``k_min`` to run it at."""

    label: str
    graph: Graph
    k_min: int


def _myogenic_like(seed: int) -> Graph:
    """The ``myogenic_like()`` planted-module chain at ``seed``."""
    sizes = [14, 13, 13, 12, 12, 11, 11, 10, 10, 9, 9]
    g, _ = generators.overlapping_cliques(
        n=724, clique_sizes=sizes, overlap=7, p=0.008, seed=seed
    )
    cursor = sum(sizes) - 7 * (len(sizes) - 1)
    for size, count in ((8, 14), (7, 34), (6, 26), (5, 30)):
        for _ in range(count):
            for i in range(cursor, cursor + size):
                for j in range(i + 1, cursor + size):
                    g.add_edge(i, j)
            cursor += size
    return g


def seed_jobs(seed: int) -> list[Job]:
    g = _myogenic_like(seed)
    return [Job(f"myogenic/k{k}", g, k) for k in SEED_INIT_K]


def dense_jobs(seed: int) -> list[Job]:
    # two er300 graphs per er600 one, so the median job is an er300 job
    # rather than the mean of the slowest er300 and fastest er600 jobs
    return [
        Job("er300", generators.erdos_renyi(300, 0.25, seed=seed), 2),
        Job("er600", generators.erdos_renyi(600, 0.15, seed=seed), 2),
        Job(
            "er300b",
            generators.erdos_renyi(300, 0.25, seed=seed + 7919),
            2,
        ),
    ]


def memory_jobs(seed: int) -> list[Job]:
    g, _ = generators.overlapping_cliques(
        n=1242, clique_sizes=list(MEMORY_CHAIN), overlap=9, p=0.003,
        seed=seed,
    )
    return [Job("brain-dense/top18", g, 3)]


def sweep_jobs(seed: int) -> list[Job]:
    """One job per (dataset, threshold, k_min): distinct cache keys."""
    modules = [expression.ModuleSpec(s, r) for s, r in SWEEP_MODULES]
    jobs = []
    for d, sub in enumerate(np.random.SeedSequence(seed).spawn(
        SWEEP_DATASETS
    )):
        ds = expression.synthetic_expression(
            SWEEP_GENES, SWEEP_CONDITIONS, modules,
            seed=int(sub.generate_state(1)[0]),
        )
        corr = correlation.spearman_correlation(ds.matrix)
        for density in SWEEP_DENSITIES:
            threshold = coexpression.threshold_for_density(corr, density)
            g = coexpression.correlation_graph(corr, threshold)
            for k in SWEEP_K_MIN:
                jobs.append(Job(f"d{d}/rho>={threshold:.4f}/k{k}", g, k))
    # a seeded order, so whatever prefix a run reaches samples the
    # whole ladder rather than only its sparse end
    order = np.random.default_rng(seed).permutation(len(jobs))
    return [jobs[i] for i in order]


BUILDERS = {
    "seed": seed_jobs,
    "dense": dense_jobs,
    "memory": memory_jobs,
    "sweep": sweep_jobs,
}


def build_jobs(workload: str, seed: int) -> list[Job]:
    return BUILDERS[workload](seed)


def warmup_job(workload: str) -> Job:
    """A small input outside every workload, run once during set-up."""
    g = generators.erdos_renyi(120, 0.2, seed=2**31 - 1)
    return Job("warmup", g, 3 if workload in ("seed", "memory") else 2)


def graph_digest(g: Graph) -> str:
    edges = sorted(tuple(sorted(e)) for e in g.edges())
    return hashlib.sha256(repr((g.n, edges)).encode()).hexdigest()


def input_digests(jobs: list[Job]) -> list[str]:
    return [f"{graph_digest(j.graph)}/k{j.k_min}" for j in jobs]
