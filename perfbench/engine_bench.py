"""Engine workloads (``seed``, ``dense``, ``memory``): one process, one
job at a time, each job one ``EnumerationEngine.run`` into a collect
sink."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass

from common import (
    HERE,
    JOB_TIMEOUT_S,
    Tally,
    child_env,
    cliques_digest,
    peak_rss_mb,
    reference_sample,
    reset_peak_rss,
    rss_bytes,
    speed_factors,
)
from repro.engine import EnumerationConfig, EnumerationEngine
from repro.service.sinks import CollectSink

#: configuration cells of the traced run: name -> config fields
CELLS = {
    "incore": {},
    "bitscan": {"backend": "bitscan"},
    "ooc": {"backend": "ooc"},
    "incore-wah": {"level_store": "wah"},
    "incore-wah-bitset": {"level_store": "wah",
                          "compute_domain": "bitset"},
    "incore-wah-python": {"level_store": "wah", "kernel": "python"},
    "threads-j2": {"backend": "threads", "jobs": 2},
    "multiprocess-j2": {"backend": "multiprocess", "jobs": 2},
}

#: a cell subprocess (one job) is killed after this many seconds
CELL_TIMEOUT_S = 150.0


@dataclass
class JobRecord:
    index: int
    latency: float
    digest: str = ""
    error: str | None = None
    rss_per_byte: float | None = None
    #: time spent digesting the cliques, after the latency was taken
    check_s: float = 0.0
    #: reference-kernel time measured just before the job
    ref_s: float = 0.0
    #: host slowness around the job (see ``common.speed_factors``)
    factor: float = 1.0


def run_job(engine, job, config=None, timeout_s=JOB_TIMEOUT_S,
            measure_rss=False) -> JobRecord:
    """One timed job; errors and overlong runs are recorded, not
    raised.

    Only a digest of the cliques is kept, so the benchmark's own
    retention does not show in peak RSS.
    """
    cfg = config or EnumerationConfig(k_min=job.k_min)
    sink = CollectSink()
    if measure_rss:
        reset_peak_rss()
        rss0 = rss_bytes()
    t0 = time.perf_counter()
    try:
        result = engine.run(job.graph, cfg, on_clique=sink)
    except Exception as exc:  # noqa: BLE001 - a failed job is a datum
        return JobRecord(-1, time.perf_counter() - t0,
                         error=f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    record = JobRecord(-1, latency)
    if measure_rss and result.peak_candidate_bytes() > 0:
        grown = peak_rss_mb() * 1048576 - rss0
        record.rss_per_byte = grown / result.peak_candidate_bytes()
    if latency > timeout_s:
        record.error = f"timed out: {latency:.1f} s > {timeout_s} s"
    t1 = time.perf_counter()
    record.digest = cliques_digest(sink.cliques)
    record.check_s = time.perf_counter() - t1
    return record


def timed_phase(jobs, seconds: float, config_of=None,
                timeout_s=JOB_TIMEOUT_S, measure_rss=False):
    """Cycle through ``jobs`` until ``seconds`` have elapsed, ending on
    a whole cycle so every run has the same input mix.

    Each job is preceded by a :func:`~common.reference_sample` worth 4 %
    of the previous job's latency.
    Returns ``(records, elapsed)``; the kernel and digesting cliques are
    not counted in ``elapsed``.  ``config_of(job)`` may override a job's
    config (the self-tests use it to force failures).
    """
    engine = EnumerationEngine()
    records: list[JobRecord] = []
    t0 = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        job = jobs[i % len(jobs)]
        cfg = config_of(job) if config_of is not None else None
        budget = 0.04 * records[-1].latency if records else 0.0
        ref_s, spent = reference_sample(budget)
        rec = run_job(engine, job, cfg, timeout_s, measure_rss)
        rec.index = i % len(jobs)
        rec.ref_s = ref_s
        records.append(rec)
        paused += rec.check_s + spent
        i += 1
        elapsed = time.perf_counter() - t0 - paused
        if i % len(jobs) == 0 and elapsed >= seconds:
            factors = speed_factors([r.ref_s for r in records])
            for r, f in zip(records, factors):
                r.factor = f
            return records, elapsed


def check_records(records, jobs, oracle, tally: Tally) -> list[JobRecord]:
    """Tally outcomes against the oracle; returns the correct records."""
    good = []
    for rec in records:
        tally.attempted += 1
        if rec.error is not None:
            if rec.error.startswith("timed out"):
                tally.timed_out += 1
            else:
                tally.failed += 1
            continue
        job = jobs[rec.index]
        if rec.digest != oracle.digest(job.graph, job.k_min):
            tally.wrong += 1
            continue
        good.append(rec)
    return good


def warm_up(job) -> None:
    rec = run_job(EnumerationEngine(), job)
    if rec.error is not None:
        raise RuntimeError(f"warm-up job failed: {rec.error}")


# -- configuration cells -----------------------------------------------------

def cell_main(workload: str, seed: int, cell: str, run_dir) -> dict:
    """Body of a cell subprocess: one job of the workload's first input
    on the cell's configuration."""
    import resource

    from inputs import build_jobs

    job = build_jobs(workload, seed)[0]
    fields = dict(CELLS[cell])
    if fields.get("backend") == "ooc":
        fields["options"] = {"directory": str(run_dir)}
    rec = run_job(EnumerationEngine(), job,
                  EnumerationConfig(k_min=job.k_min, **fields))
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "job_s": rec.latency,
        "peak_rss_mb": max(peak_rss_mb(), children / 1024.0),
        "digest": rec.digest,
        "error": rec.error,
    }


def run_cells(workload: str, seed: int, run_dir, expected_digest: str,
              tally: Tally) -> dict[str, dict]:
    """Run every cell in a fresh process; check each against the
    oracle digest of the workload's first input."""
    out = {}
    for cell in CELLS:
        tally.attempted += 1
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               workload, "--seed", str(seed), "--cell", cell]
        try:
            proc = subprocess.run(
                cmd, env=child_env(run_dir), capture_output=True,
                text=True, timeout=CELL_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            tally.timed_out += 1
            continue
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            sys.stderr.write(proc.stderr)
            tally.failed += 1
            continue
        if report["error"] is not None or proc.returncode != 0:
            tally.failed += 1
            continue
        if report["digest"] != expected_digest:
            tally.wrong += 1
            continue
        out[cell] = report
    return out
