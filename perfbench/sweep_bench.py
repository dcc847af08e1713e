"""The ``sweep`` workload: a co-expression threshold sweep through the
job service.

One client process holds one connection to ``repro serve --workers 2
--memory-budget 256M`` on a unix socket.  The loop is closed with at most
two jobs in flight.  Every key is submitted twice: first as a miss (a
cache write), then, once that miss has been collected, as a hit (a cache
read).  Every job is inline, ``collect`` sink, ``level_store="auto"``;
its cliques are fetched.  Latency runs from submit until the cliques are
received.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from common import (
    HERE,
    JOB_TIMEOUT_S,
    Tally,
    child_env,
    cliques_digest,
    peak_rss_mb,
    reference_kernel,
    speed_factors,
)
from repro.engine import EnumerationConfig
from repro.errors import ServiceError
from repro.service.client import ServiceClient

WORKERS = 2
MEMORY_BUDGET = "256M"
#: the percentile job_s.p90 needs >= 10 samples beyond it
MIN_MISSES = 100
#: however slow the program, a phase ends after this many seconds
PHASE_CAP_S = 100.0
#: submits per segment; the host is timed between segments
SEGMENT = 10


@dataclass
class SweepRecord:
    index: int
    hit: bool
    latency: float
    job: dict | None = None
    digest: str = ""
    error: str | None = None
    timed_out: bool = False
    refused: bool = False
    #: time spent digesting the cliques, after the latency was taken
    check_s: float = 0.0
    #: reference-kernel time measured before the job's segment
    ref_s: float = 0.0
    #: the job's segment of submits and the segment's wall time
    segment: int = 0
    segment_s: float = 0.0
    #: host slowness around the segment (see ``common.speed_factors``)
    factor: float = 1.0


class Server:
    """A ``repro serve`` child process on a unix socket.

    ``stats_out`` starts it under ``traced_server.py`` instead, which
    wraps the server's layers and writes their spans there on exit.
    """

    def __init__(self, run_dir: Path, name: str,
                 stats_out: Path | None = None):
        self.socket = (run_dir / f"{name}.sock").relative_to(Path.cwd())
        self.stats_out = stats_out
        args = ["serve", "--socket", str(self.socket), "--workers",
                str(WORKERS), "--memory-budget", MEMORY_BUDGET]
        if stats_out is None:
            cmd = [sys.executable, "-m", "repro.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_server.py"),
                   str(stats_out), *args]
        self._log = open(run_dir / f"{name}.log", "wb")
        self.proc = subprocess.Popen(
            cmd, env=child_env(run_dir), stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def connect(self, timeout: float = 60.0) -> ServiceClient:
        """Connect and ``ping``; retries until the server listens."""
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode}"
                )
            try:
                client = ServiceClient(str(self.socket))
                client.ping()
                return client
            except (ConnectionError, ServiceError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self, client: ServiceClient | None) -> dict | None:
        """Shut down (draining in-flight jobs); returns the traced
        server's span snapshot, if any."""
        try:
            if client is None:
                self.proc.terminate()
            else:
                client.shutdown_server()
                client.close()
            self.proc.wait(timeout=60)
        except (ServiceError, subprocess.TimeoutExpired, OSError):
            self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()
        if self.stats_out is not None and self.stats_out.exists():
            return json.loads(self.stats_out.read_text())
        return None


def _config(job) -> EnumerationConfig:
    return EnumerationConfig(k_min=job.k_min, level_store="auto")


def _submit(client, job, index, hit, records, pending) -> None:
    t0 = time.perf_counter()
    try:
        job_id = client.submit(job.graph, _config(job), sink="collect")
    except ServiceError as exc:
        records.append(SweepRecord(index, hit, time.perf_counter() - t0,
                                   error=str(exc), refused=True))
        return
    pending.append((job_id, index, hit, t0))


def _collect(client, pending, records, wait_timeout) -> None:
    job_id, index, hit, t0 = pending.pop(0)
    rec = SweepRecord(index, hit, 0.0)
    try:
        job = client.wait(job_id, timeout=wait_timeout)
        if job["status"] == "done":
            rec.job = client.result(job_id)
        else:
            rec.job = job
            rec.error = f"job {job['status']}: {job.get('error')}"
    except TimeoutError as exc:
        rec.error, rec.timed_out = str(exc), True
        client.cancel(job_id)
    except ServiceError as exc:
        rec.error = str(exc)
    t1 = time.perf_counter()
    rec.latency = t1 - t0
    if rec.job is not None:
        rec.digest = cliques_digest(rec.job.pop("cliques", []))
    rec.check_s = time.perf_counter() - t1
    records.append(rec)


def submit_order(n: int):
    """``(key, is_hit)`` in submit order: m0 m1 h0 m2 h1 m3 h2 ... h(n-1).

    With two jobs in flight, each hit is submitted right after its miss
    has been collected.
    """
    if n:
        yield 0, False
    for k in range(1, n):
        yield k, False
        yield k - 1, True
    if n:
        yield n - 1, True


def timed_phase(client, jobs, seconds: float, min_misses: int = 0,
                wait_timeout: float = JOB_TIMEOUT_S, on_min_misses=None):
    """Run the closed loop for ``seconds`` (and at least ``min_misses``
    misses, up to ``PHASE_CAP_S``) or until the key ladder runs out.

    ``on_min_misses()`` is called once, at the first segment boundary
    with ``min_misses`` misses done: the server keeps results and jobs,
    so its memory grows with the number of keys served, and a reading
    taken there does not depend on how fast the run went.

    Jobs go in segments of ``SEGMENT`` submits.  Within a segment two
    jobs are in flight: collecting the oldest job submits the next one.
    Between segments the window drains and one
    :func:`~common.reference_kernel` run times the host while the server
    is idle.  Returns ``(records, elapsed, stats_before, stats_after)``
    where the stats are the server's ``stats`` op around the phase.  The
    kernel and digesting cliques are not counted in ``elapsed``.
    """
    records: list[SweepRecord] = []
    segments: list[list[SweepRecord]] = []
    before = client.stats()
    elapsed = 0.0
    order = list(submit_order(len(jobs)))
    for start in range(0, len(order), SEGMENT):
        misses = sum(1 for r in records if not r.hit)
        if on_min_misses is not None and misses >= min_misses:
            on_min_misses()
            on_min_misses = None
        if segments and elapsed >= seconds and (
            misses >= min_misses or elapsed >= PHASE_CAP_S
        ):
            break
        ref_s = reference_kernel()
        first = len(records)
        pending: list = []
        t0 = time.perf_counter()
        for index, hit in order[start:start + SEGMENT]:
            if len(pending) == 2:
                _collect(client, pending, records, wait_timeout)
            _submit(client, jobs[index], index, hit, records, pending)
        while pending:
            _collect(client, pending, records, wait_timeout)
        done = records[first:]
        segment_s = time.perf_counter() - t0 - sum(r.check_s for r in done)
        for rec in done:
            rec.segment, rec.ref_s, rec.segment_s = (
                len(segments), ref_s, segment_s
            )
        segments.append(done)
        elapsed += segment_s
    factors = speed_factors([seg[0].ref_s for seg in segments])
    for seg, f in zip(segments, factors):
        for rec in seg:
            rec.factor = f
    return records, elapsed, before, client.stats()


def check_records(records, jobs, oracle, tally: Tally) -> list[SweepRecord]:
    """Tally outcomes; a hit must also match its miss's payload."""
    good = []
    miss_digest = {}
    for rec in records:
        tally.attempted += 1
        if rec.refused:
            tally.refused += 1
            continue
        if rec.timed_out:
            tally.timed_out += 1
            continue
        if rec.error is not None:
            tally.failed += 1
            continue
        job = jobs[rec.index]
        digest = rec.digest
        expected = oracle.digest(job.graph, job.k_min)
        if rec.hit:
            ok = rec.job.get("cache_hit") and digest == miss_digest.get(
                rec.index, expected
            )
        else:
            miss_digest[rec.index] = digest
            ok = not rec.job.get("cache_hit")
        if not ok or digest != expected:
            tally.wrong += 1
            continue
        good.append(rec)
    return good


def warm_up(client, job) -> None:
    pending, records = [], []
    _submit(client, job, 0, False, records, pending)
    while pending:
        _collect(client, pending, records, JOB_TIMEOUT_S)
    if records[0].error is not None:
        raise RuntimeError(f"warm-up job failed: {records[0].error}")
