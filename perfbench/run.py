"""The repository benchmark: four seeded workloads, oracle-checked.

Usage::

    python3 perfbench/run.py --workload {seed,dense,memory,sweep} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics, measured with no
instrumentation.  ``--trace 1`` prints the per-layer metrics: it repeats
the timed phase untraced, then traced (``layers.py`` wraps each layer's
public functions), and on ``dense`` and ``memory`` runs one job per
configuration cell, each in a fresh process.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every job's cliques are checked against networkx; the
exit code is 1 when any job failed, timed out or was wrong.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from common import ROOT, require_program

require_program()

import engine_bench  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import sweep_bench  # noqa: E402
from common import (  # noqa: E402
    HERE,
    Tally,
    child_env,
    host_factor,
    log10_ratio,
    make_run_dir,
    p50,
    p90,
    peak_rss_mb,
    process_age_s,
    rss_bytes,
)
from oracle import Oracle  # noqa: E402

#: set-up is measured in this many processes: this one plus probes
SETUP_SAMPLES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: child processes of a run
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--cell", choices=metrics.CELL_NAMES,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- set-up ------------------------------------------------------------------

class Setup:
    """Inputs, plus the server and its client on ``sweep``."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.jobs = inputs.build_jobs(workload, seed)
        self.server = self.client = None
        warmup = inputs.warmup_job(workload)
        if workload == "sweep":
            self.server = sweep_bench.Server(run_dir, "main")
            try:
                self.client = self.server.connect()
                sweep_bench.warm_up(self.client, warmup)
            except BaseException:
                self.close()
                raise
        else:
            engine_bench.warm_up(warmup)
        self.seconds = process_age_s()
        self.factor = host_factor()

    @property
    def normalised_s(self) -> float:
        return self.seconds / self.factor

    def close(self) -> None:
        if self.server is not None:
            self.server.stop(self.client)
            self.server = self.client = None


def setup_probes(args, run_dir: Path) -> list[float]:
    """Set-up time of fresh processes doing the same set-up."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            env=child_env(run_dir), capture_output=True, text=True,
            timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])[
            "setup_s"])
    return out


# -- engine workloads --------------------------------------------------------

def engine_e2e(args, setup, oracle, tally):
    records, elapsed = engine_bench.timed_phase(setup.jobs, args.seconds)
    peak = peak_rss_mb()
    good = engine_bench.check_records(records, setup.jobs, oracle, tally)
    # times divided by the host slowness around each job: the times a
    # host of nominal speed would have shown
    lat = [r.latency / r.factor for r in good]
    norm_elapsed = elapsed * (
        sum(r.latency / r.factor for r in records)
        / sum(r.latency for r in records)
    )
    return {
        "jobs_per_s": len(good) / norm_elapsed,
        "job_s.p50": p50(lat),
        "job_s.p90": p90(lat),
        "peak_rss_mb": peak,
    }, {
        "job_s.samples": len(lat),
        "raw jobs_per_s": len(good) / elapsed,
        "raw job_s.p50": p50([r.latency for r in good]),
        "host factor p50": p50([r.factor for r in records]),
    }


def engine_traced(args, setup, oracle, tally, untraced_p50, run_dir):
    tracer = layers.LayerTracer().install()
    try:
        rebuilt = inputs.build_jobs(args.workload, args.seed)
        records, _ = engine_bench.timed_phase(
            setup.jobs, args.seconds, measure_rss=True
        )
    finally:
        tracer.uninstall()
    if inputs.input_digests(rebuilt) != inputs.input_digests(setup.jobs):
        raise RuntimeError("inputs differ between two builds of one seed")
    good = engine_bench.check_records(records, setup.jobs, oracle, tally)
    snap = tracer.snapshot()
    out = layer_values(snap)
    out["level_store.rss_per_candidate_byte"] = p50(
        [r.rss_per_byte for r in good if r.rss_per_byte is not None]
    )
    out["obs.trace_overhead_frac"] = (
        p50([r.latency / r.factor for r in good]) / untraced_p50 - 1.0
    )
    if args.workload in ("dense", "memory"):
        first = setup.jobs[0]
        cells = engine_bench.run_cells(
            args.workload, args.seed, run_dir,
            oracle.digest(first.graph, first.k_min), tally,
        )
        for cell, report in cells.items():
            out[f"cell.{cell}.job_s"] = report["job_s"]
            out[f"cell.{cell}.peak_rss_mb"] = report["peak_rss_mb"]
    return out, snap


# -- sweep -------------------------------------------------------------------

def sweep_e2e(args, setup, oracle, tally):
    peaks = []
    records, elapsed, before, after = sweep_bench.timed_phase(
        setup.client, setup.jobs, args.seconds, sweep_bench.MIN_MISSES,
        on_min_misses=lambda: peaks.append(setup.server.peak_rss_mb()),
    )
    peak = peaks[0] if peaks else setup.server.peak_rss_mb()
    setup.close()
    good = sweep_bench.check_records(records, setup.jobs, oracle, tally)
    misses = [r.latency / r.factor for r in good if not r.hit]
    hits = [r.latency / r.factor for r in good if r.hit]
    ran = [r.job for r in good if not r.hit]
    segments = {r.segment: r.segment_s / r.factor for r in records}
    e2e = {
        "jobs_per_s": len(good) / sum(segments.values()),
        "job_s.p50": p50(misses),
        "job_s.p90": p90(misses),
        "peak_rss_mb": peak,
    }
    ratios = [
        log10_ratio(j["predicted_peak_bytes"], j["measured_peak_bytes"])
        for j in ran
    ]
    extra = {
        "raw jobs_per_s": len(good) / elapsed,
        "raw job_s.p50": p50([r.latency for r in good if not r.hit]),
        "host factor p50": p50([r.factor for r in records]),
        "job_s.samples": len(misses),
        "hit_s.p50": p50(hits),
        "hit_s.p90": p90(hits),
        "hit_s.samples": len(hits),
        "protocol.overhead_s": p50([
            r.latency - r.job["queued_seconds"] - r.job["run_seconds"]
            for r in good
        ]),
        "scheduler.queue_wait_s.p50": p50(
            [r.job["queued_seconds"] for r in good]
        ),
        "scheduler.deferred": (after["admission"]["deferred_total"]
                               - before["admission"]["deferred_total"]),
        "scheduler.store_disk": sum(j["level_store"] == "disk"
                                    for j in ran),
        "scheduler.store_memory": sum(j["level_store"] == "memory"
                                      for j in ran),
        "scheduler.predict_log10_ratio.p50": p50(
            [r for r in ratios if r is not None]
        ),
        "cache.hits": after["cache"]["hits"] - before["cache"]["hits"],
        "cache.misses": (after["cache"]["misses"]
                         - before["cache"]["misses"]),
    }
    return e2e, extra


def sweep_traced(args, setup, oracle, tally, untraced_p50, run_dir):
    stats_out = run_dir / "server-spans.json"
    tracer = layers.LayerTracer().install()
    server = client = None
    try:
        rebuilt = inputs.build_jobs(args.workload, args.seed)
        server = sweep_bench.Server(run_dir, "traced", stats_out)
        client = server.connect()
        sweep_bench.warm_up(client, inputs.warmup_job(args.workload))
        rss0 = rss_bytes(server.proc.pid)
        records, _, _, _ = sweep_bench.timed_phase(
            client, setup.jobs, args.seconds
        )
        peak = server.peak_rss_mb() * 1048576
    finally:
        tracer.uninstall()
        server_snap = server.stop(client) if server is not None else None
    if server_snap is None:
        raise RuntimeError("traced server wrote no spans")
    if inputs.input_digests(rebuilt) != inputs.input_digests(setup.jobs):
        raise RuntimeError("inputs differ between two builds of one seed")
    good = sweep_bench.check_records(records, setup.jobs, oracle, tally)
    client_snap = tracer.snapshot()
    snap = layers.merge(client_snap, server_snap)
    out = layer_values(snap)
    out["protocol.request_bytes"] = client_snap["counts"].get(
        "protocol.encoded_bytes", 0)
    out["protocol.response_bytes"] = server_snap["counts"].get(
        "protocol.encoded_bytes", 0)
    peak_bytes = snap["peaks"].get("level_store.peak_candidate_bytes", 0)
    if peak_bytes:
        out["level_store.rss_per_candidate_byte"] = (
            (peak - rss0) / peak_bytes
        )
    out["obs.trace_overhead_frac"] = (
        p50([r.latency / r.factor for r in good if not r.hit])
        / untraced_p50 - 1.0
    )
    return out, snap


# -- per-layer values from a span snapshot -----------------------------------

def layer_values(snap: dict) -> dict:
    s, calls = snap["self_s"], snap["calls"]
    counts, peaks = snap["counts"], snap["peaks"]
    jobs_total = snap["total_s"].get("engine", 0.0)
    pairs = counts.get("step.pair_checks", 0)
    made = counts.get("step.cliques_generated", 0)

    def share(layer):
        return s.get(layer, 0.0) / jobs_total if jobs_total else 0.0

    return {
        "graph_io.build_s": s.get("graph_io.build", 0.0),
        "graph_io.fingerprint_s": s.get("graph_io.fingerprint", 0.0),
        "graph_io.fingerprint_calls": calls.get("graph_io.fingerprint", 0),
        "graph_io.decode_s": s.get("graph_io.decode", 0.0),
        "seed.s": s.get("seed", 0.0),
        "seed.share": share("seed"),
        "seed.sublists": counts.get("seed.sublists", 0),
        "step.s": s.get("step", 0.0),
        "step.share": share("step"),
        "step.calls": calls.get("step", 0),
        "step.pair_checks": pairs,
        "step.cliques_generated": made,
        "step.yield": made / pairs if pairs else 0.0,
        "level_store.append_s": s.get("level_store.append", 0.0),
        "level_store.stream_s": s.get("level_store.stream", 0.0),
        "level_store.peak_candidate_bytes": peaks.get(
            "level_store.peak_candidate_bytes", 0),
        "level_store.io_bytes": counts.get("level_store.io_bytes", 0),
        "sinks.emit_s": s.get("sinks.emit", 0.0),
        "sinks.cliques": calls.get("sinks.emit", 0),
        "protocol.decode_s": s.get("protocol.decode", 0.0),
        "protocol.encode_s": s.get("protocol.encode", 0.0),
        "cache.get_s": s.get("cache.get", 0.0),
        "cache.put_s": s.get("cache.put", 0.0),
    }


def self_time_table(snap: dict) -> list[str]:
    rows = sorted(snap["self_s"].items(), key=lambda kv: -kv[1])
    return [f"  self {layer:<22} {sec:10.4f} s  {int(snap['calls'][layer]):>9}"
            " calls" for layer, sec in rows]


# -- driver ------------------------------------------------------------------

def report(values: dict, catalogue: dict, tally: Tally) -> int:
    correct = tally.bad == 0 and tally.attempted > 0
    for name, (unit, _) in catalogue.items():
        print(f"  {name:<38} {values.get(name, 0.0):>16.6g} {unit}")
    print(f"  jobs attempted {tally.attempted}, failed {tally.failed}, "
          f"refused {tally.refused}, timed out {tally.timed_out}, "
          f"wrong {tally.wrong}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.bad,
        "metrics": metrics.render(values, catalogue),
    }))
    return 0 if correct else 1


def run(args, run_dir: Path) -> int:
    if args.cell is not None:
        print(json.dumps(engine_bench.cell_main(
            args.workload, args.seed, args.cell, run_dir)))
        return 0
    setup = Setup(args.workload, args.seed, run_dir)
    if args.setup_probe:
        setup.close()
        print(json.dumps({"setup_s": setup.normalised_s}))
        return 0
    oracle, tally = Oracle(), Tally()
    try:
        if args.workload == "sweep":
            e2e, extra = sweep_e2e(args, setup, oracle, tally)
        else:
            e2e, extra = engine_e2e(args, setup, oracle, tally)
    finally:
        setup.close()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    if args.trace == 0:
        # not part of the result: raw times, sweep-only figures and
        # sample counts
        for name in ("raw jobs_per_s", "raw job_s.p50", "host factor p50",
                     "job_s.samples", "hit_s.p50", "hit_s.p90",
                     "hit_s.samples"):
            if name in extra:
                print(f"  ({name} {extra[name]:.6g})")
        samples = [setup.normalised_s, *setup_probes(args, run_dir)]
        e2e["setup_s"] = statistics.median(samples)
        print(f"  (setup_s samples {', '.join(f'{x:.4f}' for x in samples)})")
        return report(e2e, metrics.END_TO_END, tally)
    traced = sweep_traced if args.workload == "sweep" else engine_traced
    values, snap = traced(args, setup, oracle, tally, e2e["job_s.p50"],
                          run_dir)
    values.update(extra)
    values["failed_frac"] = tally.failed_frac
    print(f"  (host factor p50 {extra['host factor p50']:.6g})")
    print("\n".join(self_time_table(snap)))
    return report(values, metrics.PER_LAYER, tally)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    run_dir = make_run_dir()
    try:
        return run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
