"""Metric catalogue: name -> (unit, better).  ``BENCHMARK.json`` lists
the same names; the self-tests keep the two in step."""

from __future__ import annotations

END_TO_END = {
    "setup_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "job_s.p50": ("s", "lower"),
    "job_s.p90": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

CELL_NAMES = (
    "incore", "bitscan", "ooc", "incore-wah", "incore-wah-bitset",
    "incore-wah-python", "threads-j2", "multiprocess-j2",
)

PER_LAYER = {
    "graph_io.build_s": ("s", "lower"),
    "graph_io.fingerprint_s": ("s", "lower"),
    "graph_io.fingerprint_calls": ("count", "lower"),
    "graph_io.decode_s": ("s", "lower"),
    "seed.s": ("s", "lower"),
    "seed.share": ("ratio", "lower"),
    "seed.sublists": ("count", "lower"),
    "step.s": ("s", "lower"),
    "step.share": ("ratio", "lower"),
    "step.calls": ("count", "lower"),
    "step.pair_checks": ("count", "lower"),
    "step.cliques_generated": ("count", "lower"),
    "step.yield": ("ratio", "higher"),
    "level_store.append_s": ("s", "lower"),
    "level_store.stream_s": ("s", "lower"),
    "level_store.peak_candidate_bytes": ("B", "lower"),
    "level_store.rss_per_candidate_byte": ("B/B", "lower"),
    "level_store.io_bytes": ("B", "lower"),
    "sinks.emit_s": ("s", "lower"),
    "sinks.cliques": ("count", "higher"),
    "protocol.decode_s": ("s", "lower"),
    "protocol.encode_s": ("s", "lower"),
    "protocol.request_bytes": ("B", "lower"),
    "protocol.response_bytes": ("B", "lower"),
    "protocol.overhead_s": ("s", "lower"),
    "scheduler.queue_wait_s.p50": ("s", "lower"),
    "scheduler.deferred": ("count", "lower"),
    "scheduler.store_disk": ("count", "lower"),
    "scheduler.store_memory": ("count", "higher"),
    "scheduler.predict_log10_ratio.p50": ("log10", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.get_s": ("s", "lower"),
    "cache.put_s": ("s", "lower"),
    "hit_s.p50": ("s", "lower"),
    "hit_s.p90": ("s", "lower"),
    "hit_s.samples": ("count", "higher"),
    "job_s.samples": ("count", "higher"),
    "failed_frac": ("ratio", "lower"),
    "obs.trace_overhead_frac": ("ratio", "lower"),
}
for _cell in CELL_NAMES:
    PER_LAYER[f"cell.{_cell}.job_s"] = ("s", "lower")
    PER_LAYER[f"cell.{_cell}.peak_rss_mb"] = ("MiB", "lower")


def render(values: dict, catalogue: dict) -> dict:
    """The result's ``metrics`` object: every catalogue name, in order;
    a name the run did not measure reads 0."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, (unit, _) in catalogue.items()
    }
