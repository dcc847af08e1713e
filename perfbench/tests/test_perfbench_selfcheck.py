"""Self-tests of the benchmark: seeded inputs, tracer restoration, the
oracle check, and failure accounting.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from common import (  # noqa: E402
    ROOT,
    RUN_DIR,
    Tally,
    cliques_digest,
    require_program,
)

require_program()

import engine_bench  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import sweep_bench  # noqa: E402
from oracle import Oracle  # noqa: E402
from repro.core.generators import planted_clique  # noqa: E402
from repro.engine import EnumerationConfig, EnumerationEngine  # noqa: E402
from repro.service.sinks import CollectSink  # noqa: E402


def _small_job(k_min=2):
    return inputs.Job("small", planted_clique(40, 7, 0.2, seed=3)[0], k_min)


@pytest.fixture
def run_dir(monkeypatch):
    monkeypatch.chdir(ROOT)
    path = RUN_DIR / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        RUN_DIR.rmdir()
    except OSError:
        pass


# -- seeded inputs -----------------------------------------------------------

@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = inputs.input_digests(inputs.build_jobs(workload, 5))
    again = inputs.input_digests(inputs.build_jobs(workload, 5))
    assert first == again


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_different_seed_gives_different_graphs(workload):
    a = {inputs.graph_digest(j.graph)
         for j in inputs.build_jobs(workload, 5)}
    b = {inputs.graph_digest(j.graph)
         for j in inputs.build_jobs(workload, 6)}
    assert a.isdisjoint(b)


def test_warmup_input_is_outside_every_workload():
    warm = inputs.graph_digest(inputs.warmup_job("seed").graph)
    for workload in inputs.WORKLOADS:
        digests = {inputs.graph_digest(j.graph)
                   for j in inputs.build_jobs(workload, 1)}
        assert warm not in digests


# -- tracer -------------------------------------------------------------------

def test_tracer_records_engine_layers_and_restores_everything():
    before = layers.originals()
    tracer = layers.LayerTracer().install()
    try:
        assert any(layers.originals()[key] is not obj
                   for key, obj in before.items())
        job = _small_job(3)
        sink = CollectSink()
        for cfg in (EnumerationConfig(k_min=3),
                    EnumerationConfig(k_min=3, level_store="wah"),
                    EnumerationConfig(k_min=3, backend="ooc")):
            EnumerationEngine().run(job.graph, cfg, on_clique=sink)
    finally:
        tracer.uninstall()
    after = layers.originals()
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())
    snap = tracer.snapshot()
    for layer in ("engine", "seed", "step", "level_store.append",
                  "level_store.stream", "sinks.emit"):
        assert snap["calls"].get(layer, 0) > 0, layer
    assert snap["counts"]["level_store.io_bytes"] > 0  # the ooc run
    assert snap["calls"]["sinks.emit"] == sink.count
    # self times never exceed the wall time of the jobs around them
    total = snap["total_s"]["engine"]
    assert sum(v for k, v in snap["self_s"].items()
               if not k.startswith("graph_io")) <= total * 1.001


def test_tracer_sees_the_service_layers(tmp_path):
    from repro.service.cache import ResultCache
    from repro.service.client import ServiceClient
    from repro.service.scheduler import JobScheduler
    from repro.service.server import EnumerationServer

    before = layers.originals()
    tracer = layers.LayerTracer().install()
    try:
        scheduler = JobScheduler(workers=1, cache=ResultCache(8))
        sock = tmp_path / "s.sock"
        with EnumerationServer(scheduler, socket_path=sock):
            with ServiceClient(str(sock)) as client:
                job = _small_job()
                for _ in range(2):
                    job_id = client.submit(job.graph, k_min=2)
                    client.wait(job_id)
        scheduler.shutdown(wait=True)
    finally:
        tracer.uninstall()
    assert all(layers.originals()[k] is v for k, v in before.items())
    calls = tracer.snapshot()["calls"]
    for layer in ("protocol.decode", "protocol.encode", "graph_io.decode",
                  "graph_io.fingerprint", "cache.get", "cache.put"):
        assert calls.get(layer, 0) > 0, layer


# -- oracle -------------------------------------------------------------------

def test_oracle_accepts_the_engine_answer_and_rejects_one_bad_clique():
    job = _small_job()
    sink = CollectSink()
    EnumerationEngine().run(job.graph, EnumerationConfig(k_min=2),
                            on_clique=sink)
    oracle = Oracle()
    assert oracle.check(job.graph, 2, sink.cliques)
    big = max(range(len(sink.cliques)), key=lambda i: len(sink.cliques[i]))
    corrupted = list(sink.cliques)
    corrupted[big] = corrupted[big][:-1]
    assert not oracle.check(job.graph, 2, corrupted)

    rec = engine_bench.JobRecord(0, 0.1, cliques_digest(corrupted))
    tally = Tally()
    good = engine_bench.check_records([rec], [job], oracle, tally)
    assert good == [] and tally.wrong == 1 and tally.failed_frac == 1.0


def test_sweep_hit_must_match_its_miss():
    job = _small_job()
    oracle = Oracle()
    right = oracle.digest(job.graph, 2)
    miss = sweep_bench.SweepRecord(0, False, 0.1, {"cache_hit": False},
                                   right)
    bad_hit = sweep_bench.SweepRecord(0, True, 0.01, {"cache_hit": True},
                                      "0" * 64)
    tally = Tally()
    good = sweep_bench.check_records([miss, bad_hit], [job], oracle, tally)
    assert good == [miss] and tally.wrong == 1
    assert tally.failed_frac == 0.5


# -- failure accounting -------------------------------------------------------

def test_failed_engine_job_lands_in_failed_frac():
    job = _small_job()
    records, _ = engine_bench.timed_phase(
        [job], 0.0,
        config_of=lambda j: EnumerationConfig(k_min=2, max_cliques=1),
    )
    tally = Tally()
    engine_bench.check_records(records, [job], Oracle(), tally)
    assert tally.failed == tally.attempted == 1
    assert tally.failed_frac == 1.0


def test_timed_out_engine_job_lands_in_failed_frac():
    job = _small_job()
    records, _ = engine_bench.timed_phase([job], 0.0, timeout_s=0.0)
    tally = Tally()
    engine_bench.check_records(records, [job], Oracle(), tally)
    assert tally.timed_out == tally.attempted == 1
    assert tally.failed_frac == 1.0


def test_timed_out_and_failed_sweep_jobs_land_in_failed_frac(run_dir):
    server = sweep_bench.Server(run_dir, "selftest")
    client = None
    try:
        client = server.connect()
        slow = inputs.build_jobs("dense", 1)[1]
        records, _, _, _ = sweep_bench.timed_phase(
            client, [slow], 0.0, wait_timeout=0.001
        )
    finally:
        server.stop(client)
    tally = Tally()
    sweep_bench.check_records(records, [slow], Oracle(), tally)
    # the miss times out; its hit is then not served from the cache
    assert tally.timed_out >= 1
    assert tally.bad == tally.attempted == 2
    assert tally.failed_frac == 1.0


# -- the command --------------------------------------------------------------

def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == metrics.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == metrics.PER_LAYER


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "seed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
