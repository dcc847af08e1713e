"""Per-layer timing from outside the program.

:class:`LayerTracer` wraps the public functions at each layer boundary
(the table in ``TARGETS``), records a span around every call, and
subtracts child spans from their parent, so ``self_s`` of a layer is the
time spent in that layer's own code.  Iterators returned by the store's
``stream*()`` methods are wrapped too: their ``next()`` calls are the
``level_store.stream`` spans.  Nothing inside ``src/`` is changed;
:meth:`LayerTracer.uninstall` puts every original object back.

A module-level function is replaced both in its defining module and in
every loaded ``repro`` module that imported it by name (``from x import
f``), because those bindings are what the callers look up.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

#: (layer, module, attribute path, kind); kind is "call" for a plain
#: span, "iter" for a method returning an iterator whose next() calls
#: are timed.
TARGETS = (
    ("graph_io.build", "repro.core.generators", "erdos_renyi", "call"),
    ("graph_io.build", "repro.core.generators", "overlapping_cliques",
     "call"),
    ("graph_io.build", "repro.bio.coexpression", "correlation_graph",
     "call"),
    ("graph_io.fingerprint", "repro.core.graph_io", "graph_fingerprint",
     "call"),
    ("graph_io.decode", "repro.service.protocol", "spec_from_payload",
     "call"),
    ("engine", "repro.engine.api", "EnumerationEngine.run", "call"),
    ("seed", "repro.engine.level_loop", "seed_level", "call"),
    ("step", "repro.core.clique_enumerator", "generate_next_level",
     "call"),
    ("step", "repro.core.clique_enumerator",
     "generate_next_level_bitscan", "call"),
    ("step", "repro.core.compressed_domain", "CompressedExpander.step",
     "call"),
    ("level_store.append", "repro.engine.level_store",
     "MemoryLevelStore.append", "call"),
    ("level_store.append", "repro.engine.level_store",
     "CompressedLevelStore.append", "call"),
    ("level_store.append", "repro.engine.level_store",
     "CompressedLevelStore.append_batch", "call"),
    ("level_store.append", "repro.core.out_of_core",
     "DiskLevelStore.append", "call"),
    ("level_store.stream", "repro.engine.level_store",
     "MemoryLevelStore.stream", "iter"),
    ("level_store.stream", "repro.engine.level_store",
     "CompressedLevelStore.stream", "iter"),
    ("level_store.stream", "repro.engine.level_store",
     "CompressedLevelStore.stream_batches", "iter"),
    ("level_store.stream", "repro.engine.level_store",
     "CompressedLevelStore.stream_entries", "iter"),
    ("level_store.stream", "repro.core.out_of_core",
     "DiskLevelStore.stream", "iter"),
    ("sinks.emit", "repro.service.sinks", "CliqueSink.__call__", "call"),
    ("protocol.decode", "repro.service.protocol", "decode_line", "call"),
    ("protocol.encode", "repro.service.protocol", "encode_line", "call"),
    ("cache.get", "repro.service.cache", "ResultCache.get", "call"),
    ("cache.put", "repro.service.cache", "ResultCache.put", "call"),
)

#: modules whose by-name imports must see the wrappers
_IMPORTERS = (
    "repro.engine.backends",
    "repro.engine.level_loop",
    "repro.core.out_of_core",
    "repro.service.scheduler",
    "repro.service.server",
    "repro.service.client",
    "repro.service.cache",
    "repro.parallel.thread_backend",
    "repro.parallel.mp_backend",
)


def _counters_arg(args):
    from repro.core.counters import OpCounters

    for arg in args:
        if isinstance(arg, OpCounters):
            return arg
    return None


class LayerTracer:
    """Self-time spans and counts per layer; thread-safe."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, layer: str, duration: float, child: float) -> None:
        with self._lock:
            self.self_s[layer] += duration - child
            self.total_s[layer] += duration
            self.calls[layer] += 1

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.peaks[name] = max(self.peaks[name], value)

    def _timed(self, layer: str, fn, observe=None):
        record = self._record
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            finish = observe(args) if observe is not None else None
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                child = stack.pop()
                record(layer, duration, child)
                if stack:
                    stack[-1] += duration
            if finish is not None:
                finish(out)
            return out

        return wrapper

    def _timed_iter(self, layer: str, fn):
        record = self._record
        stack_of = self._stack

        def timed(it):
            while True:
                stack = stack_of()
                stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    duration = time.perf_counter() - t0
                    child = stack.pop()
                    record(layer, duration, child)
                    if stack:
                        stack[-1] += duration
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(iter(fn(*args, **kwargs)))

        return wrapper

    # -- per-layer counts ----------------------------------------------------

    def _observer(self, layer: str):
        if layer == "seed":
            def seed(args):
                return lambda out: self.count("seed.sublists", len(out[1]))
            return seed
        if layer == "step":
            def step(args):
                counters = _counters_arg(args)
                if counters is None:
                    return None
                pairs = counters.pair_checks
                made = counters.cliques_generated

                def done(out):
                    self.count("step.pair_checks",
                               counters.pair_checks - pairs)
                    self.count("step.cliques_generated",
                               counters.cliques_generated - made)
                return done
            return step
        if layer == "engine":
            def engine(args):
                def done(result):
                    self.peak("level_store.peak_candidate_bytes",
                              result.peak_candidate_bytes())
                    if result.io is not None:
                        self.count("level_store.io_bytes",
                                   result.io.total_bytes)
                return done
            return engine
        if layer == "protocol.encode":
            def encode(args):
                return lambda out: self.count("protocol.encoded_bytes",
                                              len(out))
            return encode
        return None

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> "LayerTracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, kind, owner, attr, importers in _resolve():
            original = getattr(owner, attr)
            if kind == "iter":
                wrapped = self._timed_iter(layer, original)
            else:
                wrapped = self._timed(layer, original,
                                      self._observer(layer))
            for target in (owner, *importers):
                self._patch(target, attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- export --------------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "peaks": dict(self.peaks),
            }


def merge(*snapshots: dict) -> dict:
    """Sum several processes' snapshots (peaks take the maximum)."""
    out: dict = {k: defaultdict(float) for k in
                 ("self_s", "total_s", "calls", "counts", "peaks")}
    for snap in snapshots:
        for kind, values in snap.items():
            for name, value in values.items():
                if kind == "peaks":
                    out[kind][name] = max(out[kind][name], value)
                else:
                    out[kind][name] += value
    return out


def _resolve():
    """``(layer, kind, owner, attr, importers)`` per target: the class or
    module holding the attribute, and for a module-level function every
    other loaded ``repro`` module bound to the same object."""
    for name in _IMPORTERS:
        importlib.import_module(name)
    for layer, modname, path, kind in TARGETS:
        module = importlib.import_module(modname)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            yield layer, kind, getattr(module, owner_name), attr, ()
            continue
        original = module.__dict__[attr]
        importers = tuple(
            other for other in list(sys.modules.values())
            if other is not module
            and getattr(other, "__name__", "").startswith("repro.")
            and other.__dict__.get(attr) is original
        )
        yield layer, kind, module, attr, importers


def originals() -> dict[tuple[int, str], object]:
    """Every attribute a tracer replaces, keyed by owner id and name,
    mapped to its current object (for restoration checks)."""
    return {
        (id(target), attr): target.__dict__[attr]
        for _, _, owner, attr, importers in _resolve()
        for target in (owner, *importers)
    }
