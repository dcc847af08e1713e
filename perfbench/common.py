"""Shared helpers: paths, process memory, host speed, percentiles,
job tallies.

Everything here reads Linux ``/proc``; the benchmark targets Linux hosts.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: scratch directory (sockets, spill files, server logs) under the
#: checkout; one sub-directory per benchmark process, removed on exit.
RUN_DIR = ROOT / ".perfbench_run"

#: a job whose latency exceeds this is counted as timed out.
JOB_TIMEOUT_S = 120.0

#: duration of :func:`reference_kernel` on a host of nominal speed
REF_NOMINAL_S = 0.012


def require_program() -> None:
    """Put ``src/`` on the import path, or exit 2 when it is missing.

    The benchmark builds nothing: it imports the program from the
    checkout's ``src/`` tree.  Without it there is nothing to measure,
    so the run fails before printing a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: program sources not found under {SRC}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_run_dir() -> Path:
    """Create this process's scratch dir and route temp files into it."""
    path = RUN_DIR / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(path)
    tempfile.tempdir = str(path)
    return path


def child_env(run_dir: Path) -> dict:
    """Environment for child processes: program on the path, temp
    files under ``run_dir``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["TMPDIR"] = str(run_dir)
    return env


def process_age_s() -> float:
    """Seconds since this process was started by the kernel."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22 of stat(5)
    boot_now = time.clock_gettime(time.CLOCK_BOOTTIME)
    return boot_now - start_ticks / os.sysconf("SC_CLK_TCK")


def _status_kib(field: str, pid: int | str = "self") -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    return _status_kib("VmHWM", pid) / 1024.0


def rss_bytes(pid: int | str = "self") -> int:
    """Current resident set size (``VmRSS``) of a process, in bytes."""
    return _status_kib("VmRSS", pid) * 1024


def reset_peak_rss() -> bool:
    """Reset this process's ``VmHWM`` to its current RSS (Linux 4.0+)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


_REF_RNG = np.random.default_rng(12345)
_REF_A = _REF_RNG.integers(0, 2**63, size=(64, 16), dtype=np.uint64)
_REF_B = _REF_A[7].copy()
_REF_BIG = _REF_RNG.integers(0, 2**63, size=1 << 19, dtype=np.uint64)


def reference_kernel() -> float:
    """Seconds taken by a fixed CPU kernel that uses none of the program.

    Shared hosts drift in speed by tens of percent over tens of seconds,
    and every job in a window drifts with them.  The kernel has three
    parts of similar length, because jobs mix them in different
    proportions: interpreter work (dicts, tuples, a sort), small numpy
    word operations like the generation step's, and passes over a 4 MiB
    array plus a 25k-tuple list, which depend on memory traffic.  Timing
    it next to each job measures the host's speed at that moment (see
    :func:`speed_factors`).
    """
    t0 = time.perf_counter()
    acc, table, out = 0, {}, []
    for i in range(8000):
        table[i & 511] = (i, acc)
        acc = (acc * 31 + i) & 0xFFFF
        if acc & 7 == 0:
            out.append((acc, i))
    out.sort()
    for _ in range(150):
        counts = np.count_nonzero(_REF_A & _REF_B, axis=1)
        acc += int(np.nonzero(counts > 8)[0].sum())
    for _ in range(2):
        mixed = _REF_BIG ^ (_REF_BIG >> np.uint64(3))
        acc += int(np.bitwise_and(mixed, np.uint64(255)).sum())
    pairs = [(i, i + 1) for i in range(25000)]
    pairs.sort(key=lambda p: -p[0])
    return time.perf_counter() - t0


def reference_sample(budget_s: float = 0.0) -> tuple[float, float]:
    """``(median kernel time, time spent)`` over kernel runs repeated
    until ``budget_s`` is spent (at least one run)."""
    times: list[float] = []
    while not times or sum(times) < budget_s:
        times.append(reference_kernel())
    return statistics.median(times), sum(times)


def speed_factors(ref_samples: list[float], half: int = 3) -> list[float]:
    """Host slowness at each sample: the median of the reference times
    within ``half`` samples either side, over ``REF_NOMINAL_S``.

    Dividing a time by its factor gives the time on a nominal host.
    """
    out = []
    for i in range(len(ref_samples)):
        near = ref_samples[max(0, i - half): i + half + 1]
        out.append(statistics.median(near) / REF_NOMINAL_S)
    return out


def host_factor(samples: int = 5) -> float:
    """Host slowness now, from ``samples`` back-to-back kernel runs."""
    return statistics.median(
        reference_kernel() for _ in range(samples)
    ) / REF_NOMINAL_S


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: list[float]) -> float:
    """90th percentile, linear interpolation between order statistics."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def log10_ratio(num: float, den: float) -> float | None:
    if not num or not den or num <= 0 or den <= 0:
        return None
    return math.log10(num) - math.log10(den)


def cliques_digest(cliques) -> str:
    """Order-independent digest of a clique collection."""
    canon = sorted(tuple(sorted(int(v) for v in c)) for c in cliques)
    return hashlib.sha256(repr(canon).encode()).hexdigest()


@dataclass
class Tally:
    """Job outcomes of one run; every bad outcome counts in
    ``failed_frac``."""

    attempted: int = 0
    failed: int = 0
    refused: int = 0
    timed_out: int = 0
    wrong: int = 0

    @property
    def bad(self) -> int:
        return self.failed + self.refused + self.timed_out + self.wrong

    @property
    def failed_frac(self) -> float:
        return self.bad / self.attempted if self.attempted else 0.0
