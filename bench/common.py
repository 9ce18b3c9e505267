"""Shared pieces of the benchmark: where the sources are, the machine record,
the thread count, percentiles, the correctness oracle and the timers.

Nothing here imports aelcert at module import time; `import_aelcert` puts
this checkout's `src/` first on the path and refuses any other copy.
"""

from __future__ import annotations

import inspect
import os
import platform
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from math import comb
from pathlib import Path
from statistics import median

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
DEFAULT_SEED = 2024  # the acceptance root seed


class SourcesMissing(RuntimeError):
    """The checkout does not hold the aelcert sources next to the benchmark."""


def import_aelcert():
    """Import aelcert from this checkout's src/ and nowhere else."""
    package = SRC / "aelcert"
    if not (package / "__init__.py").is_file():
        raise SourcesMissing(f"no aelcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import aelcert
    import aelcert.cli  # noqa: F401  (loads every layer module)

    if Path(aelcert.__file__).resolve().parent != package.resolve():
        raise SourcesMissing(f"aelcert was imported from {aelcert.__file__}")
    return aelcert


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Timed passes run the library at its default thread count.  The traced run
# compares threads=1 with this count, on a 2-core machine 2.
THREADS = min(nproc(), 2)


def accepts_threads(fn) -> bool:
    """Whether fn takes `threads`; a thread pool may be removed one day."""
    return "threads" in inspect.signature(fn).parameters


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(A) -> dict:
    import numpy

    default = inspect.signature(A.min_arld_slack).parameters.get("threads")
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": default.default if default else None,
        "threads_compared": THREADS,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(xs) * p // 100))  # ceil(n * p / 100)
    return xs[int(rank) - 1]


def count_subsets(n_words: int, k: int) -> int:
    """Subsets of 2..k words, the number a full sweep covers."""
    return sum(comb(n_words, j) for j in range(2, min(k, n_words) + 1))


def symbol_ids(words):
    """Words as an integer matrix, one id per distinct symbol."""
    import numpy as np

    index: dict = {}
    return np.array([[index.setdefault(s, len(index)) for s in w] for w in words])


def min_pair_distance(words) -> int:
    """Smallest Hamming distance between two of the words, by numpy."""
    import numpy as np

    ids = symbol_ids(words)
    dist = (ids[:, None, :] != ids[None, :, :]).sum(axis=2)
    return int(dist[np.triu_indices(len(ids), k=1)].min())


def witness_ok(A, cert, words) -> bool:
    """An ARLD certificate's witness re-evaluates to its minimum."""
    subset = [words[i] for i in cert.witness_indices]
    _, contribs = A.plurality_center(subset)
    return (
        cert.reevaluate(words) == cert.eps_min
        and sum(contribs) == cert.witness_disagreements
        == cert.min_disagreements_by_size[len(subset)]
    )


class Oracle:
    """Counts operations and failed ones, and records every wrong output.

    An operation fails when it gives a wrong output or raises; either makes
    the run incorrect.  A miss is a decoder that answers "no codeword" on a
    word beyond the radius it guarantees: that answer is correct, so it is
    counted apart, in `misses`, and not as a failure.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses = 0
        self.checks = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        self.checks += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def miss(self) -> None:
        self.attempted += 1
        self.checks += 1
        self.misses += 1

    def check(self, ok: bool, what: str) -> bool:
        """A correctness condition that is not an operation of its own."""
        self.checks += 1
        if not ok:
            self.problems.append(what)
        return ok

    def raised(self, what: str, exc: BaseException) -> None:
        self.op(False, f"{what} raised {type(exc).__name__}: {exc}")

    @property
    def correct(self) -> bool:
        return not self.problems


class Timer:
    """Accumulates named wall-clock sections of a pass.

    With a tracer, each section is also a root span, and the tracer records
    only inside sections, so the oracle's own calls are never traced.

    With `probe`, the speed reference is timed every PROBE_EVERY_S
    (`speed.Probes`) until `close`.  Section times leave out the probes that
    fell inside them, and after `close`, `scaled` holds each section's time
    at reference speed.
    """

    def __init__(self, tracer=None, probe: bool = False):
        self.tracer = tracer
        self.times: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.scaled: dict[str, float] = {}
        self.probes = speed.Probes() if probe else None
        self._runs: list[tuple[str, float, int, int]] = []  # name, seconds, probe range

    @contextmanager
    def section(self, name: str, sample: str | None = None):
        span = self.tracer.root(name) if self.tracer else nullcontext()
        with span:
            first, probed = self.probes.mark if self.probes else (0, 0.0)
            t0 = time.perf_counter()
            try:
                yield
            finally:
                dt = time.perf_counter() - t0
                last, probed_end = self.probes.mark if self.probes else (0, 0.0)
        dt -= probed_end - probed
        self.times[name] = self.times.get(name, 0.0) + dt
        if sample:
            self.samples.setdefault(sample, []).append(dt)
        if self.probes:
            self._runs.append((name, dt, first, last))

    def close(self) -> None:
        """End the pass: stop probing and fill `scaled`."""
        if self.probes is None:
            return
        self.probes.stop()
        for name, dt, first, last in self._runs:
            self.scaled[name] = self.scaled.get(name, 0.0) + dt / self.probes.speed(first, last)

    def total(self, prefix: str = "") -> float:
        """Wall seconds in the sections whose name starts with prefix."""
        return sum(v for k, v in self.times.items() if k.startswith(prefix))


def job_seconds(timers, prefix: str = "", key: str = "times") -> float:
    """The time of one pass: each section's median time over the passes,
    summed over the sections whose name starts with prefix.  With one pass
    this is that pass's time.  `key` "scaled" takes the times at reference
    speed."""
    sections = [getattr(T, key) for T in timers]
    names = {name for times in sections for name in times if name.startswith(prefix)}
    return sum(median([times[name] for times in sections if name in times]) for name in names)
