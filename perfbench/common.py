"""Shared helpers: statistics, memory, child processes, fingerprint, output."""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60.0

# setup is repeated this many times per run and its median reported
SETUP_REPEATS = 5


def median(values) -> float:
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def tail_percentile(values) -> tuple[float, int]:
    """(value, percentile) at the highest whole percentile that still has
    at least ten samples above it; the median when there are fewer than
    twenty samples."""
    n = len(values)
    pct = math.floor(100.0 * (n - 10) / n) if n >= 20 else 50
    s = sorted(values)
    rank = min(n - 1, max(0, math.ceil(pct / 100.0 * n) - 1))
    return s[rank], pct


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S):
    """Run one Python child to completion and return its CompletedProcess.
    The child is killed and reaped if it overruns the timeout."""
    return subprocess.run([sys.executable] + args, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout,
                          check=False)


# A machine whose cores are shared with other tenants changes speed by
# up to +-25% over seconds to minutes (measured on a 2-vCPU Xeon VM). A fixed reference loop is run between timed
# samples; each sample is scaled to the loop's nominal speed by the
# median loop time near it:
#     scaled = wall * nominal_ms / median(loop ms within SPEED_WINDOW_S)
# The loops run no rotrepr code, so no program change can move them, and
# their own time is never inside a sample.
SPEED_WINDOW_S = 0.5
PROBES = 2  # reference loops on each side of a sample


def python_reference() -> float:
    """Pure-Python float and tuple work, about 2 ms."""
    acc = 0.0
    v = (0.1, 0.2, 0.3)
    for _ in range(10000):
        v = (v[1] * 0.5 + 0.1, v[2] * 0.5 - 0.2, v[0] + 0.3)
        acc += v[0] * v[1] - v[2]
    return acc


class SpeedTrack:
    """Reference-loop timings over the run, for scaling samples."""

    def __init__(self, loop=python_reference, nominal_ms: float = 2.0):
        self.loop = loop
        self.nominal_ms = nominal_ms
        self.times: list[float] = []
        self.loop_ms: list[float] = []

    def probe(self, times: int = PROBES) -> float:
        """Run the reference loop `times` times; returns the wall seconds."""
        total = 0.0
        for _ in range(times):
            start = time.perf_counter()
            self.loop()
            end = time.perf_counter()
            self.times.append(0.5 * (start + end))
            self.loop_ms.append((end - start) * 1e3)
            total += end - start
        return total

    def scale(self, t0: float, t1: float) -> float:
        near = [ms for t, ms in zip(self.times, self.loop_ms)
                if t0 - SPEED_WINDOW_S <= t <= t1 + SPEED_WINDOW_S]
        return self.nominal_ms / median(near)


class Sample:
    """One timed call bracketed by reference probes: its result, wall
    seconds, and (once the run is over) scaled seconds."""

    __slots__ = ("track", "result", "start", "end", "wall_s")

    def __init__(self, track: SpeedTrack, fn, *args):
        self.track = track
        track.probe()
        self.start = time.perf_counter()
        self.result = fn(*args)
        self.end = time.perf_counter()
        self.wall_s = self.end - self.start
        track.probe()

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.track.scale(self.start, self.end)


def median_ms(samples, per: int = 1, scaled: bool = True) -> float:
    """Median of Sample times in ms, divided over `per` units each."""
    return median([s.scaled_s if scaled else s.wall_s for s in samples]) / per * 1e3


IMPORT_PROBE = ("import time; t = time.perf_counter(); import {module}; "
                "print(time.perf_counter() - t)")


def import_seconds(track: SpeedTrack, module: str) -> float:
    """Median scaled time of `import module` in fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        child = Sample(track, run_child, ["-c", IMPORT_PROBE.format(module=module)])
        proc = child.result
        if proc.returncode != 0:
            raise RuntimeError(f"importing {module} failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip()) * track.scale(child.start, child.end))
    return median(samples)


def timed_setup(track: SpeedTrack, module: str, generate):
    """setup_s = median scaled import time of `module` in fresh
    interpreters + median scaled in-process input generation time.
    Returns (setup_s, inputs)."""
    imp = import_seconds(track, module)
    runs = [Sample(track, generate) for _ in range(SETUP_REPEATS)]
    return imp + median([r.scaled_s for r in runs]), runs[-1].result


def pin_cpu() -> int:
    """Run this process, and the children it starts, on one CPU, so a
    child runs on the core whose speed the reference probes measured."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def pin_blas_threads() -> int:
    """Pin BLAS/OpenMP to one thread (at most nproc) before numpy is
    imported: every workload is a single closed loop, and a second BLAS
    thread on a shared machine adds noise, not throughput."""
    threads = min(1, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def fingerprint(blas_threads: int, cpu: int, trace: bool) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": blas_threads,
        "pinned_cpu": cpu,
        "commit": _git_commit(),
        "trace": trace,
    }


class Outcome:
    """Verdicts per distinct operation. An operation is one input the
    workload times (a table, a block of frames, a registration problem,
    a command). It usually runs many times; every run is checked, and
    the operation fails if any run fails. So `attempted` and `failed`
    depend on the seed only, not on how many runs fit in the time.
    A failure is 'known' when it matches a defect the benchmark
    documents."""

    def __init__(self):
        self.verdicts: dict = {}  # operation -> None or (what, known)
        self.runs = 0

    @staticmethod
    def _rank(verdict) -> int:
        return 0 if verdict is None else 1 if verdict[1] else 2

    def record(self, op, verdict=None) -> None:
        """One checked run of `op`; keeps the operation's worst verdict."""
        self.runs += 1
        if op not in self.verdicts or self._rank(verdict) > self._rank(self.verdicts[op]):
            self.verdicts[op] = verdict

    def ok(self, op) -> None:
        self.record(op)

    def fail(self, op, what: str, known: bool) -> None:
        self.record(op, (what, known))

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    def failures(self) -> dict:
        """(what, known) -> number of operations that failed so."""
        counts: dict = {}
        for verdict in self.verdicts.values():
            if verdict is not None:
                counts[verdict] = counts.get(verdict, 0) + 1
        return counts

    @property
    def failed(self) -> int:
        return sum(self.failures().values())

    @property
    def correct(self) -> bool:
        return not any(not known for _, known in self.failures())


def emit(outcome: Outcome, metrics: dict, info: dict) -> None:
    """Print the human-readable lines, then the one-line JSON result."""
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value, sort_keys=True)}")
    print(f"# fail_ratio: {outcome.failed}/{outcome.attempted} = "
          f"{outcome.failed / outcome.attempted:.6g} "
          f"(operations; {outcome.runs} checked runs of them)")
    for (what, known), n in sorted(outcome.failures().items()):
        kind = "known defect" if known else "unexpected"
        print(f"#   failed {n}x [{kind}] {what}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def import_breakdown(track: SpeedTrack, child_args=("-c", "import rotrepr.cli")):
    """Cold import costs from `python -X importtime <child_args>` plus the
    bare-interpreter floor, medians over SETUP_REPEATS fresh processes.
    Returns (metrics, a Sample of each importtime child)."""
    wanted = {"numpy": "import.numpy.ms", "rotrepr": "import.rotrepr.ms",
              "rotrepr.cli": "import.rotrepr.cli.ms"}
    samples: dict[str, list[float]] = {name: [] for name in wanted.values()}
    samples["python.bare.ms"] = []
    children = []
    for _ in range(SETUP_REPEATS):
        child = Sample(track, run_child, ["-X", "importtime", *child_args])
        proc = child.result
        if proc.returncode != 0:
            raise RuntimeError(f"child {child_args} failed:\n{proc.stderr}")
        children.append(child)
        for line in proc.stderr.splitlines():
            # "import time:  self [us] | cumulative | imported package"
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in wanted:
                samples[wanted[parts[2]]].append(float(parts[1]) / 1e3)
        start = time.perf_counter()
        run_child(["-c", "pass"])
        samples["python.bare.ms"].append((time.perf_counter() - start) * 1e3)
    return {name: median(values) for name, values in samples.items()}, children


def overhead_pct(untraced: float, traced: float) -> float:
    return 100.0 * (traced - untraced) / untraced
