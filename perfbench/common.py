"""Shared plumbing for the benchmark workloads.

Everything here is workload-agnostic: the hermetic run directory and
child-process environment, the summary statistics every workload
reports, and the result container ``run.py`` prints.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = str(BENCH_DIR / "child.py")

#: Scratch space for runs, inside the checkout and outside the source
#: tree; each run makes its own subdirectory and removes it at exit.
RUNS_DIR = ROOT / ".perfbench-run"
#: Bytecode cache for every interpreter the benchmark starts, so that
#: no ``__pycache__`` lands under ``src/``. It persists between runs
#: like an installed package's bytecode would.
PYCACHE_DIR = ROOT / ".perfbench-pycache"

#: How many fresh set-ups ``setup_s`` takes the median of.
SETUP_REPEATS = 7

#: Calibration kernel: a fixed pure-Python loop of this many steps,
#: the kernel time that defines reference machine speed, and the
#: stretch of measured work each sample stands for.
CALIBRATE_STEPS = 6_500
CALIBRATE_REF_S = 0.010
CALIBRATE_PERIOD_S = 0.25
#: Units of timings: durations scale with machine speed, rates inversely.
DURATIONS = ("s", "ms")
RATES = ("1/s", "gates/s")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class RunDir:
    """A fresh scratch directory for one run: artifact cache, temp
    files and stream exports. Child processes get ``$REPRO_CACHE_DIR``
    and ``$TMPDIR`` pointing into it."""

    def __init__(self) -> None:
        RUNS_DIR.mkdir(exist_ok=True)
        stamp = f"{os.getpid()}-{time.time_ns()}"
        self.path = RUNS_DIR / stamp
        self.path.mkdir()
        self.tmp = self.path / "tmp"
        self.tmp.mkdir()
        self._n = 0

    def fresh(self, prefix: str) -> Path:
        """A new empty subdirectory (e.g. one cache per daemon)."""
        self._n += 1
        sub = self.path / f"{prefix}-{self._n}"
        sub.mkdir()
        return sub

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass  # another run still owns a subdirectory


def child_env(run: RunDir) -> Dict[str, str]:
    """Environment for a child: the package from ``src/``, a fresh
    artifact cache, the run's temp directory, the default code path."""
    env = dict(os.environ)
    env.pop("REPRO_FASTPATH", None)  # always the default code path
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE_DIR)
    env["REPRO_CACHE_DIR"] = str(run.fresh("cache"))
    env["TMPDIR"] = str(run.tmp)
    return env


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: tuple) -> None:
        self.a = a
        self.b = b


def calibration_kernel() -> float:
    """Seconds one run of the calibration kernel takes right now.

    The kernel does the kind of work the compiler does (small objects,
    dict updates, a keyed sort) rather than bare arithmetic: on a
    compile job it halved the spread a tight integer loop left."""
    t0 = time.perf_counter()
    counts: Dict[int, int] = {}
    points = []
    for i in range(CALIBRATE_STEPS):
        key = (i * 7919) % 4093
        counts[key] = counts.get(key, 0) + 1
        points.append(_Point(i, (key, i)))
    points.sort(key=lambda p: p.b)
    sum(p.a for p in points if p.b[0] & 1)
    return time.perf_counter() - t0


def warm_bytecode() -> None:
    """Fill the bytecode cache for the package and the benchmark before
    anything is timed (quick when it is already current)."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(PYCACHE_DIR))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run(
        [python(), "-m", "compileall", "-q", str(SRC), str(BENCH_DIR)],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
    )


def time_setup(argv: Sequence[str], env: Dict[str, str], cwd: Path) -> float:
    """Seconds from spawning ``argv`` until it prints its ready line
    (the child exits right after)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        list(argv), stdout=subprocess.PIPE, env=env, cwd=cwd, text=True
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        rc = proc.wait(timeout=60)
    if rc != 0 or not line.startswith("ready"):
        raise RuntimeError(f"set-up probe {argv[2:]} failed (exit {rc})")
    return elapsed


def put_setup(res: "Result", start: Callable[[], float]) -> None:
    """Record ``setup_s``: the median of ``SETUP_REPEATS`` fresh
    set-ups, each timed by ``start()`` and rescaled by a calibration
    sample taken just before it (set-up runs apart from the rest of the
    workload, so the run's median speed would not fit it)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        speed = CALIBRATE_REF_S / calibration_kernel()
        seconds = start()
        raw.append(seconds)
        scaled.append(seconds * speed)
    res.put(
        "setup_s",
        statistics.median(scaled),
        "s",
        f"median of {SETUP_REPEATS}, raw {statistics.median(raw):.6g}",
    )


def put_child_setup(res: "Result", workload: str, run: RunDir) -> None:
    """``setup_s`` for a workload whose first operation needs a fresh
    interpreter with its imports done (``child.py setup``)."""
    argv = [python(), CHILD, "setup", workload]
    put_setup(res, lambda: time_setup(argv, child_env(run), run.tmp))


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def trimmed_mean(values: Sequence[float], cut: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and highest ``cut`` share."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.mean(ordered[k:len(ordered) - k])


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: Sequence[float]) -> "Percentile":
    """The highest whole percentile with at least ten samples beyond
    it (nearest rank). With fewer than twenty samples no percentile of
    50 or above qualifies, and the maximum is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= 10:
            return Percentile(ordered[rank - 1], pct, n)
    return Percentile(ordered[-1], 100, n)


@dataclass
class Percentile:
    value: float
    pct: int
    n: int

    @property
    def note(self) -> str:
        return f"p{self.pct} of {self.n}"


def peak_rss_kib(pid: Optional[int] = None) -> int:
    """``VmHWM`` of a process: its own high-water resident set, which
    unlike ``ru_maxrss`` resets on exec."""
    where = "self" if pid is None else str(pid)
    with open(f"/proc/{where}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc status")


@dataclass
class Result:
    """What one run reports. ``metrics`` maps name -> (value, unit);
    ``notes`` holds the context printed beside a value (percentile and
    sample count, tested rate)."""

    workload: str
    metrics: Dict[str, Any] = field(default_factory=dict)
    notes: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Calibration kernel times sampled between operations, and the
    #: metrics to rescale by them.
    calibration: List[float] = field(default_factory=list)
    rescaled: Set[str] = field(default_factory=set)
    #: ``daemon`` only: the kernel times taken in each phase of its load.
    phase_samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Traced runs only: the traced pass's spans, and the wall time of
    #: the same pass run untraced just before it.
    spans: Any = None
    untraced_wall: float = 0.0
    #: Traced ``daemon`` runs only: name -> (value, unit) of layer
    #: metrics read from outside the spans (``/v1/stats``, the load
    #: generator).
    layer_extra: Dict[str, Any] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (value, unit)
        if note:
            self.notes[name] = note

    def rescale(self, name: str, speed: float) -> None:
        """Report metric ``name`` at reference speed, given the host's
        ``speed = CALIBRATE_REF_S / kernel time``; the raw value goes in
        its note."""
        value, unit = self.metrics[name]
        scaled = value * speed if unit in DURATIONS else value / speed
        self.metrics[name] = (scaled, unit)
        raw = f"raw {value:.6g}"
        note = self.notes.get(name)
        self.notes[name] = f"{note}, {raw}" if note else raw

    def rescale_timings(self) -> None:
        """Mark every timing recorded so far, except ``setup_s`` (which
        carries its own calibration), for reporting at reference speed:
        the workload sampled the kernel between the operations they
        time."""
        for name, (_, unit) in self.metrics.items():
            if unit in DURATIONS + RATES and name != "setup_s":
                self.rescaled.add(name)

    def calibrate(self, samples: int = 1) -> None:
        """Time the calibration kernel while no operation runs.

        The host's speed drifts by a quarter or more over tens of
        seconds (a pure-Python loop's median moves that much between
        consecutive windows), which no amount of work per run averages
        out. Workloads sample the kernel between operations, and
        timings are reported rescaled by ``speed = CALIBRATE_REF_S /
        kernel time``, next to their raw values, where the kernel time
        is the samples' mean less the extreme tenth on each side. Their
        median would leave out the host's slow stretches, which the
        operations live through too: over 10-second windows a compile
        job's time followed the trimmed mean with an elasticity near
        0.9, the median with one near 0.6. The kernel runs
        between operations, never beside them: a side process on the
        other core measured twice the kernel time while CLI processes
        started, tracking the workload's own load rather than the
        host's. Open-loop load, which cannot pause, samples in quiet
        windows of its schedule instead (``daemon.py``)."""
        for _ in range(samples):
            self.calibration.append(calibration_kernel())

    def calibrate_for(self, seconds: float) -> None:
        """Sample after ``seconds`` of measured work, in proportion to
        it, so the median weighs long and short operations by time."""
        self.calibrate(max(1, round(seconds / CALIBRATE_PERIOD_S)))

    def check(self, what: str, problems: Sequence[str]) -> None:
        """Count one operation and its correctness verdict: it failed
        when any problem was found."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


def python() -> str:
    return sys.executable or "python3"
