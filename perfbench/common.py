"""Shared helpers: paths, child processes, statistics, environment, digests.

Nothing here imports ``repro``: the driver (``run.py``) only talks to the
program through child processes, so importing this module is cheap and
works in a directory that holds the benchmark alone.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (git-ignored): work dirs, digests.
BUILD_DIR = os.path.join(ROOT, ".bench_build")

#: Tail percentiles tried from the top; the first with at least
#: ``MIN_BEYOND`` samples above it is reported.
PERCENTILE_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


# -- statistics --------------------------------------------------------------
def percentile(values, p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in [0, 100])."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    k = max(0, min(len(xs) - 1, math.ceil(p / 100.0 * len(xs)) - 1))
    return float(xs[k])


def ladder_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of ``n`` samples
    beyond it; 100 (the maximum) when ``n`` is below twenty."""
    for p in PERCENTILE_LADDER:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND:
            return p
    return 100.0


def tail_percentile(values) -> tuple[float, float]:
    """``(p, value)`` at :func:`ladder_percentile` of ``values``."""
    p = ladder_percentile(len(values))
    return p, percentile(values, p)


def median(values) -> float:
    return float(statistics.median(values))


def time_windows(samples, t0: float, t1: float, windows: int) -> list[list]:
    """Split ``(t_end, value)`` pairs into ``windows`` equal time windows.
    A statistic taken per window and then over the windows is not moved
    by a noisy burst that a whole-run statistic would take in."""
    width = (t1 - t0) / windows
    buckets = [[] for _ in range(windows)]
    for t, v in samples:
        i = int((t - t0) / width)
        if 0 <= i < windows:
            buckets[i].append(v)
    return buckets


# -- environment -------------------------------------------------------------
def _blas_threads() -> list[dict]:
    """Thread count each loaded OpenBLAS runs with, read through ctypes
    (never set).  Must run in a process that has imported numpy/scipy."""
    libs = []
    seen = set()
    try:
        with open("/proc/self/maps") as f:
            for line in f:
                path = line.split()[-1]
                if "openblas" in path.lower() and path not in seen:
                    seen.add(path)
                    libs.append(path)
    except OSError:
        pass
    out = []
    for path in libs:
        entry = {"library": os.path.basename(path), "threads": None}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            out.append(entry)
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                entry["threads"] = int(fn())
                break
        for sym in (
            "scipy_openblas_get_config64_",
            "scipy_openblas_get_config",
            "openblas_get_config64_",
            "openblas_get_config",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                entry["config"] = fn().decode(errors="replace").strip()
                break
        out.append(entry)
    return out


def environment() -> dict:
    """The run-time configuration that decides performance.  Call from a
    process that has imported numpy and scipy."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS, if any)

    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "blas": _blas_threads(),
        "thread_env": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# -- digests -----------------------------------------------------------------
def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_digest() -> str:
    """Digest of the program's Python source, so output digests are only
    compared between runs of the same code."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def check_stable_digest(key: str, seed: int, digest: str) -> bool:
    """True unless an earlier run of the same code, workload key and seed
    in this checkout recorded a different output digest (the first run
    records it)."""
    d = os.path.join(BUILD_DIR, "digests")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{key}-{seed}-{source_digest()}.sha256")
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip() == digest
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(digest + "\n")
    os.replace(tmp, path)
    return True


# -- child processes ---------------------------------------------------------
def child_env() -> dict:
    """The parent's environment with ``src`` on the import path.  Thread
    settings (OMP_*, OPENBLAS_*) pass through untouched."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class Child:
    """A benchmark-owned Python child speaking JSON lines on stdout and
    taking one-word commands on stdin."""

    #: Children not yet reaped, for :meth:`kill_all`.
    live: set = set()

    def __init__(self, script: str, args: list[str]):
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, script), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=ROOT,
        )
        Child.live.add(self)

    def read(self) -> dict:
        """Next JSON message; a child that exits instead raises.  A hung
        child is bounded by the run's deadline (``run.deadline_s``)."""
        line = self.proc.stdout.readline()
        if not line:
            code = self.proc.wait()
            Child.live.discard(self)
            raise RuntimeError(f"{self.proc.args[1]} exited with code {code}")
        return json.loads(line)

    def expect(self, event: str) -> dict:
        msg = self.read()
        if msg.get("event") != event:
            raise RuntimeError(f"expected {event!r} from child, got {msg!r}")
        return msg

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def close(self, timeout: float = 60.0) -> int:
        """Wait for the child to exit; kill it if it does not."""
        try:
            if self.proc.stdin and not self.proc.stdin.closed:
                self.proc.stdin.close()
        except OSError:
            pass
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()
        finally:
            Child.live.discard(self)

    @classmethod
    def kill_all(cls) -> None:
        """Kill and reap every child still running."""
        for child in list(cls.live):
            if child.proc.poll() is None:
                child.proc.kill()
            child.proc.wait()
            cls.live.discard(child)


def emit(msg: dict) -> None:
    """Child side of the protocol: one JSON object per line."""
    sys.stdout.write(json.dumps(msg, sort_keys=True) + "\n")
    sys.stdout.flush()


def rusage_self() -> tuple[float, float]:
    """``(cpu_seconds, peak_rss_mb)`` of the calling process."""
    import resource

    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0
