"""Shared plumbing: locating the program, seeds, clocks, statistics and
provenance.

Nothing here imports ``repro``: the benchmark's own modules must load
before the program does, so that import time is measured where the
workload says it is.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

#: Root of the checkout (the directory holding ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs, child outputs and span dumps.
OUT = ROOT / ".perfbench"

WORKLOADS = ("cli", "service")

#: Tail percentile per workload.  A tail is reported only when at least
#: ten samples lie beyond it (see README.md, "Sample counts").
TAIL_PCT = {"cli": 75, "service": 80}
MIN_BEYOND = 10

#: ``improvement_pct`` averages the recommendations for the first this
#: many distinct inputs (cli: its pool files; service: miss and relayout
#: of the first six cycles of both tenants), a prefix every default run
#: completes, so the figure depends on the seed alone.
QUALITY_INPUTS = {"cli": 4, "service": 24}


class ProgramMissing(RuntimeError):
    """The checkout holds the benchmark but not the program."""


def require_program() -> None:
    """Fail unless the program's sources and fixtures are present."""
    needed = [SRC / "repro" / "__init__.py",
              ROOT / "examples" / "tpch" / "db.json",
              ROOT / "examples" / "tpch" / "disks.json"]
    missing = [str(path.relative_to(ROOT)) for path in needed
               if not path.is_file()]
    if missing:
        raise ProgramMissing("program not found in the checkout: missing "
                             + ", ".join(missing))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the program on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    return env


def derive_seed(seed: int, *labels: object) -> int:
    """A 32-bit seed drawn only from ``seed`` and the labels.

    Uses SHA-256 rather than ``hash()``, whose string hashing is salted
    per process.
    """
    text = ":".join([str(seed)] + [str(label) for label in labels])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4],
                          "big")


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (a value that was actually observed)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, pct: float) -> int:
    """Samples strictly beyond the nearest-rank ``pct`` percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest() -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def provenance(seed: int, workload: str) -> dict[str, object]:
    """What a later reader needs to re-check a number on held-out seeds."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "platform": platform.platform(),
    }


def write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
