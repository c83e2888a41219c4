"""Helpers shared by run.py and the processes it launches.

Everything here is standard library only, so a checkout missing the
``repro`` sources still gets a clean error from :func:`require_sources`
instead of an import traceback.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path

#: The benchmark's own directory and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Working state (detector caches) and trace output, both inside the
#: checkout and both listed in the root ``.gitignore``.
STATE_DIR = ROOT / ".layerbench_state"
OUT_DIR = ROOT / ".layerbench_out"

WORKLOADS = ("profile-mean", "profile-repair", "serve-mixed")

#: Launches of the process under test per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed launch)."""


def require_sources() -> None:
    """Fail unless the checkout holds the package the benchmark drives."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}; run from a checkout")


def child_env() -> dict[str, str]:
    """Environment for launched processes: the checkout's sources first."""
    env = dict(os.environ)
    parts = [str(SRC), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def host_info(seed: int) -> dict:
    """What a run records about the machine it ran on."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a repro dependency
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": sys.platform,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Process-tree accounting from /proc (Linux).
# ---------------------------------------------------------------------------


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name sits in parentheses and may hold spaces.
    return text[text.rindex(")") + 2:].split()


def tree_pids(root: int) -> list[int]:
    """``root`` and every live descendant process."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            parents.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [root], [root]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def tree_cpu_seconds(root: int) -> float:
    """User plus system CPU of a live process tree, in seconds."""
    ticks = 0
    for pid in tree_pids(root):
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLK_TCK


def tree_peak_rss_mb(root: int) -> float:
    """Sum over a live process tree of each process's peak resident set."""
    total_kb = 0
    for pid in tree_pids(root):
        try:
            lines = Path(f"/proc/{pid}/status").read_text().splitlines()
        except OSError:
            continue
        for line in lines:
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


# ---------------------------------------------------------------------------
# Statistics and the result line.
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(math.ceil(q * len(ordered)) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def metric(value: float, unit: str, samples: int) -> dict:
    """One reported metric and the number of samples it was computed from.

    The sample count travels beside the result line (in ``REPORT``), which
    carries only value and unit per metric.
    """
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def emit(line_kind: str, payload: dict) -> None:
    """Write one tagged JSON line a parent process parses."""
    sys.stdout.write(f"{line_kind} {json.dumps(payload)}\n")
    sys.stdout.flush()
