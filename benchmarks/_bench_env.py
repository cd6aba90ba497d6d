"""Benchmark environment knobs, importable by bench modules.

Lives in its own uniquely-named module (not ``conftest.py``) because
pytest registers the first ``conftest.py`` it imports under
``sys.modules['conftest']`` — a bench module doing ``from conftest
import ...`` would resolve against ``tests/conftest.py`` whenever both
directories are collected in one pytest invocation.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import subprocess

#: ``run_bench.py --quick`` sets BENCH_QUICK=1: CI smoke runs that only
#: check the bench code still executes, on shrunken workloads.
QUICK = os.environ.get("BENCH_QUICK") == "1"


def bench_scale(full: int, quick: int) -> int:
    """Workload size: *quick* under ``run_bench.py --quick``."""
    return quick if QUICK else full


def bench_out_name(base: str) -> str:
    """Artifact filename for *base* (e.g. ``BENCH_streaming.json``).

    Quick runs write ``*.quick.json`` instead, so a CI smoke or a local
    ``--quick`` pass can never overwrite the committed full-run
    trajectories with shrunken-workload numbers.
    """
    if not QUICK:
        return base
    stem, _, extension = base.rpartition(".")
    return f"{stem}.quick.{extension}" if stem else f"{base}.quick"


def env_stamp() -> dict:
    """Where and when a trajectory entry was measured."""
    repo = pathlib.Path(__file__).resolve().parent.parent
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "quick": QUICK,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


def append_history(path: pathlib.Path, entry: dict) -> None:
    """Append *entry* to a trajectory file: ``{"history": [oldest, ...,
    entry]}`` — a trajectory accumulates instead of being overwritten."""
    history = []
    if path.exists():
        history = json.loads(path.read_text())["history"]
    path.write_text(
        json.dumps({"history": history + [entry]}, indent=2, sort_keys=True) + "\n"
    )
