#!/usr/bin/env python
"""Run the benchmark suite that tier-1 test runs exclude.

Tier-1 (`PYTHONPATH=src python -m pytest -x -q`) deselects everything
marked ``bench`` so the edit-test loop stays fast; CI and developers
run the benches explicitly through this entry point::

    python benchmarks/run_bench.py                 # all benchmarks
    python benchmarks/run_bench.py -k hotpaths     # one bench module
    python benchmarks/run_bench.py --benchmark-disable  # what CI runs
    python benchmarks/run_bench.py -k hotpaths --profile # + cProfile
    python benchmarks/run_bench.py --list          # enumerate suites

Every module but ``test_bench_timings.py`` (which prints its
wall-clock probes) writes its artifacts under ``benchmarks/out/`` with
``write_artifact``: a paper table or figure, an ablation, the exact
counts of one subsystem (``counts_<suite>.txt``), or the transcript of
every CLI surface and example (``shipping.txt``).  Each is a function
of the tree, so CI regenerates them all and fails on ``git diff``.

``--profile`` wraps the selected scenario in :mod:`cProfile` (pytest
runs in-process instead of a subprocess so the profiler sees the bench
code) and writes the top 25 functions by cumulative time to
``benchmarks/out/profile_<scenario>.txt``, where ``<scenario>`` is the
``-k`` selection (``all`` when none is given).  Profiled timings carry
instrumentation overhead — use them to find hot functions, not as
measurements.

Extra arguments are forwarded to pytest verbatim.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_ARTIFACT = re.compile(r'write_artifact\(\s*out_dir,\s*"([^"]+)"')


def list_suites() -> int:
    """Print every bench suite with the artifacts it writes."""
    bench_dir = REPO_ROOT / "benchmarks"
    print(f"{'suite':<18} {'module':<42} writes")
    for module in sorted(bench_dir.glob("test_bench_*.py")):
        suite = module.stem.removeprefix("test_bench_")
        artifacts = sorted(set(_ARTIFACT.findall(module.read_text())))
        print(
            f"{suite:<18} {module.relative_to(REPO_ROOT)!s:<42} "
            f"{', '.join(artifacts) if artifacts else '-'}"
        )
    print(
        "\nartifacts land in benchmarks/out/; run one suite with "
        "`python benchmarks/run_bench.py -k <suite>`"
    )
    return 0


def scenario_name(argv: list[str]) -> str:
    """The ``-k`` selection naming the profiled scenario (``all`` if none)."""
    for index, arg in enumerate(argv):
        if arg == "-k" and index + 1 < len(argv):
            return re.sub(r"[^A-Za-z0-9_]+", "_", argv[index + 1])
        if arg.startswith("-k"):
            return re.sub(r"[^A-Za-z0-9_]+", "_", arg[2:])
    return "all"


def run_profiled(pytest_args: list[str], scenario: str) -> int:
    """Run pytest in-process under cProfile; write the top-25 report."""
    import cProfile
    import io
    import pstats

    import pytest

    # Replicate the subprocess environment: src/ on the path for
    # ``repro`` and the repo root for ``benchmarks.conftest``.
    for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    os.chdir(REPO_ROOT)
    profiler = cProfile.Profile()
    profiler.enable()
    code = pytest.main(pytest_args)
    profiler.disable()
    out_dir = REPO_ROOT / "benchmarks" / "out"
    out_dir.mkdir(exist_ok=True)
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats("cumulative").print_stats(25)
    path = out_dir / f"profile_{scenario}.txt"
    path.write_text(stream.getvalue())
    print(f"profile written to {path.relative_to(REPO_ROOT)}")
    return int(code)


def main(argv: list[str]) -> int:
    if "--list" in argv:
        return list_suites()
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
    argv = list(argv)
    profile = "--profile" in argv
    if profile:
        argv = [a for a in argv if a != "--profile"]
    pytest_args = [
        str(REPO_ROOT / "benchmarks"),
        # The command line overrides the tier-1 `-m "not bench"` addopts.
        "-m",
        "bench",
        "-q",
        *argv,
    ]
    if profile:
        # pytest-benchmark pauses instrumentation around its timed
        # rounds in a way cProfile's C-level profiler cannot survive
        # (and profiled timings are not measurements anyway), so the
        # benchmark fixture runs its function exactly once.
        pytest_args.append("--benchmark-disable")
        return run_profiled(pytest_args, scenario_name(argv))
    command = [sys.executable, "-m", "pytest", *pytest_args]
    return subprocess.call(command, cwd=REPO_ROOT, env=env)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
