#!/usr/bin/env python
"""Line coverage of the packages CI's coverage gate measures, without
``coverage``.

CI gates tier-1 at 92% line coverage of ``src/repro/execution/``,
``src/repro/testing/`` and ``src/repro/services/`` with ``pytest-cov``.
This runs the same tier-1 suite under the standard library's
:mod:`trace` module instead, so the reading needs no dependency::

    PYTHONPATH=src python benchmarks/trace_coverage.py [PYTEST ARGS...]

Every module outside those three packages is ignored, so only their
frames pay for line tracing (tier-1 runs 6-7x slower).  Executable
lines are what :mod:`trace` finds in the code objects (docstrings
excluded); ``# pragma: no cover`` is not honoured and worker threads
are not traced, so the figure is not ``pytest-cov``'s: compare it
between two commits, not with CI's gate.
"""

from __future__ import annotations

import pathlib
import sys
import sysconfig
import trace

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"
MEASURED = ("execution", "testing", "services")


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(REPO_ROOT))  # as ``python -m pytest`` does
    ignored = [
        sys.prefix, sys.exec_prefix, sysconfig.get_paths()["purelib"],
        str(REPO_ROOT / "tests"), str(REPO_ROOT / "benchmarks"),
    ]
    ignored += [
        str(path) for path in PACKAGE.iterdir()
        if path.is_dir() and path.name not in MEASURED
    ]
    tracer = trace.Trace(count=1, trace=0, ignoredirs=ignored)
    status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", *argv])
    hit: dict[str, set[int]] = {}
    for filename, line in tracer.results().counts:
        hit.setdefault(filename, set()).add(line)
    total = covered = 0
    for name in MEASURED:
        for path in sorted((PACKAGE / name).rglob("*.py")):
            lines = set(trace._find_executable_linenos(str(path)))
            total += len(lines)
            covered += len(lines & hit.get(str(path), set()))
    print(
        f"{' + '.join(MEASURED)}: {covered} / {total} executable lines "
        f"covered ({100 * covered / total:.1f}%); pytest exit status {status}"
    )
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
