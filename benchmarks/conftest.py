"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's
evaluation (Section 6), or pins the exact counts of one subsystem, and
writes its rendered output under ``benchmarks/out/`` with
:func:`write_artifact`.  Every such output is a function of the tree:
CI regenerates them all and fails on ``git diff``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.sources.travel import running_example_query, travel_registry
from repro.sources.world import build_world

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def out_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def world():
    return build_world()


@pytest.fixture()
def registry(world):
    return travel_registry(world)


@pytest.fixture()
def travel_query():
    return running_example_query()


def write_artifact(out_dir: pathlib.Path, name: str, content: str) -> None:
    """Persist a regenerated table/figure as text."""
    path = out_dir / name
    path.write_text(content + "\n")


def table(title: str, rows: list[dict]) -> str:
    """*rows* as right-aligned columns under a header of their keys (a
    key a row lacks reads ``-``), after a *title* line."""
    keys = list(dict.fromkeys(key for row in rows for key in row))
    lines = [keys] + [[str(row.get(key, "-")) for key in keys] for row in rows]
    widths = [max(len(line[i]) for line in lines) for i in range(len(lines[0]))]
    return "\n".join(
        [title]
        + ["  ".join(cell.rjust(width) for cell, width in zip(line, widths))
           for line in lines]
    )
