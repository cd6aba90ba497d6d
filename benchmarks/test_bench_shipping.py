"""The shipping transcript (``shipping.txt``).

Runs every deterministic surface a user reaches — ``reproduce``, the
six ``demo``s, four ``query`` lines, two ``serve`` scripts and every
example — as a subprocess, exactly as a shell would, and writes each
command line, its exit status and its output (stdout and stderr
merged).  Services run on virtual time and every RNG is seeded, so
the transcript is a function of the tree: a change to a plan, a cost,
a ranked table, a call count or a ``Search:`` counter shows as a line
of its diff.

The weekend ``serve`` script asks for more past the last answer
twice: its last ``more`` is a session whose services already ran dry.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys

import pytest

from benchmarks.conftest import write_artifact

pytestmark = pytest.mark.bench

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``(argv after "python", stdin lines)``, in transcript order.
SURFACES = [
    (["-m", "repro", "reproduce"], ()),
    *(
        (["-m", "repro", "demo", domain], ())
        for domain in (
            "travel", "bio", "biblio", "biblio-sqlite", "biblio-fts", "weekend",
        )
    ),
    (["-m", "repro", "query", "--domain", "bio", "--repeat", "2"], ()),
    (["-m", "repro", "query", "--domain", "biblio-sqlite", "-k", "4",
      "--provenance"], ()),
    (["-m", "repro", "query", "--domain", "travel", "--adaptive"], ()),
    (["-m", "repro", "query", "--domain", "travel", "--retries", "2",
      "--partial-results"], ()),
    (["-m", "repro", "serve", "--domain", "travel", "-k", "3", "--provenance"],
     ("demo", "more s000001 3")),
    (["-m", "repro", "serve", "--domain", "weekend", "-k", "3"],
     ("demo", "more s000001 3", "more s000001 100", "more s000001 100",
      "stats")),
    *(
        ([f"examples/{name}"], ())
        for name in sorted(os.listdir(os.path.join(REPO, "examples")))
        if name.endswith(".py")
    ),
]


def _transcript(argv: list[str], lines: tuple[str, ...]) -> str:
    """One surface: its command line, exit status and output."""
    command = "python " + shlex.join(argv)
    if lines:
        command = "printf '" + "\\n".join(lines) + "\\n' | " + command
    done = subprocess.run(
        [sys.executable, *argv], cwd=REPO, env=dict(os.environ, PYTHONPATH="src"),
        input="".join(f"{line}\n" for line in lines),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=300,
    )
    return f"$ {command}\n[exit {done.returncode}]\n{done.stdout.rstrip()}\n"


def test_write_shipping_transcript(out_dir):
    sections = [_transcript(argv, lines) for argv, lines in SURFACES]
    write_artifact(out_dir, "shipping.txt", "\n".join(sections).rstrip())
    assert all("\n[exit 0]\n" in section for section in sections)
