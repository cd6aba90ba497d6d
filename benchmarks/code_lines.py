#!/usr/bin/env python
"""Line counts of the packages a simplification is judged on.

Prints, per group, ``wc -l`` and *code-only* lines — no blanks,
comments or docstrings, which is what a simplification actually
removes.  CI runs it as a non-gating summary step; run it locally the
same way::

    python benchmarks/code_lines.py              # the groups below
    python benchmarks/code_lines.py FILE...      # one total for FILE...

The gate is ``tests/test_docs.py::test_code_line_ratchet``, which pins
the code-only lines of :func:`ratchet_groups` as literals.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The paper's five artifacts as bench modules (callers of
#: ``src/repro/experiments/``).
FIGURE_MODULES = (
    "test_bench_table1_profiles.py",
    "test_bench_fig7_plan_space.py",
    "test_bench_fig8_annotation.py",
    "test_bench_fig11_cache_plans.py",
    "test_bench_multithreading.py",
)

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def count(path: pathlib.Path) -> tuple[int, int]:
    """``(wc -l, code-only lines)`` of one Python file."""
    source = path.read_text()
    docstrings = {
        line
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for line in range(node.lineno, node.end_lineno + 1)
    }
    code = {
        line
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type not in _SKIP
        for line in range(token.start[0], token.end[0] + 1)
    }
    return source.count("\n"), len(code - docstrings)


def total(paths) -> str:
    counts = [count(pathlib.Path(path)) for path in paths]
    return f"{sum(c[0] for c in counts)} / {sum(c[1] for c in counts)}"


def package_files(*packages: str) -> list[pathlib.Path]:
    """The modules of the named ``src/repro/`` packages."""
    return [
        path
        for package in packages
        for path in sorted((REPO_ROOT / "src" / "repro" / package).glob("*.py"))
    ]


def ratchet_groups() -> dict[str, list[pathlib.Path]]:
    """The three groups whose code-only lines ``tests/test_docs.py``
    pins: the engine with the serving layer, the optimizer with what it
    builds and costs plans with, and everything that ships —
    ``src/repro/`` outside ``testing/``."""
    source = REPO_ROOT / "src" / "repro"
    return {
        "src/repro/execution + serving": package_files("execution", "serving"),
        "src/repro/optimizer + plans + costs": package_files(
            "optimizer", "plans", "costs"
        ),
        "src/repro outside testing": sorted(
            path for path in source.rglob("*.py")
            if source / "testing" not in path.parents
        ),
    }


def main(argv: list[str]) -> int:
    if argv:
        print(total(argv))
        return 0
    print("lines (*.py): wc -l / code only")
    for package in ("execution", "serving", "testing", "experiments"):
        print(f"src/repro/{package} {total(package_files(package))}")
    for name, files in ratchet_groups().items():
        print(f"{name} {total(files)}")
    figures = [REPO_ROOT / "benchmarks" / name for name in FIGURE_MODULES]
    print(f"benchmarks/ figure modules {total(figures)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
