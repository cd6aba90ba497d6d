"""Regenerate every table and figure of the paper in one run.

Prints Table 1, the Figure 7 plan space, the Figure 8 annotated plan,
the Figure 11 grid (calls and times), and the multithreading
experiment, each next to the paper's published values — the same
report as ``python -m repro reproduce``.

Run with::

    python examples/reproduce_paper.py
"""

from repro.experiments import reproduce_paper


def main() -> None:
    print(reproduce_paper())


if __name__ == "__main__":
    main()
