"""``BENCHMARK.json`` says what ``run.py`` measures, within the contract's limits.

Collected by the tier-1 run; imports nothing from the program and runs
no workload, so it costs milliseconds.
"""

import json
import re
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_what_the_benchmark_declares():
    assert _declared() == spec.benchmark_json()


def test_names_units_and_counts_stay_within_the_contract():
    declared = _declared()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert isinstance(declared["run_seconds"], int)
    assert 1 <= declared["run_seconds"] <= 60
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in declared[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(m["bound"] for m in declared["end_to_end"])}
    ]


def test_the_command_stays_inside_the_benchmark_directory():
    declared = _declared()
    assert declared["paths"] == ["bench"]
    assert declared["command"] == ["python3", "bench/run.py"]
    assert set(spec.THREADED) <= set(spec.WORKLOADS)
