"""BENCHMARK.json against the driver's contract and against what runs print."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perf import metrics

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def check_run():
    """``perf/run.py --check`` once: (stdout, suite record)."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--check"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    suite = json.loads((ROOT / "perf" / "out" / "suite-check.json").read_text())
    return done.stdout, suite


def test_shape_and_limits(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    assert declared["paths"] == ["perf"]
    assert len(declared["command"]) <= 32
    for arg in declared["command"]:
        assert len(arg) <= 200 and not arg.startswith("/") and ".." not in arg
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in declared[key]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for w in declared["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w["name"]
    for m in declared["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 <= m["bound"] <= 0.25
    for m in declared["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_in_step_with_the_tables(declared):
    assert declared["run_seconds"] == metrics.RUN_SECONDS
    assert {w["name"]: w["why"] for w in declared["workloads"]} == metrics.WORKLOADS
    assert {
        m["name"]: (m["unit"], m["bound"]) for m in declared["end_to_end"]
    } == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == metrics.PER_LAYER
    assert {
        m["name"] for m in declared["per_layer"] if m["better"] == "higher"
    } == metrics.HIGHER_IS_BETTER
    assert set(metrics.SCOPED) <= set(metrics.PER_LAYER)


def test_every_declared_name_is_printed(declared, check_run):
    stdout, suite = check_run
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    assert set(suite["workloads"]) == {w["name"] for w in declared["workloads"]}
    nonzero = set()
    for name, runs in suite["workloads"].items():
        assert f"== {name}: ok" in stdout
        for entry in runs:
            untraced, traced = entry["untraced"]["result"], entry["traced"]["result"]
            # the contract's last line: exactly the declared names, with units
            assert set(untraced["metrics"]) == end_to_end, name
            assert set(traced["metrics"]) == per_layer, name
            for result in (untraced, traced):
                assert result["correct"] and result["attempted"] >= 1
                assert set(result) == {"correct", "attempted", "failed", "metrics"}
            for metric, cell in untraced["metrics"].items():
                assert cell["value"] > 0, (name, metric)
                assert cell["unit"] == metrics.END_TO_END[metric][0]
            nonzero |= {m for m, cell in traced["metrics"].items() if cell["value"]}
    # the suite's own table names every end-to-end metric and every per-layer
    # metric that measured something
    for metric in end_to_end | set(metrics.SCOPED) | nonzero:
        assert re.search(rf"^\s+{re.escape(metric)}\s", stdout, re.M), metric
    idle = per_layer - nonzero
    assert idle <= {
        "serve.errors", "serve.cancelled", "sim.evictions", "analysis.audit_findings",
        "compiler.rungs_skipped", "compiler.rungs_pruned", "unmappable_jobs",
        "failed_share", "loadgen.coalesced_latency_p50_ms", "serve.hits",
        "serve.hit_ratio", "loadgen.hit_latency_p50_ms", "loadgen.hit_latency_p99_ms",
    }, f"per-layer metrics that no workload moved: {sorted(idle)}"


def test_fails_without_the_program(tmp_path, declared):
    """In a directory holding only BENCHMARK.json and perf/ the command must
    exit non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perf", tmp_path / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        declared["command"]
        + ["--workload", "fold_exec", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
