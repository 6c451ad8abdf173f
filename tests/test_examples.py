"""Smoke tests: every shipped example must run to completion in-process.

(The examples double as integration tests of the public API; the bench
cache keeps the two that compile the whole suite fast.)
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name",
    ["quickstart", "pagemaster_walkthrough", "tracing_and_debugging"],
)
def test_example_runs(name, capsys):
    load_example(name).main()
    out = capsys.readouterr().out
    assert out.strip(), name


def test_example_files_exist():
    expected = {
        "quickstart.py",
        "pagemaster_walkthrough.py",
        "multithreaded_system.py",
        "constraint_study.py",
        "tracing_and_debugging.py",
    }
    assert expected <= {p.name for p in EXAMPLES.glob("*.py")}


def test_quickstart_reports_correct(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "correct=True" in out
    assert "correct=False" not in out


@pytest.mark.parametrize(
    "argv,code", [(["--help"], 0), (["nosuch"], 2)], ids=["help", "unknown-kernel"]
)
def test_demo_parses_its_arguments_before_any_output(argv, code, capsys):
    """``python -m repro --help`` and an unknown kernel are argparse exits
    (0 and 2), decided before the demo prints its first line."""
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == code
    out, err = capsys.readouterr()
    assert ("usage: python -m repro" in out) == (code == 0)
    assert ("invalid choice: 'nosuch'" in err) == (code == 2)
    assert "page" not in out.lower()  # no layout was rendered
