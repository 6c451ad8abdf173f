"""Determinism lint: one firing and one non-firing fixture per rule id,
suppression mechanics, and the CLI's contract.  The whole-tree sweep
(`python -m repro.analysis all --strict`) is CI's "Static analysis" step,
not a test here."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.cli import main
from repro.analysis.findings import Severity
from repro.analysis.lint import default_root, lint_paths
from repro.analysis.registry import all_rules
from repro.analysis.report import exit_code
from repro.analysis.suppressions import parse_suppressions


def lint_source(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_paths([path], base=tmp_path)


def rule_ids(findings):
    return [f.rule_id for f in findings]


# -- fixtures per rule id ------------------------------------------------------------


FIRES = {
    "DET-SET-ITER": """
        def f(xs):
            s = set(xs)
            out = []
            for x in s:
                out.append(x)
            return out
        """,
    "DET-DIR-SCAN": """
        import os

        def f(d):
            return [p for p in os.listdir(d)]
        """,
    "DET-HASH-ORDER": """
        def f(name):
            return hash(name) % 16
        """,
    "DET-WALL-CLOCK": """
        import time

        def f():
            return {"stamp": time.time()}
        """,
    "DET-MUT-DEFAULT": """
        def f(acc=[]):
            acc.append(1)
            return acc
        """,
    "DET-GLOBAL-WRITE": """
        _CACHE = {}

        def f(key, build):
            if key not in _CACHE:
                _CACHE[key] = build(key)
            return _CACHE[key]
        """,
}

CLEAN = {
    "DET-SET-ITER": """
        def f(xs):
            s = set(xs)
            total = sum(x for x in s)  # order-insensitive reduction
            out = []
            for x in sorted(s):
                out.append(x)
            return out, total
        """,
    "DET-DIR-SCAN": """
        import os

        def f(d):
            return sorted(os.listdir(d))
        """,
    "DET-HASH-ORDER": """
        from repro.util.fingerprint import canonical_fingerprint

        def f(name):
            return canonical_fingerprint({"name": name})
        """,
    "DET-WALL-CLOCK": """
        import time

        def f():
            t0 = time.perf_counter()  # measurement clocks are fine
            return time.perf_counter() - t0
        """,
    "DET-MUT-DEFAULT": """
        def f(acc=None):
            acc = [] if acc is None else acc
            acc.append(1)
            return acc
        """,
    "DET-GLOBAL-WRITE": """
        import os
        import threading

        _TLS = threading.local()
        TABLE = {}
        TABLE["seed"] = 0  # at import time

        def f(path):
            _TLS.counters = []  # per-thread by construction
            TABLE = {}  # a local that shadows the global
            TABLE["x"] = 1

            def inner():
                TABLE.update(y=2)  # the enclosing local, not the global

            inner()
            os.remove(path)  # a module function, not a container method
            return TABLE
        """,
}


@pytest.mark.parametrize("rule_id", sorted(FIRES))
def test_rule_fires_on_fixture(tmp_path, rule_id):
    findings = lint_source(tmp_path, FIRES[rule_id])
    assert rule_id in rule_ids(findings), findings


@pytest.mark.parametrize("rule_id", sorted(CLEAN))
def test_rule_quiet_on_clean_fixture(tmp_path, rule_id):
    findings = lint_source(tmp_path, CLEAN[rule_id])
    assert rule_id not in rule_ids(findings), findings


def test_every_lint_rule_has_fixtures():
    checkable = {
        r.id for r in all_rules() if r.kind == "lint" and r.checker is not None
    }
    assert checkable == set(FIRES) == set(CLEAN)


# -- rule-specific edges -------------------------------------------------------------


def test_set_iter_tracks_attributes_and_unions(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        class Sched:
            deps: set

            def walk(self):
                for d in self.deps:
                    print(d)

        def g(a, b):
            for x in a | {1, 2}:
                print(x)
        """,
    )
    assert rule_ids(findings).count("DET-SET-ITER") == 2


def test_dir_scan_pathlib_methods(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def f(root):
            for p in root.rglob("*.py"):
                print(p)
            for q in sorted(root.glob("*.json")):
                print(q)
        """,
    )
    assert rule_ids(findings).count("DET-DIR-SCAN") == 1


def test_wall_clock_rule_names_the_target(tmp_path):
    (finding,) = lint_source(
        tmp_path,
        """
        import os

        def f():
            return os.getpid()
        """,
    )
    assert finding.rule_id == "DET-WALL-CLOCK"
    assert "os.getpid" in finding.message


def test_global_write_covers_every_write_form(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import sys

        HITS = 0
        SEEN = []
        TABLE = {}

        def bump():
            global HITS
            HITS += 1

        def record(key, value):
            TABLE[key].count += 1
            del TABLE[key]
            SEEN.append(value)
            sys.path.insert(0, value)
            return [TABLE.setdefault(k, v) for k, v in value]
        """,
    )
    assert [(f.rule_id, f.line) for f in findings] == [
        ("DET-GLOBAL-WRITE", line) for line in (10, 13, 14, 15, 16, 17)
    ]
    assert "'HITS': rebinds it through `global`" in findings[0].message


def test_global_write_exempts_only_thread_local_globals(tmp_path):
    """Whatever a global holds, a function writing it fires — a lock or a
    compiled pattern included — except a ``threading.local()``, however
    the constructor was imported."""
    findings = lint_source(
        tmp_path,
        """
        import re
        import threading
        from threading import local

        TABLE = {}
        NAMES = ["a", "b"]
        PATTERN = re.compile(r"x")
        LOCK = threading.Lock()
        TLS = threading.local()
        SLOT = local()

        def touch(v):
            TABLE["k"] = v
            NAMES.append(v)
            PATTERN.cache = v
            LOCK.owner = v
            TLS.value = v
            SLOT.value = v
        """,
    )
    assert set(rule_ids(findings)) == {"DET-GLOBAL-WRITE"}
    written = [f.message.split("module global ")[1].split(":")[0] for f in findings]
    assert sorted(written) == ["'LOCK'", "'NAMES'", "'PATTERN'", "'TABLE'"]


def test_global_write_fires_even_under_lock(tmp_path):
    """A lock orders the writes of concurrent threads, but the state still
    outlives the call that wrote it, so a locked write fires too."""
    findings = lint_source(
        tmp_path,
        """
        import threading
        from concurrent.futures import ThreadPoolExecutor

        TOTALS = {}
        _LOCK = threading.Lock()


        def job(x):
            with _LOCK:
                TOTALS[x] = x * 2


        def fan_out(items):
            with ThreadPoolExecutor() as tp:
                for it in items:
                    tp.submit(job, it)
        """,
    )
    assert [(f.rule_id, f.line) for f in findings] == [("DET-GLOBAL-WRITE", 11)]
    assert "'job' writes module global 'TOTALS'" in findings[0].message


def test_reverting_counters_fix_fires_global_write(tmp_path):
    """Textually revert compiler/routing.py to bumping one module-level
    counter instance from the router (what the process-wide totals once
    were) and lint that text alone: the rule fires at the write line, for
    an attribute bump and for a merge through ``MapperCounters.add``."""
    text = (default_root() / "compiler" / "routing.py").read_text()
    # the router fetches the thread's counters once per query and bumps
    # that instance; the reverted form bumps one shared by every thread
    fixed_import = "from repro.compiler.stats import MapperCounters, counters"
    fixed_bump = "stats = counters()\n    stats.route_calls += 1"
    assert fixed_import in text and fixed_bump in text
    reverted = text.replace(
        fixed_import, fixed_import + "\n\nCOUNTERS = MapperCounters()"
    )
    path = tmp_path / "routing.py"
    for bump in ("COUNTERS.route_calls += 1", 'COUNTERS.add({"route_calls": 1})'):
        mutated = reverted.replace(fixed_bump, f"stats = COUNTERS\n    {bump}")
        path.write_text(mutated)
        line = mutated.splitlines().index(f"    {bump}") + 1
        findings = lint_paths([path], base=tmp_path)
        assert [(f.rule_id, f.line) for f in findings] == [
            ("DET-GLOBAL-WRITE", line)
        ], findings
        assert "'COUNTERS'" in findings[0].message


def test_unparseable_module_is_a_finding(tmp_path):
    findings = lint_source(tmp_path, "def broken(:\n")
    assert rule_ids(findings) == ["LINT-PARSE"]


# -- suppressions --------------------------------------------------------------------


def test_suppression_with_reason_silences(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import time

        def f():
            return time.time()  # repro: allow[DET-WALL-CLOCK] a log stamp, never stored
        """,
    )
    assert findings == []


def test_reasoned_suppression_silences_global_write(tmp_path):
    source = FIRES["DET-GLOBAL-WRITE"].replace(
        "_CACHE[key] = build(key)",
        "_CACHE[key] = build(key)  # repro: allow[DET-GLOBAL-WRITE] filled once per key",
    )
    assert source != FIRES["DET-GLOBAL-WRITE"]
    assert lint_source(tmp_path, source) == []


def test_standalone_suppression_covers_next_line(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import time

        def f():
            # repro: allow[DET-WALL-CLOCK] a log stamp, never stored
            return time.time()
        """,
    )
    assert findings == []


def test_suppression_without_reason_does_not_silence(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import time

        def f():
            return time.time()  # repro: allow[DET-WALL-CLOCK]
        """,
    )
    ids = rule_ids(findings)
    assert "DET-WALL-CLOCK" in ids and "SUP-REASON" in ids


def test_unused_suppression_is_reported(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def f(x):
            return x + 1  # repro: allow[DET-WALL-CLOCK] nothing here fires
        """,
    )
    assert rule_ids(findings) == ["SUP-UNUSED"]


def test_unknown_rule_id_is_reported(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        import time

        def f():
            return time.time()  # repro: allow[NO-SUCH-RULE] wrong id
        """,
    )
    ids = rule_ids(findings)
    assert "SUP-UNKNOWN" in ids and "DET-WALL-CLOCK" in ids


def test_stale_mixed_suppression_is_reported(tmp_path):
    """A suppression naming a live rule and a retired one, on code where
    nothing fires: the retired id is unknown and the line is stale."""
    findings = lint_source(
        tmp_path,
        "X = 1  # repro: allow[DET-WALL-CLOCK, RACE-SHARED-MUT] reason\n",
    )
    assert sorted(rule_ids(findings)) == ["SUP-UNKNOWN", "SUP-UNUSED"]
    (unknown,) = [f for f in findings if f.rule_id == "SUP-UNKNOWN"]
    assert "RACE-SHARED-MUT" in unknown.message


def test_suppression_examples_in_docstrings_are_inert(tmp_path):
    findings = lint_source(
        tmp_path,
        '''
        def f():
            """Example: x  # repro: allow[RULE-ID] reason."""
            return 1
        ''',
    )
    assert findings == []


def test_parse_suppressions_multi_id():
    (sup,) = parse_suppressions(
        "x = 1  # repro: allow[RULE-A, RULE-B] shared reason\n"
    )
    assert sup.rule_ids == ("RULE-A", "RULE-B")
    assert sup.reason == "shared reason"
    assert sup.target_line == 1


# -- catalogue and baseline ----------------------------------------------------------


def test_rule_catalogue_is_stable():
    rules = {r.id: r for r in all_rules()}
    assert list(rules) == sorted(rules)
    assert rules["DET-SET-ITER"].severity is Severity.ERROR


def test_only_the_registry_may_write_a_global():
    """The one function in the tree that writes a module global is
    ``register()``, which fills the rule catalogue at import time."""
    root = default_root()
    allowed = [
        (str(path.relative_to(root)), s.reason)
        for path in sorted(root.rglob("*.py"))
        for s in parse_suppressions(path.read_text())
        if "DET-GLOBAL-WRITE" in s.rule_ids
    ]
    assert [where for where, _ in allowed] == ["analysis/registry.py"]


def test_rule_kinds_are_lint_and_audit_only():
    """Every rule runs in one of the two passes; the global-write rule is a
    lint rule with a firing and a clean fixture like the rest."""
    rules = {r.id: r for r in all_rules()}
    assert {r.kind for r in rules.values()} == {"lint", "audit"}
    assert rules["DET-GLOBAL-WRITE"].kind == "lint"
    assert "DET-GLOBAL-WRITE" in FIRES and "DET-GLOBAL-WRITE" in CLEAN


def test_cli_flow_subcommand_is_a_usage_error(capsys):
    for argv in (["flow"], ["flow", "--summaries"], ["all", "--summaries"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "usage:" in capsys.readouterr().err, argv


def test_cli_json_flag_is_gone(capsys):
    for argv in (["rules", "--json"], ["all", "--json"], ["audit", "--json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments: --json" in capsys.readouterr().err, argv


def test_cli_rules_lists_global_write_and_no_flow_rule(capsys):
    assert main(["rules"]) == 0
    ids = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert ids == sorted(r.id for r in all_rules())
    assert "DET-GLOBAL-WRITE" in ids
    assert not [i for i in ids if i.startswith(("RACE-", "FLOW-"))]


def test_a_reader_that_closes_early_gets_no_traceback():
    """``python -m repro.analysis rules | head -3``: the reader is gone
    before the first line is written.  The command ends quietly, with the
    status a shell shows for a process SIGPIPE ended."""
    env = dict(os.environ)
    src = str(default_root().parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.analysis", "rules"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 141
    assert err == ""


def test_exit_code_contract():
    assert exit_code([]) == 0
    assert exit_code([], strict=True) == 0
    warn = [f for f in _warn_findings()]
    assert exit_code(warn) == 0
    assert exit_code(warn, strict=True) == 1


def _warn_findings():
    from repro.analysis.findings import Finding

    yield Finding(
        file="x.py",
        line=1,
        col=0,
        rule_id="SUP-UNUSED",
        severity=Severity.WARNING,
        message="stale",
    )
