"""Determinism lint: one firing and one non-firing fixture per rule id,
suppression mechanics, and the clean-tree baseline gate."""

import textwrap

import pytest

from repro.analysis.findings import Severity
from repro.analysis.lint import default_root, lint_paths, lint_tree
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
    "DET-RNG-SEED": """
        import random

        def f():
            return random.random()
        """,
    "DET-ID-ORDER": """
        def f(ops):
            return sorted(ops, key=lambda o: id(o))
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
    "DET-FLOAT-EQ": """
        def f(energy):
            return energy == 0.0
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
    "DET-RNG-SEED": """
        from repro.util.rng import make_rng

        def f(seed):
            return make_rng(seed).random()
        """,
    "DET-ID-ORDER": """
        def f(ops):
            return sorted(ops, key=lambda o: o.op_id)
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
    "DET-FLOAT-EQ": """
        def f(energy):
            return abs(energy) < 1e-9
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


def test_rng_rule_exempts_the_seeding_choke_point(tmp_path):
    nest = tmp_path / "repro" / "util"
    nest.mkdir(parents=True)
    path = nest / "rng.py"
    path.write_text("import random\nr = random.Random()\n")
    assert lint_paths([path], base=tmp_path) == []


@pytest.mark.parametrize(
    "call",
    [
        "np.random.PCG64()",
        "np.random.MT19937()",
        "np.random.Philox()",
        "np.random.SFC64()",
        "np.random.PCG64DXSM()",
        "np.random.SeedSequence()",
        "np.random.default_rng()",
        "np.random.default_rng(None)",
        "np.random.PCG64(seed=None)",
    ],
)
def test_rng_rule_fires_on_unseeded_numpy_constructors(tmp_path, call):
    findings = lint_source(
        tmp_path, f"import numpy as np\n\ndef f():\n    return {call}\n"
    )
    assert rule_ids(findings) == ["DET-RNG-SEED"], findings
    assert "draws OS entropy" in findings[0].message


@pytest.mark.parametrize(
    "call",
    [
        "np.random.PCG64(seed)",
        "np.random.PCG64(seed=seed)",
        "np.random.MT19937(seed)",
        "np.random.SeedSequence(seed)",
        "np.random.SeedSequence(entropy=seed)",
        "np.random.default_rng(seed)",
        "np.random.default_rng(seed=seed)",
        "np.random.Generator(np.random.PCG64(seed))",
    ],
)
def test_rng_rule_quiet_on_seeded_numpy_constructors(tmp_path, call):
    findings = lint_source(
        tmp_path, f"import numpy as np\n\ndef f(seed):\n    return {call}\n"
    )
    assert findings == [], findings


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


def test_unparseable_module_is_a_finding(tmp_path):
    findings = lint_source(tmp_path, "def broken(:\n")
    assert rule_ids(findings) == ["LINT-PARSE"]


# -- suppressions --------------------------------------------------------------------


def test_suppression_with_reason_silences(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def f(energy):
            return energy == 0.0  # repro: allow[DET-FLOAT-EQ] integer-valued by construction
        """,
    )
    assert findings == []


def test_standalone_suppression_covers_next_line(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def f(energy):
            # repro: allow[DET-FLOAT-EQ] integer-valued by construction
            return energy == 0.0
        """,
    )
    assert findings == []


def test_suppression_without_reason_does_not_silence(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def f(energy):
            return energy == 0.0  # repro: allow[DET-FLOAT-EQ]
        """,
    )
    ids = rule_ids(findings)
    assert "DET-FLOAT-EQ" in ids and "SUP-REASON" in ids


def test_unused_suppression_is_reported(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def f(x):
            return x + 1  # repro: allow[DET-FLOAT-EQ] nothing here fires
        """,
    )
    assert rule_ids(findings) == ["SUP-UNUSED"]


def test_unknown_rule_id_is_reported(tmp_path):
    findings = lint_source(
        tmp_path,
        """
        def f(energy):
            return energy == 0.0  # repro: allow[NO-SUCH-RULE] wrong id
        """,
    )
    ids = rule_ids(findings)
    assert "SUP-UNKNOWN" in ids and "DET-FLOAT-EQ" in ids


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


def test_repro_tree_is_lint_clean():
    findings = lint_tree(default_root())
    assert findings == [], "\n".join(f.render() for f in findings)


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
