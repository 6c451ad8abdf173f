"""Tests for pass 3 — the interprocedural effect & concurrency analysis.

Fixture packages are built on disk (the pass is package-level: module
names, import resolution, and display paths all derive from the tree), one
firing and one clean fixture per flow rule, plus callgraph-resolution and
SCC-fixpoint unit coverage, the shared-counter mutation test, and the
end-to-end run over the installed ``repro`` tree asserting the committed
baseline is clean.
"""

from __future__ import annotations

import json
import shutil
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.cli import main
from repro.analysis.flow import analyze_tree
from repro.analysis.flow.callgraph import build_callgraph
from repro.analysis.flow.concurrency import check_races, find_roots
from repro.analysis.flow.contracts import (
    DEFAULT_CONTRACTS,
    Contract,
    check_contracts,
)
from repro.analysis.flow.effects import infer_effects
from repro.analysis.registry import flow_rules


def make_pkg(tmp_path: Path, files: dict[str, str], name: str = "pkg") -> Path:
    pkg = tmp_path / name
    pkg.mkdir()
    (pkg / "__init__.py").write_text(files.pop("__init__.py", ""))
    for rel, src in files.items():
        path = pkg / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src))
    return pkg


def flow_findings(pkg: Path, contracts=()) -> list:
    """Run the full pass over a fixture package (contract registry empty
    unless the test supplies one — the defaults name repro entrypoints)."""
    return analyze_tree(pkg, contracts=tuple(contracts)).findings


# --------------------------------------------------------------- call graph


SHAPES = {
    "shapes.py": """
        class Box:
            def __init__(self):
                self.items = []

            def put(self, x):
                self.items.append(x)


        class Crate(Box):
            pass


        def fill(n):
            b = Box()
            for i in range(n):
                b.put(i)
            return b


        def fill_crate(c):
            Crate().put(c)
    """,
    "uses.py": """
        from pkg.shapes import Box, fill


        def run(n):
            return fill(n)


        def stock(box: Box, bag, n):
            def one(i):
                box.put(i)

            one(n)
            bag.put(n)
    """,
}


def test_callgraph_resolves_functions_methods_and_ctors(tmp_path):
    pkg = make_pkg(tmp_path, dict(SHAPES))
    graph = build_callgraph(pkg)
    assert "pkg.shapes.fill" in graph.functions
    assert "pkg.shapes.Box.put" in graph.functions
    fill = graph.functions["pkg.shapes.fill"]
    callees = {s.callee for s in fill.calls if s.callee}
    # Box() resolves to the constructor, b.put(i) through the local's
    # inferred class
    assert "pkg.shapes.Box.__init__" in callees
    assert "pkg.shapes.Box.put" in callees
    # range() stays an unknown/external callee, not a project edge
    externals = {s.external for s in fill.calls if s.external}
    assert "range" in externals


def test_callgraph_resolves_inherited_methods_and_imports(tmp_path):
    pkg = make_pkg(tmp_path, dict(SHAPES))
    graph = build_callgraph(pkg)
    # Crate has no put of its own; resolution walks the project base
    assert graph.method_of("pkg.shapes.Crate", "put") == "pkg.shapes.Box.put"
    run = graph.functions["pkg.uses.run"]
    assert {s.callee for s in run.calls} == {"pkg.shapes.fill"}
    # a parameter annotated with a project class carries it (also inside a
    # nested def); an unannotated one stays an unknown receiver
    stock = graph.functions["pkg.uses.stock"]
    puts = [s for s in stock.calls if s.method == "put"]
    assert [s.callee for s in puts] == ["pkg.shapes.Box.put", None]


def test_callgraph_classifies_global_mutability(tmp_path):
    pkg = make_pkg(
        tmp_path,
        {
            "state.py": """
                import re
                import threading

                TABLE = {}
                NAMES = ("a", "b")
                PATTERN = re.compile(r"x")
                LOCK = threading.Lock()
                TLS = threading.local()
            """,
        },
    )
    graph = build_callgraph(pkg)
    kinds = {g.name: g.kind for g in graph.globals.values()}
    assert kinds["TABLE"] == "mutable"
    assert kinds["NAMES"] == "immutable"
    assert kinds["PATTERN"] == "immutable"
    assert kinds["LOCK"] == "lock"
    assert kinds["TLS"] == "thread-local"


# ------------------------------------------------------------------- effects


def test_effect_fixpoint_over_mutual_recursion(tmp_path):
    pkg = make_pkg(
        tmp_path,
        {
            "scc.py": """
                STATE = []


                def ping(n):
                    if n <= 0:
                        return 0
                    return pong(n - 1)


                def pong(n):
                    STATE.append(n)
                    return ping(n - 1)
            """,
        },
    )
    graph = build_callgraph(pkg)
    summaries = infer_effects(graph)
    # the write surfaces in pong directly and reaches ping through the SCC
    for fn in ("pkg.scc.pong", "pkg.scc.ping"):
        assert "pkg.scc.STATE" in summaries[fn].writes, fn
    wit = summaries["pkg.scc.ping"].witness_for("write:pkg.scc.STATE")
    assert wit is not None and wit.via[0] == "pkg.scc.ping"
    # the direct write site stays attributed to pong only (race anchors)
    assert "pkg.scc.STATE" in summaries["pkg.scc.pong"].write_sites
    assert "pkg.scc.STATE" not in summaries["pkg.scc.ping"].write_sites


def test_param_mutation_binds_to_globals_at_call_sites(tmp_path):
    pkg = make_pkg(
        tmp_path,
        {
            "bind.py": """
                ACC = []


                def push(acc, x):
                    acc.append(x)


                def record(x):
                    push(ACC, x)
            """,
        },
    )
    summaries = infer_effects(build_callgraph(pkg))
    assert summaries["pkg.bind.push"].mutated_params == {"acc"}
    # the caller bound ACC to the mutated parameter: record writes ACC,
    # anchored at its own call line
    rec = summaries["pkg.bind.record"]
    assert "pkg.bind.ACC" in rec.writes
    assert "pkg.bind.ACC" in rec.write_sites


def test_hazard_effects_detected_and_seeded_rng_exempt(tmp_path):
    pkg = make_pkg(
        tmp_path,
        {
            "hz.py": """
                import random
                import time

                import numpy as np


                def roll():
                    return random.random()

                def seeded(seed):
                    return np.random.default_rng(seed)

                def stamp():
                    return time.time()

                def measure():
                    return time.perf_counter()

                def dump(path, text):
                    path.write_text(text)
            """,
        },
    )
    summaries = infer_effects(build_callgraph(pkg))
    assert summaries["pkg.hz.roll"].hazards == {"unseeded-rng"}
    assert summaries["pkg.hz.seeded"].hazards == set()
    assert summaries["pkg.hz.stamp"].hazards == {"wall-clock"}
    assert summaries["pkg.hz.measure"].hazards == set()  # perf_counter is fine
    assert summaries["pkg.hz.dump"].hazards == {"io"}


# -------------------------------------------------- rule fixtures: firing/clean


RACE_SHARED_FIRES = {
    "work.py": """
        from concurrent.futures import ThreadPoolExecutor

        TOTALS = {}


        def job(x):
            TOTALS[x] = x * 2


        def fan_out(items):
            with ThreadPoolExecutor() as tp:
                for it in items:
                    tp.submit(job, it)
    """,
}

RACE_SHARED_CLEAN = {
    "work.py": """
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
}

RACE_FORK_FIRES = {
    "fork.py": """
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

        CACHE = {}


        def worker(x):
            return CACHE.get(x, 0) + x


        def refresh(items):
            for k in items:
                CACHE[k] = k


        def drive(items):
            with ThreadPoolExecutor() as tp:
                tp.submit(refresh, items)
            with ProcessPoolExecutor() as pp:
                return [pp.submit(worker, i) for i in items]
    """,
}

RACE_FORK_CLEAN = {
    "fork.py": """
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

        CACHE = {}


        def worker(x):
            return x + 1


        def refresh(items):
            for k in items:
                CACHE[k] = k


        def drive(items):
            with ThreadPoolExecutor() as tp:
                tp.submit(refresh, items)
            with ProcessPoolExecutor() as pp:
                return [pp.submit(worker, i) for i in items]
    """,
}

CONTRACT_SRC = {
    "pure.py": """
        import random


        def helper():
            return random.random()


        def entry(x):
            return helper() + x


        def clean_entry(x):
            return x + 1
    """,
}


def test_race_shared_mut_fires_and_anchors_at_write(tmp_path):
    pkg = make_pkg(tmp_path, dict(RACE_SHARED_FIRES))
    findings = flow_findings(pkg)
    hits = [f for f in findings if f.rule_id == "RACE-SHARED-MUT"]
    assert len(hits) == 1
    assert hits[0].file == "pkg/work.py"
    assert "TOTALS" in hits[0].message and "job" in hits[0].message


def test_race_shared_mut_clean_under_lock(tmp_path):
    pkg = make_pkg(tmp_path, dict(RACE_SHARED_CLEAN))
    assert flow_findings(pkg) == []


RUN_IN_EXECUTOR = {
    "svc.py": """
        import asyncio
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

        SEEN = {}


        def note(x):
            SEEN[x] = True


        class Service:
            def __init__(self):
                self._pool = ThreadPoolExecutor()

            def _blocking(self, x):
                note(x)

            async def handle(self, x):
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(self._pool, self._blocking, x)


        async def offload(x):
            pool = ProcessPoolExecutor()
            await asyncio.get_running_loop().run_in_executor(pool, note, x)
    """,
}


def test_run_in_executor_is_a_multi_thread_root(tmp_path):
    """One hand-off site is enough to race: any number of coroutines may be
    awaiting it.  The callable is the second positional argument — a bound
    method of the enclosing class resolves — and a pool the function types
    as a process pool is a process root, which shares nothing."""
    pkg = make_pkg(tmp_path, dict(RUN_IN_EXECUTOR))
    roots = {r.owner: r for r in find_roots(build_callgraph(pkg))}
    handle, offload = roots["pkg.svc.Service.handle"], roots["pkg.svc.offload"]
    assert (handle.kind, handle.multi) == ("thread", True)
    assert handle.entries == ("pkg.svc.Service._blocking",)
    assert (offload.kind, offload.entries) == ("process", ("pkg.svc.note",))
    hits = [f for f in flow_findings(pkg) if f.rule_id == "RACE-SHARED-MUT"]
    assert len(hits) == 1 and "SEEN" in hits[0].message
    assert "Service._blocking" in hits[0].message  # reached via the service


def test_race_fork_state_fires_at_worker_entrypoint(tmp_path):
    pkg = make_pkg(tmp_path, dict(RACE_FORK_FIRES))
    findings = flow_findings(pkg)
    hits = [f for f in findings if f.rule_id == "RACE-FORK-STATE"]
    assert len(hits) == 1
    assert hits[0].file == "pkg/fork.py"
    assert "worker" in hits[0].message and "CACHE" in hits[0].message


def test_race_fork_state_clean_when_worker_is_pure(tmp_path):
    pkg = make_pkg(tmp_path, dict(RACE_FORK_CLEAN))
    findings = flow_findings(pkg)
    assert [f for f in findings if f.rule_id == "RACE-FORK-STATE"] == []


def test_flow_contract_fires_with_witness_chain(tmp_path):
    pkg = make_pkg(tmp_path, dict(CONTRACT_SRC))
    contract = Contract(
        name="pure-entry",
        entrypoints=("pkg.pure.entry",),
        description="test contract",
    )
    findings = flow_findings(pkg, contracts=(contract,))
    hits = [f for f in findings if f.rule_id == "FLOW-CONTRACT"]
    assert len(hits) == 1
    assert "unseeded-rng" in hits[0].message
    # the witness chain names the path the effect travelled
    assert "pkg.pure.entry -> pkg.pure.helper" in hits[0].message


def test_flow_contract_clean_entrypoint_passes(tmp_path):
    pkg = make_pkg(tmp_path, dict(CONTRACT_SRC))
    contract = Contract(
        name="pure-entry",
        entrypoints=("pkg.pure.clean_entry",),
        description="test contract",
    )
    assert flow_findings(pkg, contracts=(contract,)) == []


def test_flow_contract_reports_stale_entrypoint(tmp_path):
    pkg = make_pkg(tmp_path, dict(CONTRACT_SRC))
    contract = Contract(
        name="ghost",
        entrypoints=("pkg.pure.missing",),
        description="test contract",
    )
    findings = flow_findings(pkg, contracts=(contract,))
    assert len(findings) == 1
    assert findings[0].rule_id == "FLOW-CONTRACT"
    assert "stale" in findings[0].message


def test_every_flow_rule_has_firing_and_clean_coverage():
    """The three flow rules above are exactly the registered catalogue."""
    ids = {r.id for r in flow_rules()}
    assert ids == {"RACE-SHARED-MUT", "RACE-FORK-STATE", "FLOW-CONTRACT"}


# ------------------------------------------------------------- suppressions


def test_reasoned_suppression_silences_flow_finding(tmp_path):
    files = dict(RACE_SHARED_FIRES)
    files["work.py"] = files["work.py"].replace(
        "TOTALS[x] = x * 2",
        "TOTALS[x] = x * 2  # repro: allow[RACE-SHARED-MUT] test: sharded by x",
    )
    pkg = make_pkg(tmp_path, files)
    assert flow_findings(pkg) == []


def test_stale_flow_suppression_reported_by_flow_not_lint(tmp_path):
    files = dict(RACE_SHARED_CLEAN)
    files["work.py"] = files["work.py"].replace(
        "TOTALS[x] = x * 2",
        "TOTALS[x] = x * 2  # repro: allow[RACE-SHARED-MUT] nothing fires here",
    )
    pkg = make_pkg(tmp_path, files)
    findings = flow_findings(pkg)
    assert [f.rule_id for f in findings] == ["SUP-UNUSED"]
    # and the per-file lint leaves the judgement to the flow pass
    from repro.analysis.lint import lint_tree

    assert [f for f in lint_tree(pkg) if f.rule_id == "SUP-UNUSED"] == []


# ------------------------------------------------------------ mutation test


def test_reverting_counters_fix_refires_race(tmp_path):
    """Textually revert routing.py to bumping a module-level counter
    instance straight from the router (what the process-wide totals once
    were) and assert the race rule catches exactly that bug."""
    src = Path(repro.__file__).parent
    dst = tmp_path / "repro"
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
    routing = dst / "compiler" / "routing.py"
    text = routing.read_text()
    # the router fetches the thread's counters once per query and bumps
    # that instance; the reverted form bumps one shared by every thread
    fixed_import = "from repro.compiler.stats import MapperCounters, counters"
    fixed_bump = "stats = counters()\n    stats.route_calls += 1"
    assert fixed_import in text and fixed_bump in text
    routing.write_text(
        text.replace(
            fixed_import, fixed_import + "\n\nCOUNTERS = MapperCounters()"
        ).replace(fixed_bump, "stats = COUNTERS\n    COUNTERS.route_calls += 1")
    )
    report = analyze_tree(dst)
    hits = [
        f
        for f in report.findings
        if f.rule_id == "RACE-SHARED-MUT" and "routing" in f.file
    ]
    assert hits, "a shared counter bumped from the router must fire RACE-SHARED-MUT"
    assert all("COUNTERS" in f.message for f in hits)


# ------------------------------------------------------------------- e2e/CLI


def test_flow_baseline_is_clean_over_repro_tree():
    report = analyze_tree()
    assert report.findings == []
    # the concurrency surface the pass certifies is actually in view
    # compile_many and the service at workers >= 2 fan whole jobs out to a
    # process pool (no shared state to race on); the compiler's thread-side
    # concurrency is the service's run_in_executor hand-offs, which is
    # where RACE-SHARED-MUT reaches compile_job from
    kinds = {(r.owner, e): r.kind for r in report.roots for e in r.entries}
    pooled = "repro.pipeline.compile._job_outcome_pooled"
    service = "repro.serve.service.CompileService."
    assert kinds["repro.pipeline.compile.compile_many_outcomes", pooled] == "process"
    assert (service + "_compile_miss", pooled) in kinds
    assert kinds[service + "_compile_miss", service + "_compile_inline"] == "thread"
    assert any(
        r.kind == "thread" and r.owner.startswith("repro.serve.service.")
        for r in report.roots
    )


def test_default_contracts_cover_live_entrypoints():
    graph = build_callgraph()
    summaries = infer_effects(graph)
    assert check_contracts(graph, summaries) == []
    # no contract sanctions a global write — not a compile, on a slot
    # thread or as a pool worker's root, and not the service's loop side
    # (key and probe memos, on-loop store probe), whose certified probe is
    # really in view: the inferred summary of submit() reaches the one file
    # read of a hit, inside the store's `get`, through `_stored_bytes`
    assert all(c.allow_global_writes == frozenset() for c in DEFAULT_CONTRACTS)
    compile_job = next(c for c in DEFAULT_CONTRACTS if c.name == "compile-job")
    assert "repro.pipeline.compile._job_outcome_pooled" in compile_job.entrypoints
    submit = summaries["repro.serve.service.CompileService.submit"]
    assert "io" in submit.hazards and not submit.writes
    assert submit.witness_for("io").via[-1] == "repro.pipeline.store.ArtifactStore.get"


def test_cli_flow_exit_codes_and_json(tmp_path, capsys):
    assert main(["flow"]) == 0
    capsys.readouterr()

    pkg = make_pkg(tmp_path, dict(RACE_SHARED_FIRES))
    code = main(["flow", "--root", str(pkg), "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert any(f["rule"] == "RACE-SHARED-MUT" for f in payload["findings"])

    assert main(["flow", "--root", str(tmp_path / "missing")]) == 2


def test_cli_all_includes_flow_and_stays_clean(capsys):
    assert main(["all", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "flow:" in out


def test_cli_rules_lists_flow_rules(capsys):
    assert main(["rules"]) == 0
    out = capsys.readouterr().out
    for rid in ("RACE-SHARED-MUT", "RACE-FORK-STATE", "FLOW-CONTRACT"):
        assert rid in out


def test_cli_summaries_dump(capsys):
    assert main(["flow", "--summaries"]) == 0
    payload = json.loads(capsys.readouterr().out)
    worker = payload["repro.pipeline.compile._job_outcome_pooled"]
    # telemetry is a return value: a compile writes no global, even as the
    # root of a pool worker process
    assert "mutates-global" not in worker["effects"] and not worker["writes"]
