"""The names ``perf/`` binds in the program resolve.

``perf/`` reaches into ``src/`` three ways: span targets looked up by
module and attribute (``perf/layers.py``'s ``TARGETS``), names imported
directly (``perf/wl_fold.py``'s ``paged_bus_key``), and attributes of
modules imported under an alias (``compile_mod.compile_job_stats``,
``cgra_sim_mod.simulate(..., bus_key=...)``).  The benchmark must not
change when the program does, so a name that moves is caught here rather
than by the benchmark's own ``--check``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from perf.layers import TARGETS

PERF = Path(__file__).resolve().parent.parent / "perf"
WORKLOADS = sorted(p.stem for p in PERF.glob("wl_*.py"))


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    for attr in path.split("."):
        owner = getattr(owner, attr, None)
    return owner


def test_every_span_target_resolves():
    targets = sorted({target for _span, target, _req in TARGETS})
    assert [t for t in targets if not callable(_resolve(t))] == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_module_attribute_a_workload_uses_exists(name):
    """Importing the workload resolves its ``from repro... import`` names;
    every ``alias.attr`` of an ``import repro.x as alias`` must exist too."""
    importlib.import_module(f"perf.{name}")
    tree = ast.parse((PERF / f"{name}.py").read_text())
    aliases = {
        alias.asname: importlib.import_module(alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.asname and alias.name.startswith("repro.")
    }
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }
    for alias, attr in sorted(used):
        assert hasattr(aliases[alias], attr), f"perf/{name}.py: {alias}.{attr}"


def test_fold_workload_simulates_under_the_paged_bus_key():
    import perf.wl_fold
    from repro.compiler.constraints import paged_bus_key
    from repro.sim.cgra_sim import simulate

    assert perf.wl_fold.paged_bus_key is paged_bus_key
    assert "bus_key" in inspect.signature(simulate).parameters


#: The workloads whose spans all fire in this process (the HTTP ones fire
#: in a server child), and the span only ``perf/``'s own client records.
IN_PROCESS = [
    "compile_flat_4x4", "compile_hier_8x8", "fold_exec", "sim_bursty_halving",
    "sim_poisson_fairshare", "service_burst",
]
CLIENT_SIDE = {"loadgen.request"}


@pytest.mark.parametrize("name", IN_PROCESS)
def test_every_expected_span_fires_in_a_collecting_scope(name):
    """The program's own spans cover what ``perf/layers.py`` declares: a
    workload run at ``--check`` sizes under one ``collecting()`` scope
    (set-up, a repeat and the correctness checks) fires every span named
    for it in ``EXPECTED``, with no tracer installed.  ``service_burst``'s
    check compiles a reference store under ``perf/out``, so it is not run.
    ``perf/`` runs each workload in a fresh process; the one process-wide
    cache a declared span sits behind (``steady_state_ii``'s, over
    ``PageMaster.place``) is emptied to match."""
    import time

    from perf.harness import Run
    from perf.layers import EXPECTED
    from perf.run import build_workload
    from repro.core.pagemaster import steady_state_ii
    from repro.util.spans import collecting

    steady_state_ii.__wrapped__.cache_clear()

    run = Run(
        workload=name, seed=0, seconds=0.1, trace=False, check_sizes=True,
        process_start=time.perf_counter(),
    )
    workload = build_workload(name)
    with collecting() as scope:
        try:
            workload.prepare(run)
            repeats = [workload.repeat(run, 0)]
            if name != "service_burst":
                assert workload.check(run, repeats) == []
        finally:
            workload.cleanup()
    fired = {span_name for span_name, _start, _end in scope.spans}
    assert sorted(set(EXPECTED[name]) - CLIENT_SIDE - fired) == []
