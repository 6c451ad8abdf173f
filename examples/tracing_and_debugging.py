#!/usr/bin/env python3
"""Inspecting what a mapped kernel actually does, cycle by cycle.

Shows the debugging workflow a compiler developer would use: render the
mapping on the PE grid, trace its execution (every firing with operand
values), follow one dataflow value through the fabric, and watch the OS
manager's timeline in a small multithreaded run, replayed from the
decisions the simulation recorded.

Run:  python examples/tracing_and_debugging.py
"""

from repro import viz
from repro.arch.cgra import CGRA
from repro.compiler.ems import map_dfg
from repro.kernels import bind_memory, get_kernel
from repro.sim.cgra_sim import simulate
from repro.sim.lowering import lower_mapping
from repro.sim.system import KernelProfile, SystemConfig, simulate_system
from repro.sim.trace import CycleTrace, DecisionTrace, SystemTimeline
from repro.sim.workload import Segment, ThreadSpec

TRIP = 4


def main() -> None:
    cgra = CGRA(4, 4, rf_depth=8)
    spec = get_kernel("sor")
    dfg, arrays, _ = spec.fresh(seed=0, trip=TRIP)
    mapping = map_dfg(dfg, cgra)

    print("=== the mapping on the grid")
    print(viz.render_mapping(mapping))

    print("\n=== cycle trace (first three cycles)")
    mem = bind_memory(arrays)
    trace = CycleTrace()
    simulate(lower_mapping(mapping, mem, TRIP), cgra, mem, trace=trace)
    print(trace.render(first=0, last=2))

    print("\n=== following the recurrence value ('relax' = out[i])")
    for rec in trace.of_op("relax"):
        print(
            f"  iteration {rec.iteration}: relax({', '.join(map(str, rec.operands))})"
            f" -> {rec.value}  (cycle {rec.cycle}, PE {rec.pe})"
        )

    print("\n=== OS timeline of a tiny multithreaded run")
    profiles = {"k": KernelProfile("k", 2, 2, pages_used=4)}
    workload = [
        ThreadSpec(0, (Segment("cgra", kernel="k", trip=40),)),
        ThreadSpec(1, (Segment("cgra", kernel="k", trip=20),), arrival=20),
    ]
    decisions = DecisionTrace()
    simulate_system(
        workload,
        SystemConfig(n_pages=4, profiles=profiles),
        "multithreaded",
        decisions=decisions,
    )
    timeline = SystemTimeline.replay(decisions, workload)
    print(timeline.render())
    # json.dump(timeline.chrome_trace(), f) gives a file Perfetto opens
    slices = [e for e in timeline.chrome_trace()["traceEvents"] if e["ph"] == "X"]
    print(f"({len(slices)} slices in its Chrome / Perfetto trace)")


if __name__ == "__main__":
    main()
