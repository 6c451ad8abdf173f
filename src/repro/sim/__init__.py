"""Simulators.

* :mod:`repro.sim.reference` — architecture-independent DFG interpreter,
  the functional golden model for every kernel.
* :mod:`repro.sim.lowering` — turns a compiled mapping into an explicit
  firing program (one record per op/route execution).
* :mod:`repro.sim.retarget` — turns a paged mapping plus a PageMaster
  placement into the firing program of the *transformed* (shrunken)
  schedule, applying fold mirroring and resolving each transfer to a
  rotating-register read or a global-storage round trip.
* :mod:`repro.sim.cgra_sim` — cycle-accurate execution of firing programs
  with register-file depth, slot-conflict, bus and memory checking.
* :mod:`repro.sim.workload`, :mod:`repro.sim.system` — the multithreaded
  system model of §VII-B: threads alternating CPU and CGRA phases on a
  multithreaded host with the CGRA as shared accelerator.
* :mod:`repro.sim.oracle`, :mod:`repro.sim.fuzz` — the cycle-quantum
  reference simulator that replays a system run's decision trace and
  re-derives its results independently, the invariant checker over
  results and the timelines replayed from the same trace, and the seeded
  workload fuzzer asserting event-sim == oracle across the configuration
  lattice.
"""

from repro.sim.reference import run_reference
from repro.sim.lowering import Firing, ResolvedRead, lower_mapping
from repro.sim.cgra_sim import SimResult, simulate
from repro.sim.retarget import retarget_firings, required_batches
from repro.sim.workload import ThreadSpec, Segment, generate_workload
from repro.sim.system import (
    SystemConfig,
    SystemResult,
    improvement,
    simulate_system,
)
from repro.sim.trace import DecisionTrace, SystemTimeline
from repro.sim.oracle import (
    OracleResult,
    check_invariants,
    compare_results,
    run_oracle,
    verify_system,
)
from repro.sim.fuzz import FuzzReport, run_fuzz

__all__ = [
    "run_reference",
    "Firing",
    "ResolvedRead",
    "lower_mapping",
    "SimResult",
    "simulate",
    "retarget_firings",
    "required_batches",
    "ThreadSpec",
    "Segment",
    "generate_workload",
    "SystemConfig",
    "SystemResult",
    "improvement",
    "simulate_system",
    "DecisionTrace",
    "SystemTimeline",
    "OracleResult",
    "check_invariants",
    "compare_results",
    "run_oracle",
    "verify_system",
    "FuzzReport",
    "run_fuzz",
]
