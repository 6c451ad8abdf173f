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
