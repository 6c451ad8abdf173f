"""CGRA architecture model.

This package describes the hardware substrate of the paper (Fig. 1): a 2-D
grid of processing elements (PEs) connected by a mesh interconnect, the
operations each PE's ALU performs, and a data memory with one shared bus
per row.  The behaviour of a PE over time — its rotating register file
(§VI-E) and one operation per cycle — is modelled where firings execute,
in :mod:`repro.sim.cgra_sim`.  The per-PE configuration memory is not
modelled as words: a compiled schedule is a
:class:`~repro.compiler.mapping.Mapping`, lowered to firings by
:mod:`repro.sim.lowering`.
"""
