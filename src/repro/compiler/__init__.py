"""CGRA mapping compiler.

Maps a software-pipelined loop DFG onto the CGRA: operations to PEs, data
dependency edges to interconnect paths, all inside a modulo schedule with
initiation interval II (§II of the paper).  The mapper,
:func:`repro.compiler.ems.map_dfg`, is a modulo-scheduling place-and-route
mapper in the style of edge-centric modulo scheduling (EMS, Park et al.),
the baseline compiler the paper builds on.

The *paged* compiler (:func:`repro.compiler.paged.map_dfg_paged`) runs the
same engine with the paper's §VI-B compile-time constraints switched on and
additionally returns the page-level schedule the PageMaster transformation
consumes.  It has two backends (:data:`~repro.compiler.ems.BACKENDS`): the
flat ladder and ``hier``, the same ladder with a one-page probe first on
every II rung.

A mapper knows how to run one (II, attempt) probe; the walk over IIs and
restarts is :func:`repro.compiler.search.climb_ladder`, the single ladder
driver every entry point above calls: one serial walk in the calling
thread, first success wins.
"""
