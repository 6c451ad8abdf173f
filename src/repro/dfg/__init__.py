"""Dataflow-graph substrate.

Loop kernels are represented as DFGs (Fig. 2 of the paper): vertices are
micro-operations, edges are data dependencies, optionally loop-carried with
an iteration distance.  This package provides the graph model, a builder
API, scheduling analyses (ASAP/ALAP, RecMII), and structural transforms
(unrolling, spilling long edges through memory).
"""
