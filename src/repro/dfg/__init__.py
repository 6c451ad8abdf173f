"""Dataflow-graph substrate.

Loop kernels are represented as DFGs (Fig. 2 of the paper): vertices are
micro-operations, edges are data dependencies, optionally loop-carried with
an iteration distance.  This package provides the graph model, a builder
API, scheduling analyses (ASAP/ALAP, RecMII), and structural transforms
(unrolling, spilling long edges through memory).
"""

from repro.dfg.graph import DFG, Edge, MemRef, Op
from repro.dfg.builder import DFGBuilder
from repro.dfg.analysis import asap_times, alap_times, rec_mii
from repro.dfg.transforms import unroll
from repro.dfg.spill import spill_candidates, spill_long_edges
from repro.dfg.random_dfg import random_arrays, random_dfg
from repro.dfg.validate import validate_dfg

__all__ = [
    "DFG",
    "Edge",
    "MemRef",
    "Op",
    "DFGBuilder",
    "asap_times",
    "alap_times",
    "rec_mii",
    "unroll",
    "spill_long_edges",
    "spill_candidates",
    "random_dfg",
    "random_arrays",
    "validate_dfg",
]
