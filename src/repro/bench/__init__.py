"""Experiment harness.

One driver per paper artifact (see DESIGN.md's per-experiment index):

* :mod:`repro.bench.fig8` — Fig. 8: II loss caused by the compile-time
  paging constraints, per kernel / CGRA size / page size;
* :mod:`repro.bench.fig9` — Fig. 9: system throughput improvement from
  multithreading, per CGRA size / page size / CGRA-need / thread count;
* :mod:`repro.bench.experiments` — registry + ``python -m repro.bench``.

All kernel compilation is obtained through :mod:`repro.pipeline` — the
content-addressed artifact store plus parallel compile fan-out.
"""
