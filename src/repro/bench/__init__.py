"""Experiment harness.

One driver per paper artifact (see DESIGN.md's per-experiment index):

* :mod:`repro.bench.fig8` — Fig. 8: II loss caused by the compile-time
  paging constraints, per kernel / CGRA size / page size;
* :mod:`repro.bench.fig9` — Fig. 9: system throughput improvement from
  multithreading, per CGRA size / page size / CGRA-need / thread count;
* :mod:`repro.bench.experiments` — registry + ``python -m repro.bench``.

All kernel compilation is obtained through :mod:`repro.pipeline` — the
content-addressed artifact store plus parallel compile fan-out — of which
:func:`~repro.pipeline.build_profiles` and
:class:`~repro.pipeline.ArtifactStore` are re-exported here for
convenience.
"""

from repro.bench.fig8 import Fig8Row, run_fig8
from repro.bench.fig9 import Fig9Cell, run_fig9
from repro.bench.reporting import fig8_to_records, fig9_to_records, write_json
from repro.pipeline import ArtifactStore, build_profiles

__all__ = [
    "ArtifactStore",
    "build_profiles",
    "Fig8Row",
    "run_fig8",
    "Fig9Cell",
    "run_fig9",
    "fig8_to_records",
    "fig9_to_records",
    "write_json",
]
