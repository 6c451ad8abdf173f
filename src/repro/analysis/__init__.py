"""Static analysis for the repro stack: two passes, one rule registry.

* :mod:`repro.analysis.lint` — AST determinism lint over the source tree
  (set-order iteration, salted ``hash()``, wall-clock values, unsorted
  directory scans, mutable defaults, module-global writes);
* :mod:`repro.analysis.audit` — mapper-independent artifact auditor
  re-proving every stored :class:`~repro.pipeline.artifact.CompiledKernel`
  from bytes alone (content address, canonical encoding, mapping legality,
  §VI-B constraints, PageMaster foldability for every M <= N).

CLI: ``python -m repro.analysis {lint,audit,all,rules} [--strict]``.
"""
