"""repro — a reproduction of *Enabling Multithreading on CGRAs* (ICPP 2011).

The package provides, from scratch:

* a CGRA architecture model and cycle-accurate simulator
  (:mod:`repro.arch`, :mod:`repro.sim`),
* a dataflow-graph substrate and the 11-kernel media benchmark suite
  (:mod:`repro.dfg`, :mod:`repro.kernels`),
* a modulo-scheduling mapping compiler with the paper's compile-time
  paging constraints (:mod:`repro.compiler`),
* the paper's contribution — CGRA paging, the PageMaster runtime
  transformation and the space-multiplexing runtime (:mod:`repro.core`),
* the multithreaded system model and the experiment harness regenerating
  every figure (:mod:`repro.sim.system`, :mod:`repro.bench`).

Quick tour::

    from repro.arch.presets import preset
    from repro.core.paging import PageLayout
    from repro.compiler.paged import map_dfg_paged
    from repro.core.pagemaster import PageMaster
    from repro.kernels import get_kernel

    cgra = preset("4x4")  # the paper's 4x4 fabric
    layout = PageLayout(cgra, (2, 2))
    paged = map_dfg_paged(get_kernel("mpeg").build(), cgra, layout)
    shrink = PageMaster(paged.pages_used, paged.ii, 1).place()
    print(shrink.summary())

See ``examples/`` for runnable walkthroughs and ``python -m repro.bench``
for the paper's figures.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
