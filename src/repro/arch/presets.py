"""Canonical fabric presets.

Every experiment in the repository runs on one of a handful of fabrics;
before this module each call site rebuilt them from literals
(``CGRA(4, 4, rf_depth=16)`` was repeated across the package docstring,
``__main__``, the examples, and the benches).  The presets give those
fabrics names and one construction path:

========== ===== ========== ============================================
name       grid  rf depth   capabilities
========== ===== ========== ============================================
4x4        4x4   16         homogeneous (the paper's fabric)
6x6        6x6   24         homogeneous
8x8        8x8   32         homogeneous
16x16      16x16 64         homogeneous
4x4-memcols   4x4   16      memory ports on even columns only
6x6-memcols   6x6   24      memory ports on even columns only
8x8-memcols   8x8   32      memory ports on even columns only
16x16-memcols 16x16 64      memory ports on even columns only
========== ===== ========== ============================================

The register-file depth follows the repository-wide ``4 * size`` rule
(:func:`experiment_cgra`), so ``preset("4x4")`` is *exactly* the
fabric the experiments build — the same object, so the same
fingerprint and artifact addresses.  Each spec is built once per process
and shared: a :class:`~repro.arch.cgra.CGRA` is frozen, so the tables
derived from it (grid index, fingerprint, page layouts and the routing
tables of each) are built once and serve every job on that fabric.  The
``-memcols`` variants put a memory port in every even column
(:meth:`~repro.arch.capability.CapabilityMap.mem_columns`), so every
page tile at least two columns wide contains mem-capable PEs
(single-column ``ps=2`` tiles on odd columns hold none — the mapper then
clusters memory ops onto the even-column pages).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from repro.arch.capability import CapabilityMap
from repro.arch.cgra import CGRA
from repro.util.errors import ArchitectureError

__all__ = [
    "PRESET_SIZES",
    "preset",
    "preset_names",
    "experiment_cgra",
    "mem_columns_for",
]

#: Grid sizes with a registered preset.
PRESET_SIZES: tuple[int, ...] = (4, 6, 8, 16)


@lru_cache(maxsize=None)
def experiment_cgra(size: int) -> CGRA:
    """The homogeneous ``size`` x ``size`` experiment fabric, one shared
    object per size.

    Register-file depth scales with the grid (``4 * size``) exactly as
    the figure-8/9 pipelines have always built it."""
    if size < 2:
        raise ArchitectureError(f"experiment fabric needs size >= 2, got {size}")
    return CGRA(size, size, rf_depth=4 * size)


def mem_columns_for(size: int) -> tuple[int, ...]:
    """The even columns — the ``-memcols`` presets' memory interface."""
    return tuple(range(0, size, 2))


@lru_cache(maxsize=None)
def _memcols_cgra(size: int) -> CGRA:
    cap = CapabilityMap.mem_columns(size, size, mem_columns_for(size))
    return CGRA(size, size, rf_depth=4 * size, capability=cap)


def _builders() -> dict[str, Callable[[], CGRA]]:
    reg: dict[str, Callable[[], CGRA]] = {}
    for size in PRESET_SIZES:
        reg[f"{size}x{size}"] = lambda s=size: experiment_cgra(s)
        reg[f"{size}x{size}-memcols"] = lambda s=size: _memcols_cgra(s)
    return reg


_REGISTRY = _builders()


def preset_names() -> list[str]:
    """All registered preset names, sorted."""
    return sorted(_REGISTRY)


def preset(name: str) -> CGRA:
    """The shared CGRA of preset *name* (see the module table): every call
    with one name returns the same frozen object."""
    try:
        build = _REGISTRY[name]
    except KeyError:
        raise ArchitectureError(
            f"unknown fabric preset {name!r}; known: {', '.join(preset_names())}"
        ) from None
    return build()
