"""Fig. 8 — performance difference caused by the paging constraints.

For each benchmark and page size on one CGRA, report
``performance % = II_baseline / II_paged * 100``: 100% means the paging
constraints cost nothing, below 100% a degradation, above 100% the
constrained mapper found a better schedule (the paper's bars also exceed
100% occasionally).  Unmappable configurations are reported as ``None``,
mirroring the paper's omission of configurations its compiler did not
generate (e.g. 4x4 with 8-PE pages).

Compilation goes through :mod:`repro.pipeline`: the whole (kernel x page
size) sweep is submitted as one batch, so a cold cache uses every worker
and a warm cache performs zero mapper invocations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels import kernel_names
from repro.pipeline import ArtifactStore, CompileJob, compile_many
from repro.util.tables import format_table

__all__ = ["Fig8Row", "run_fig8", "render_fig8", "page_sizes_for"]


def page_sizes_for(size: int) -> list[int]:
    """The paper's page sizes per CGRA: {2,4} on 4x4 (8 gives only two
    pages, "not enough multithreading potential"), {2,4,8} on 6x6/8x8."""
    return [2, 4] if size <= 4 else [2, 4, 8]


@dataclass(frozen=True)
class Fig8Row:
    """One bar group of Fig. 8: a kernel's performance per page size."""

    kernel: str
    ii_base: int
    per_page_size: dict[int, float | None]  # page size -> performance ratio


def run_fig8(
    size: int,
    *,
    page_sizes: list[int] | None = None,
    seed: int = 0,
    store: ArtifactStore | None = None,
    kernels: list[str] | None = None,
    workers: int = 1,
    arch: str | None = None,
) -> list[Fig8Row]:
    """Reproduce Fig. 8(a/b/c) for one CGRA size.

    *arch* compiles against a fabric preset instead of the homogeneous
    ``size x size`` grid (``repro.arch.presets``; must agree with *size*).
    """
    sizes = page_sizes if page_sizes is not None else page_sizes_for(size)
    names = kernels if kernels is not None else kernel_names()
    jobs = [
        CompileJob(name, size, ps, seed=seed, arch=arch)
        for name in names
        for ps in sizes
    ]
    artifacts = dict(
        zip(
            [(j.kernel, j.page_size) for j in jobs],
            compile_many(jobs, store=store, workers=workers),
        )
    )
    rows: list[Fig8Row] = []
    for name in names:
        ratios: dict[int, float | None] = {}
        ii_base = 0
        for ps in sizes:
            artifact = artifacts[(name, ps)]
            if artifact.unmappable:
                ratios[ps] = None
                continue
            ii_base = artifact.ii_base
            ratios[ps] = artifact.ii_base / artifact.ii_paged
        rows.append(Fig8Row(name, ii_base, ratios))
    return rows


def render_fig8(size: int, rows: list[Fig8Row]) -> str:
    """Paper-style table: one row per kernel, one column per page size."""
    sizes = sorted({ps for r in rows for ps in r.per_page_size})
    headers = ["kernel", "II_base"] + [f"page={ps}" for ps in sizes]
    body = []
    for r in rows:
        cells = [r.kernel, r.ii_base]
        for ps in sizes:
            v = r.per_page_size.get(ps)
            cells.append("n/a" if v is None else f"{v * 100:.1f}%")
        body.append(cells)
    avg = ["average", ""]
    for ps in sizes:
        vals = [r.per_page_size[ps] for r in rows if r.per_page_size.get(ps)]
        avg.append(f"{sum(vals) / len(vals) * 100:.1f}%" if vals else "n/a")
    body.append(avg)
    return format_table(
        headers,
        body,
        title=f"Fig. 8 — paging-constraint performance, {size}x{size} CGRA",
    )
