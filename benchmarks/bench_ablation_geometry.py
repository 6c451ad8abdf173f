"""ABL-PG — ablation: page geometry (Fig. 4's two alternatives).

The paper shows a 4x4 CGRA paged as four 2x2 tiles or four 4x1 columns.
This bench compiles the suite under both geometries and compares the
constrained IIs and page needs, plus the fold-relevant difference: the
quadrant tiling closes the ring physically (wrap adjacency), the column
tiling does not.
"""

from __future__ import annotations

from conftest import emit
from repro.arch.cgra import CGRA
from repro.compiler.paged import map_dfg_paged
from repro.core.paging import PageLayout
from repro.kernels import get_kernel, kernel_names
from repro.util.errors import MappingError
from repro.util.tables import format_table

KERNELS = ["mpeg", "sor", "laplace", "wavelet", "swim", "compress", "gsr", "lowpass"]


def test_geometry_ablation(store):
    cgra = CGRA(4, 4, rf_depth=16)
    quad = PageLayout(cgra, (2, 2))
    cols = PageLayout(cgra, (4, 1))
    rows = []
    for name in KERNELS:
        dfg = get_kernel(name).build()
        cells = [name]
        for layout in (quad, cols):
            try:
                pm = map_dfg_paged(dfg, cgra, layout)
                cells.append(f"II{pm.ii}/{pm.pages_used}p")
            except MappingError:
                cells.append("n/a")
        rows.append(cells)
    emit(
        format_table(
            ["kernel", "2x2 quadrants", "4x1 columns"],
            rows,
            title="ABL-PG — page geometry ablation (4x4 CGRA, 4 pages)",
        )
    )
    emit(
        f"wrap adjacency: quadrants={quad.ring_wrap_adjacent}, "
        f"columns={cols.ring_wrap_adjacent}"
    )
    assert quad.ring_wrap_adjacent and not cols.ring_wrap_adjacent
    mapped = sum(1 for r in rows if r[1] != "n/a" and r[2] != "n/a")
    assert mapped >= len(KERNELS) - 1
