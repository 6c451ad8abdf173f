"""ABL-SPL — ablation: route-through-slots vs memory spilling for
long-lived temporaries (the two implementations of the §VI-B
register-usage constraint).

A value can stay alive either as a chain of per-cycle route slots or as a
store/load round trip through the reserved global-storage buffer.  The
measured trade-off on our fabric: the media kernels' lifetimes are short
(few or no spill candidates, and forcing spills adds memory-bus pressure —
fft gets *worse*), while a synthetic kernel with a genuinely long-lived
value cuts its transfer slots substantially by spilling.  This is exactly
why the paper words the constraint as "use memory for temporaries" while
leaving short transfers on the interconnect.
"""

from __future__ import annotations

from conftest import emit
from repro.arch.cgra import CGRA
from repro.compiler.constraints import register_usage_report
from repro.compiler.ems import map_dfg
from repro.dfg.builder import DFGBuilder
from repro.dfg.spill import spill_long_edges
from repro.kernels import get_kernel
from repro.util.tables import format_table

KERNELS = ["lowpass", "sobel", "yuv2rgb", "fft"]


def long_lived_dfg(levels: int = 10):
    """A deep chain whose first load is also needed at the very end."""
    b = DFGBuilder("longlive")
    first = b.load("in")
    x = first
    for _ in range(levels):
        x = b.add(x, b.const(1))
    b.store("out", b.add(x, first))
    return b.build()


def _slots(mapping) -> int:
    rep = register_usage_report(mapping)
    return rep["self_holds"] + rep["move_hops"]


def test_spill_ablation():
    cgra = CGRA(4, 4, rf_depth=8)
    rows = []
    for name in KERNELS:
        dfg = get_kernel(name).build()
        plain = map_dfg(dfg, cgra)
        spilled_dfg, n = spill_long_edges(dfg, threshold=3)
        spilled = map_dfg(spilled_dfg, cgra)
        rows.append(
            [name, n, plain.ii, _slots(plain), spilled.ii, _slots(spilled)]
        )
    deep = long_lived_dfg()
    plain = map_dfg(deep, cgra)
    spilled_dfg, n = spill_long_edges(deep, threshold=3)
    spilled = map_dfg(spilled_dfg, cgra)
    rows.append(
        ["longlive*", n, plain.ii, _slots(plain), spilled.ii, _slots(spilled)]
    )
    emit(
        format_table(
            [
                "kernel",
                "edges spilled",
                "II (routes)",
                "route slots",
                "II (spilled)",
                "route slots",
            ],
            rows,
            title=(
                "ABL-SPL — routing vs memory spilling (4x4; * = synthetic "
                "long-lifetime kernel)"
            ),
        )
    )
    deep_row = rows[-1]
    # the long-lifetime case is where spilling pays: fewer transfer slots
    # at unchanged II
    assert deep_row[5] < deep_row[3]
    assert deep_row[4] <= deep_row[2]
    # media kernels have (almost) nothing worth spilling at this threshold
    assert sum(r[1] for r in rows[:-1]) <= 6
