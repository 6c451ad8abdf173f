"""ABL-OVH — sensitivity to the reconfiguration-overhead assumption.

§VII-B assumes "algorithm execution time is negligible" because thread
transfer dominates.  This bench quantifies the slack in that assumption:
the multithreading improvement (8 threads, 75% need, 4x4/page-4) is swept
against a per-reallocation stall charged to the reshaped thread.  The gain
must decay gracefully and still be positive at overheads far above the
measured PageMaster runtime (sub-millisecond, see ALG1).
"""

from __future__ import annotations

from statistics import mean

from conftest import emit
from repro.pipeline import build_profiles
from repro.sim.system import SystemConfig, improvement, simulate_system
from repro.sim.workload import generate_workload
from repro.util.rng import derive_seed
from repro.util.tables import format_table

OVERHEADS = [0, 10, 100, 1000, 10_000]


def test_overhead_sensitivity(store):
    profiles = build_profiles(4, 4, store=store)
    nominal = {k: p.ii_paged for k, p in profiles.items()}
    rows = []
    curve = {}
    for ovh in OVERHEADS:
        imps = []
        for r in range(3):
            wl = generate_workload(
                8,
                0.75,
                sorted(profiles),
                nominal,
                seed=derive_seed(1, "ovh", r),
            )
            cfg0 = SystemConfig(n_pages=4, profiles=profiles)
            base = simulate_system(wl, cfg0, "single")
            cfg = SystemConfig(
                n_pages=4, profiles=profiles, reconfig_overhead=ovh
            )
            mt = simulate_system(wl, cfg, "multithreaded")
            imps.append(improvement(base, mt))
        curve[ovh] = mean(imps)
        rows.append([ovh, f"{mean(imps) * 100:+.1f}%"])
    emit(
        format_table(
            ["reconfig overhead (cycles)", "improvement"],
            rows,
            title="ABL-OVH — multithreading gain vs reallocation overhead",
        )
    )
    assert curve[0] >= curve[10_000]  # monotone-ish decay
    assert curve[100] > 0.0  # robust well beyond measured transform cost
