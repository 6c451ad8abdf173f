"""ABL-POL — ablation: runtime page-allocation policy.

The paper evaluates its halving policy (§VII-B).  This bench compares it
against fair-share rebalancing and PPA-style static equal partitioning
(related work [28]) on identical workloads, reporting the improvement each
achieves over the single-threaded baseline.  The dynamic policies must
beat the static one at low thread counts (static slices waste the array
when few threads run — the PPA limitation the paper calls out).
"""

from __future__ import annotations

from statistics import mean

from conftest import emit
from repro.pipeline import build_profiles
from repro.core.policies import (
    FairSharePolicy,
    HalvingPolicy,
    NeedAwareHalvingPolicy,
    StaticEqualPolicy,
)
from repro.sim.system import SystemConfig, improvement, simulate_system
from repro.sim.workload import generate_workload
from repro.util.rng import derive_seed
from repro.util.tables import format_table

SIZE, PAGE_SIZE, N_PAGES = 4, 4, 4


def test_policy_ablation(store):
    profiles = build_profiles(SIZE, PAGE_SIZE, store=store)
    nominal = {k: p.ii_paged for k, p in profiles.items()}
    policies = {
        "halving (paper)": lambda: HalvingPolicy(),
        "need-aware halving": lambda: NeedAwareHalvingPolicy(),
        "fair share": lambda: FairSharePolicy(),
        "static equal (PPA-like)": lambda: StaticEqualPolicy(N_PAGES),
    }
    rows = []
    results: dict[str, dict[int, float]] = {name: {} for name in policies}
    for n_threads in (1, 2, 4, 8):
        base_cfg = SystemConfig(n_pages=N_PAGES, profiles=profiles)
        row = [n_threads]
        for name, factory in policies.items():
            imps = []
            for r in range(3):
                wl = generate_workload(
                    n_threads,
                    0.75,
                    sorted(profiles),
                    nominal,
                    seed=derive_seed(0, "ablpol", n_threads, r),
                )
                base = simulate_system(wl, base_cfg, "single")
                cfg = SystemConfig(
                    n_pages=N_PAGES, profiles=profiles, policy=factory()
                )
                mt = simulate_system(wl, cfg, "multithreaded")
                imps.append(improvement(base, mt))
            results[name][n_threads] = mean(imps)
            row.append(f"{mean(imps) * 100:+.1f}%")
        rows.append(row)
    emit(
        format_table(
            [
                "threads",
                "halving (paper)",
                "need-aware halving",
                "fair share",
                "static equal (PPA-like)",
            ],
            rows,
            title="ABL-POL — allocation policy ablation (4x4, page size 4)",
        )
    )
    # dynamic policies dominate static partitioning when the array is
    # under-subscribed (1-2 threads)
    for few in (1, 2):
        assert (
            results["halving (paper)"][few]
            >= results["static equal (PPA-like)"][few] - 1e-9
        )
