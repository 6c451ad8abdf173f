"""Deterministic workload fuzzer for the simulation oracle.

Sweeps a seeded lattice of :func:`~repro.sim.workload.generate_workload`
configurations — all four allocation policies, staggered and simultaneous
arrivals, reconfiguration overhead on/off, iteration-boundary switching
on/off — and pushes every case through
:func:`~repro.sim.oracle.verify_system` in **both** modes:
the event-driven simulator, which applies each decision's net effect per
thread, must agree bit-for-bit with the cycle-quantum reference oracle,
which replays the same decisions event by event, and satisfy every
conservation invariant, or
:class:`~repro.util.errors.OracleViolation` names the divergence.  Every
case is then simulated once more with no recorder attached and
``validate_decisions=False`` (the setting ``perf/``'s simulation
workloads time) and must give the verified run's :class:`SystemResult`
exactly — which shows that neither recording nor per-decision validation
changes a decision.

Exposed as ``python -m repro.bench sim-oracle`` and run as a CI smoke
step; everything is seeded through :func:`~repro.util.rng.derive_seed`,
so a reported case number reproduces exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.core.policies import (
    FairSharePolicy,
    HalvingPolicy,
    NeedAwareHalvingPolicy,
    StaticEqualPolicy,
)
from repro.sim.oracle import OracleResult, verify_system
from repro.sim.system import (
    KernelProfile,
    SystemConfig,
    SystemResult,
    simulate_system,
)
from repro.sim.workload import ThreadSpec, generate_workload
from repro.util.errors import OracleViolation
from repro.util.rng import derive_seed

__all__ = [
    "FUZZ_PROFILES",
    "FuzzCase",
    "FuzzReport",
    "fuzz_case",
    "run_fuzz",
]

#: Kernel mix chosen to exercise every rate path: a unit-II kernel, a slow
#: one, a wide one whose need exceeds small grants (forcing PageMaster
#: shrinks), and a wrap-using one whose zigzag fold is the expensive case.
FUZZ_PROFILES: dict[str, KernelProfile] = {
    "fast": KernelProfile("fast", ii_base=1, ii_paged=1, pages_used=1),
    "slow": KernelProfile("slow", ii_base=4, ii_paged=4, pages_used=1),
    "wide": KernelProfile("wide", ii_base=1, ii_paged=2, pages_used=4),
    "half": KernelProfile(
        "half", ii_base=2, ii_paged=3, pages_used=2, wrap_used=True
    ),
}

_NOMINAL_II = {name: p.ii_base for name, p in FUZZ_PROFILES.items()}


def _make_policy(name: str):
    if name == "halving":
        return HalvingPolicy()
    if name == "need-aware":
        return NeedAwareHalvingPolicy()
    if name == "fair-share":
        return FairSharePolicy()
    if name == "static-equal":
        return StaticEqualPolicy(max_threads=4)
    raise ValueError(f"unknown fuzz policy {name!r}")


_POLICIES = ("halving", "need-aware", "fair-share", "static-equal")
_OVERHEADS = (0, 3)
_BOUNDARY = (False, True)
_GAPS = (0, 40)
_N_THREADS = (2, 3, 5, 6)
_NEEDS = (0.5, 0.75, 0.875)
_N_PAGES = (3, 4, 5, 8)


@dataclass(frozen=True)
class FuzzCase:
    """One point of the sweep lattice, fully determined by its index."""

    index: int
    policy: str
    n_threads: int
    n_pages: int
    cgra_need: float
    reconfig_overhead: int
    switch_at_iteration_boundary: bool
    mean_arrival_gap: int
    seed: int


def make_case(index: int, seed: int) -> FuzzCase:
    """The *index*-th lattice point: the policy x overhead x boundary x
    arrival-gap grid cycles fastest, thread/page/need shape slower, so any
    prefix of the sweep already spans all four policies and both modes'
    interesting knobs."""
    pol = _POLICIES[index % len(_POLICIES)]
    rest = index // len(_POLICIES)
    # the shape steps once more per round of policies: four policies
    # against four thread/page counts would otherwise pin each policy to
    # one shape for the whole sweep
    shape = index + rest
    overhead = _OVERHEADS[rest % len(_OVERHEADS)]
    rest //= len(_OVERHEADS)
    boundary = _BOUNDARY[rest % len(_BOUNDARY)]
    rest //= len(_BOUNDARY)
    gap = _GAPS[rest % len(_GAPS)]
    return FuzzCase(
        index=index,
        policy=pol,
        n_threads=_N_THREADS[shape % len(_N_THREADS)],
        n_pages=_N_PAGES[shape % len(_N_PAGES)],
        cgra_need=_NEEDS[shape % len(_NEEDS)],
        reconfig_overhead=overhead,
        switch_at_iteration_boundary=boundary,
        mean_arrival_gap=gap,
        seed=derive_seed(seed, "sim-fuzz", index),
    )


@dataclass
class FuzzReport:
    """Outcome of one sweep: counts plus per-case verified results."""

    cases: int = 0
    runs: int = 0  # one per (case, mode)
    by_policy: dict[str, int] = field(default_factory=dict)
    by_mode: dict[str, int] = field(default_factory=dict)
    oracle_steps: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            f"sim-oracle fuzz: {self.cases} configs, {self.runs} verified "
            f"runs (each matched by a recorder-free run), "
            f"{self.oracle_steps} oracle quantum-steps",
            "  policies: "
            + ", ".join(
                f"{p}={n}" for p, n in sorted(self.by_policy.items())
            ),
            "  modes:    "
            + ", ".join(f"{m}={n}" for m, n in sorted(self.by_mode.items())),
        ]
        for f in self.failures:
            lines.append(f"  FAIL {f}")
        lines.append("  all green" if self.ok else "  VIOLATIONS FOUND")
        return "\n".join(lines)


def _case_inputs(case: FuzzCase) -> tuple[list[ThreadSpec], SystemConfig]:
    """The workload and a fresh config (policy instance included) of *case*."""
    workload = generate_workload(
        case.n_threads,
        case.cgra_need,
        sorted(FUZZ_PROFILES),
        _NOMINAL_II,
        seed=case.seed,
        mean_total_work=300,
        phases_per_thread=3,
        mean_arrival_gap=case.mean_arrival_gap,
    )
    config = SystemConfig(
        n_pages=case.n_pages,
        profiles=FUZZ_PROFILES,
        policy=_make_policy(case.policy),
        reconfig_overhead=case.reconfig_overhead,
        switch_at_iteration_boundary=case.switch_at_iteration_boundary,
    )
    return workload, config


def fuzz_case(
    case: FuzzCase, mode: str
) -> tuple[SystemResult, OracleResult]:
    """Build the workload and config of *case* and verify one *mode*."""
    return verify_system(*_case_inputs(case), mode)


def run_fuzz(n_cases: int = 60, seed: int = 0) -> FuzzReport:
    """Verify *n_cases* lattice points in both modes, each also simulated
    with no recorder attached and no per-decision validation; never raises
    — the report carries any violations so a sweep shows *all*
    divergences."""
    report = FuzzReport()
    for i in range(n_cases):
        case = make_case(i, seed)
        report.cases += 1
        report.by_policy[case.policy] = report.by_policy.get(case.policy, 0) + 1
        for mode in ("single", "multithreaded"):
            where = f"case {case.index} ({case.policy}, {mode}, seed {case.seed})"
            try:
                verified, oracle = fuzz_case(case, mode)
            except OracleViolation as err:
                report.failures.append(f"{where}: {err}")
                continue
            workload, config = _case_inputs(case)
            config.validate_decisions = False
            bare = simulate_system(workload, config, mode)
            differ = [
                f.name
                for f in fields(SystemResult)
                if getattr(bare, f.name) != getattr(verified, f.name)
            ]
            if differ:
                report.failures.append(
                    f"{where}: with no recorder attached, "
                    f"{', '.join(differ)} differ from the verified run"
                )
                continue
            report.runs += 1
            report.by_mode[mode] = report.by_mode.get(mode, 0) + 1
            report.oracle_steps += oracle.steps
    return report
