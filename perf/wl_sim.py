"""``sim_bursty_halving`` / ``sim_poisson_fairshare``: host time of one
``simulate_system`` call; every simulated statistic must repeat exactly."""

from __future__ import annotations

import statistics
import time

import repro.sim.oracle as oracle_mod
import repro.sim.system as system_mod
import repro.sim.workload as workload_mod
from repro.sim.fuzz import FUZZ_PROFILES
from repro.util.errors import OracleViolation
from repro.util.rng import derive_seed

from perf.harness import Repeat, Run

__all__ = ["SimSystem"]

N_PAGES = 16
NOMINAL_II = {name: p.ii_base for name, p in FUZZ_PROFILES.items()}
KERNELS = sorted(FUZZ_PROFILES)


class SimSystem:
    """One trace, one policy, the multithreaded mode of the system model.

    The timed trace is pinned (generator seed 0), not drawn from ``--seed``:
    host time of this engine is bimodal in the trace — one that leaves the
    integer fast lane for exact fractions runs about twice as long for the
    same number of events — so a seeded trace measures which lane the draw
    fell in.  ``--seed`` draws the small trace replayed through the oracle.
    """

    warmup = True  # users of a simulator run it many times in one process
    max_repeats = 9

    def __init__(self, name, *, threads, policy, trace_kwargs):
        self.name = name
        self.threads = threads
        self.policy = policy  # class: a fresh instance per simulation
        self.trace_kwargs = trace_kwargs

    def _trace(self, seed: int, n_threads: int, **overrides):
        kwargs = dict(self.trace_kwargs, **overrides)
        return workload_mod.generate_trace(
            n_threads, 0.75, KERNELS, NOMINAL_II,
            seed=derive_seed(seed, self.name), **kwargs,
        )

    def _config(self, validate: bool) -> system_mod.SystemConfig:
        return system_mod.SystemConfig(
            n_pages=N_PAGES, profiles=FUZZ_PROFILES, policy=self.policy(),
            validate_decisions=validate,
        )

    def prepare(self, run: Run) -> None:
        self.trace = self._trace(0, run.size(self.threads, 100))

    def repeat(self, run: Run, index: int) -> Repeat:
        began = time.perf_counter()
        config = self._config(validate=False)
        run.ambient(f"repeat{index}")
        start = time.perf_counter()
        result = system_mod.simulate_system(self.trace, config, "multithreaded")
        end = time.perf_counter()
        exact = dict(
            result.slo_summary(), kernel_invocations=result.kernel_invocations
        )
        return Repeat(
            setup_s=start - began, start=start, end=end,
            attempted=1, exact=exact,
        )

    def check(self, run: Run, repeats) -> list[str]:
        # the fast engine against the cycle-quantum oracle, on a trace small
        # enough for the oracle, from the same generator and policy
        small = self._trace(
            run.seed, run.size(32, 8),
            mean_total_work=self.trace_kwargs["mean_total_work"] // 4,
        )
        run.ambient("oracle")
        try:
            oracle_mod.verify_system(small, self._config(validate=True), "multithreaded")
        except OracleViolation as exc:
            return [f"oracle: {exc}"]
        return []

    def scoped(self, run: Run, repeats) -> dict:
        exact = repeats[0].exact
        return {
            "sim_makespan_cycles": exact["makespan"],
            "sim_turnaround_p99_cycles": exact["turnaround_p99"],
        }

    def facts(self, run: Run, repeats, trace) -> dict:
        exact = repeats[0].exact
        events = exact["kernel_invocations"] + exact["reallocations"]
        calls = trace.count("core.manager_request") + trace.count("core.manager_release")
        policy_calls = trace.count("core.policy_admit") + trace.count("core.policy_release")
        wall = statistics.median(r.wall_s for r in repeats)
        return {
            "sim.events": events,
            "sim.events_per_s": events / wall,
            "sim.kernel_invocations": exact["kernel_invocations"],
            "sim.reallocations": exact["reallocations"],
            "sim.evictions": exact["evictions"],
            "sim.wait_cycles": exact["wait_cycles"],
            "sim.cgra_utilization": exact["cgra_utilization"],
            "sim.turnaround_p50_cycles": exact["turnaround_p50"],
            "core.manager_calls": calls,
            "core.policy_calls": policy_calls,
            "core.reallocs_per_call": exact["reallocations"] / max(1, calls),
        }

    def cleanup(self) -> None:
        pass
