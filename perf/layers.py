"""Which public callables get a span, and how spans become per-layer metrics.

Every target names the attribute *in the module or class that looks it up*:
``repro.serve.service`` imported ``job_key`` by name, so patching only
``repro.pipeline.compile.job_key`` would leave the service calling the
original.  :meth:`Trace.problems` turns such a stale binding into a failure: every
span declared for a workload in :data:`EXPECTED` must fire on it.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from collections import defaultdict

from perf.spans import Tracer, self_times
from perf.stats import percentile

__all__ = ["EXPECTED", "TARGETS", "install", "Trace"]


def _job_label(job, *_args, **_kwargs) -> str:
    return f"{job.kernel}/ps{job.page_size}/s{job.seed}"


def _request_id(_service, request) -> str | None:
    return request.request_id


#: (span name, where the name is looked up, req extractor)
TARGETS = [
    ("compiler.base_map", "repro.pipeline.compile:map_dfg", None),
    ("compiler.paged_map", "repro.pipeline.compile:map_dfg_paged", None),
    ("compiler.ii_bound", "repro.compiler.ems:ii_lower_bound", None),
    ("compiler.validate", "repro.compiler.paged:validate_mapping", None),
    ("compiler.validate", "repro.compiler.hier:validate_mapping", None),
    ("compiler.cluster", "repro.compiler.hier:cluster_dfg", None),
    ("dfg.fingerprint", "repro.dfg.graph:DFG.fingerprint", None),
    ("arch.build", "repro.pipeline.compile:CompileJob.build_cgra", None),
    ("arch.fingerprint", "repro.arch.cgra:CGRA.fingerprint", None),
    ("pipeline.job_key", "repro.pipeline.compile:job_key", _job_label),
    ("pipeline.job_key", "repro.serve.service:job_key", _job_label),
    ("pipeline.compile_job", "repro.pipeline.compile:compile_job_stats", _job_label),
    ("pipeline.store_get", "repro.pipeline.store:ArtifactStore.get", None),
    ("pipeline.store_put", "repro.pipeline.store:ArtifactStore.put", None),
    ("pipeline.to_json", "repro.pipeline.artifact:CompiledKernel.to_json", None),
    ("pipeline.from_json", "repro.pipeline.artifact:CompiledKernel.from_json_dict", None),
    ("pipeline.materialize", "repro.pipeline.artifact:CompiledKernel.materialize", None),
    ("serve.submit", "repro.serve.service:CompileService.submit", _request_id),
    ("serve.compile", "repro.serve.service:compile_job", _job_label),
    ("core.steady_state_ii", "repro.pipeline.compile:steady_state_ii", None),
    ("core.steady_state_ii", "repro.sim.system:steady_state_ii", None),
    ("core.extract_page_schedule", "repro.core.page_schedule:extract_page_schedule", None),
    ("core.extract_page_schedule", "repro.compiler.paged:extract_page_schedule", None),
    ("core.extract_page_schedule", "repro.compiler.hier:extract_page_schedule", None),
    ("core.pagemaster_place", "repro.core.pagemaster:PageMaster.place", None),
    ("core.manager_request", "repro.core.runtime:CGRAManager.request", None),
    ("core.manager_release", "repro.core.runtime:CGRAManager.release", None),
    ("core.policy_admit", "repro.core.policies:HalvingPolicy.admit", None),
    ("core.policy_release", "repro.core.policies:HalvingPolicy.release", None),
    ("core.policy_admit", "repro.core.policies:FairSharePolicy.admit", None),
    ("core.policy_release", "repro.core.policies:FairSharePolicy.release", None),
    ("sim.generate_trace", "repro.sim.workload:generate_trace", None),
    ("sim.simulate_system", "repro.sim.system:simulate_system", None),
    ("sim.retarget", "repro.sim.retarget:retarget_firings", None),
    ("sim.cgra_simulate", "repro.sim.cgra_sim:simulate", None),
    ("sim.verify", "repro.sim.oracle:verify_system", None),
    ("analysis.audit_file", "repro.analysis.audit:audit_file", None),
]

_COMPILE = [
    "compiler.base_map", "compiler.paged_map", "compiler.ii_bound", "compiler.validate",
    "kernels.build", "dfg.fingerprint", "arch.build", "arch.fingerprint",
    "pipeline.job_key", "pipeline.compile_job", "pipeline.store_put", "pipeline.to_json",
    "core.steady_state_ii", "core.extract_page_schedule", "core.pagemaster_place",
    "analysis.audit_file",
]
_RESOLVE = [
    "serve.submit", "pipeline.job_key", "kernels.build", "dfg.fingerprint",
    "arch.build", "arch.fingerprint", "serve.queue_wait", "serve.slot_busy",
    "pipeline.store_get",
]
_HTTP = ["loadgen.request", "pipeline.from_json"]
_COLD = ["serve.compile", "pipeline.compile_job", "compiler.paged_map", "pipeline.store_put"]
_SIM = [
    "sim.generate_trace", "sim.simulate_system", "sim.verify",
    "core.manager_request", "core.manager_release", "core.policy_admit",
    "core.policy_release",
]

#: Spans that must fire on each workload in a traced run.
EXPECTED = {
    "compile_flat_4x4": _COMPILE,
    "compile_hier_8x8": _COMPILE + ["compiler.cluster"],
    "serve_zipf": _RESOLVE + _COLD + _HTTP,
    "serve_warm": _RESOLVE + _HTTP,
    "service_burst": _RESOLVE + _COLD,
    "sim_bursty_halving": _SIM,
    "sim_poisson_fairshare": _SIM,
    "fold_exec": [
        "pipeline.job_key", "pipeline.store_get", "pipeline.from_json",
        "pipeline.materialize", "core.extract_page_schedule",
        "core.pagemaster_place", "sim.retarget", "sim.cgra_simulate",
    ],
}


def _trace_scheduler(tracer: Tracer):
    """``FairScheduler.submit`` takes the work as a callable, so its wrapper
    can time the queue from outside: submit -> work start is
    ``serve.queue_wait``, work start -> work end is ``serve.slot_busy``."""

    def make(original):
        def submit(self, work, **kwargs):
            submitted = time.perf_counter()
            opened = tracer.current()
            parent, req = opened if opened else (None, None)

            async def timed_work(token):
                started = time.perf_counter()
                tracer.record(
                    "serve.queue_wait", submitted, started,
                    parent=parent, req=req, kind="await",
                )
                try:
                    return await work(token)
                finally:
                    tracer.record(
                        "serve.slot_busy", started, time.perf_counter(),
                        parent=parent, req=req, kind="await",
                    )

            return original(self, timed_work, **kwargs)

        return submit

    return make


def install(tracer: Tracer) -> None:
    """Install every wrapper (call before the workload touches the program)."""
    from repro.kernels import SUITE

    tracer.install(TARGETS)
    tracer.patch("repro.serve.scheduler:FairScheduler.submit", _trace_scheduler(tracer))
    # KernelSpec.build is a field, not a method: swap the registry's specs
    for name, spec in list(SUITE.items()):
        tracer.restore(SUITE, name, spec)
        SUITE[name] = dataclasses.replace(
            spec, build=tracer.wrap("kernels.build", spec.build)
        )


# ------------------------------------------------------------- spans -> metrics

#: The service's view of two pipeline spans: per-layer metric -> (span, field),
#: reported only where ``serve.submit`` ran.
_ALIASES = {
    "serve.resolve_s": ("pipeline.job_key", "s"),
    "serve.store_read_s": ("pipeline.store_get", "s"),
}
_SUFFIXES = (
    ("_self_s", "self_s"), ("_p50_ms", 0.50), ("_p99_ms", 0.99),
    ("_count", "count"), ("_s", "s"),
)


def _window_of(windows, t: float) -> int | None:
    for i, (start, end) in enumerate(windows):
        if start <= t <= end:
            return i
    return None


class Trace:
    """The spans of one traced run, with the timed windows they fall in.

    Per span name the table holds ``s`` / ``self_s`` / ``count`` — the median
    over the timed windows of the per-window total — and ``ms``, every
    duration pooled.  A layer that only works outside the timed windows
    (set-up, checks) reports its total there instead; warm-up repeats never
    count.
    """

    def __init__(self, spans, windows, warmups) -> None:
        self.spans = spans
        self.windows = windows
        self.own = self_times(spans)
        zero = {"s": 0.0, "self_s": 0.0, "count": 0}
        timed = defaultdict(lambda: [dict(zero) for _ in windows])
        untimed = defaultdict(lambda: dict(zero))
        pooled = defaultdict(lambda: {True: [], False: []})
        for s in spans:
            if _window_of(warmups, s["start"]) is not None:
                continue
            window = _window_of(windows, s["start"])
            name = s["name"]
            cell = untimed[name] if window is None else timed[name][window]
            cell["s"] += s["end"] - s["start"]
            cell["self_s"] += self.own[(s["pid"], s["id"])]
            cell["count"] += 1
            pooled[name][window is not None].append((s["end"] - s["start"]) * 1e3)
        self.table: dict[str, dict] = {}
        for name in pooled:
            if pooled[name][True]:
                cells = timed[name]
                self.table[name] = {k: statistics.median(c[k] for c in cells) for k in zero}
            else:
                self.table[name] = untimed[name]
            self.table[name]["ms"] = pooled[name][bool(pooled[name][True])]

    def count(self, span: str) -> int:
        return self.table[span]["count"] if span in self.table else 0

    def value(self, metric: str) -> float:
        """One span-derived per-layer metric (0 when the span never ran)."""
        if metric in _ALIASES:
            span, field = _ALIASES[metric]
            if "serve.submit" not in self.table:
                return 0.0
        else:
            suffix, field = next(sf for sf in _SUFFIXES if metric.endswith(sf[0]))
            span = metric[: -len(suffix)]
        cell = self.table.get(span)
        if cell is None:
            return 0.0
        if isinstance(field, float):
            return percentile(cell["ms"], field)
        return cell[field]

    def request_ms(self, span: str) -> dict[str, float]:
        """``req`` -> duration in ms of the spans called *span*."""
        return {
            s["req"]: (s["end"] - s["start"]) * 1e3
            for s in self.spans
            if s["name"] == span
        }

    def problems(self, workload: str) -> list[str]:
        """Failures of the trace's own invariants."""
        problems = []
        fired = {s["name"] for s in self.spans}
        for name in EXPECTED[workload]:
            if name not in fired:
                problems.append(
                    f"span {name!r} is declared for {workload} but never fired "
                    f"(wrapper bound to a stale import?)"
                )
        by_id = {(s["pid"], s["id"]): s for s in self.spans}
        twice = {
            s["name"]
            for s in self.spans
            if s["parent"] is not None
            and by_id[(s["pid"], s["parent"])]["name"] == s["name"]
        }
        for name in sorted(twice):
            problems.append(f"span {name!r} is its own parent (callable wrapped twice?)")
        for i, (start, end) in enumerate(self.windows):
            busy: dict[tuple[int, int], float] = defaultdict(float)
            for s in self.spans:
                if s["kind"] == "call" and start <= s["start"] and s["end"] <= end:
                    busy[(s["pid"], s["tid"])] += self.own[(s["pid"], s["id"])]
            for thread, seconds in busy.items():
                if seconds > (end - start) * 1.001:
                    problems.append(
                        f"repeat {i}: self time on thread {thread} sums to "
                        f"{seconds:.4f}s, more than the {end - start:.4f}s timed"
                    )
        return problems
