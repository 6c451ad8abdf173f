"""Declared determinism contracts, checked against inferred effects.

A :class:`Contract` names a set of entrypoints — concurrent worker
functions, fingerprint/canonicalization choke points — and the effect
budget everything transitively reachable from them may spend.  The flow
pass checks each entrypoint's :class:`~repro.analysis.flow.effects
.EffectSummary` against that budget and fires **FLOW-CONTRACT** for every
effect outside it, printing the witness call chain (who introduced the
effect, through which calls it reached the entrypoint).

This is the static counterpart of the recompile-parity tests: parity
catches a broken determinism contract *after* the fact on the workloads it
happens to compile; the contract check proves the absence of whole effect
classes (hidden RNG, wall-clock, unsanctioned global mutation) on *every*
path through the entrypoints, including paths no test exercises.  Neither
subsumes the other — the analysis is alias-unaware and trusts its external
hazard tables, so parity stays the oracle (DESIGN.md §12).

Contracts are declared here, in code, so a new concurrent entrypoint has
to either register a contract or show up as uncovered in review — the
registry is the checklist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.findings import Finding, Severity
from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.effects import EffectSummary
from repro.analysis.registry import Rule, register

__all__ = ["FLOW_CONTRACT", "Contract", "DEFAULT_CONTRACTS", "check_contracts"]


FLOW_CONTRACT = register(
    Rule(
        id="FLOW-CONTRACT",
        kind="flow",
        severity=Severity.ERROR,
        summary="entrypoint reaches an effect outside its declared "
        "determinism contract",
        fix_hint="remove the effect, route it through a sanctioned channel "
        "(explicit seed, task payload, locked merge), or extend the "
        "contract in analysis/flow/contracts.py with a justification",
    )
)


@dataclass(frozen=True)
class Contract:
    """The effect budget for a family of entrypoints.

    ``allow_effects`` whitelists lattice elements wholesale
    (``"reads-global"`` permits reading any mutable global;
    ``"mutates-param"`` permits in-place argument mutation).
    ``allow_global_writes`` whitelists *specific* globals for writing —
    writes to anything else violate the contract even if locked.
    """

    name: str
    entrypoints: tuple[str, ...]
    description: str
    allow_effects: frozenset[str] = frozenset()
    allow_global_writes: frozenset[str] = frozenset()
    allow_global_reads: frozenset[str] = field(default_factory=frozenset)

    def permits_read(self, g: str) -> bool:
        return "reads-global" in self.allow_effects or g in self.allow_global_reads


#: No contract allows a global write (``allow_global_writes`` is empty
#: everywhere): what a compile touches arrives through its job, and its
#: telemetry leaves as a return value.
DEFAULT_CONTRACTS: tuple[Contract, ...] = (
    Contract(
        name="compile-job",
        entrypoints=(
            "repro.pipeline.compile.compile_job",
            "repro.pipeline.compile.compile_job_stats",
            "repro.pipeline.compile._job_outcome_pooled",
        ),
        description="a compile, on a service slot thread or as the root of "
        "a pool worker process (compile_many and the service at workers >= "
        "2): artifact bytes must depend only on the job spec; counters live "
        "in the job's own thread-local scope and leave as the returned stats",
        allow_effects=frozenset({"mutates-param", "reads-global"}),
    ),
    Contract(
        name="artifact-store",
        entrypoints=(
            "repro.pipeline.store.ArtifactStore.get",
            "repro.pipeline.store.ArtifactStore.put",
        ),
        description="the shared artifact store: file I/O is its whole job "
        "(atomic temp-write + replace), pid/thread-id observation only "
        "names temp files and never reaches artifact bytes, and counter "
        "mutation happens under the per-store lock — nothing else may "
        "leak in",
        allow_effects=frozenset(
            {"mutates-param", "reads-global", "io", "wall-clock"}
        ),
    ),
    Contract(
        name="serve-worker",
        entrypoints=(
            "repro.serve.service.CompileService._compile_inline",
            "repro.serve.service.CompileService._store_compiled",
        ),
        description="compile-service worker threads, entered on a store "
        "miss only: one compile (at workers >= 2 a pool process runs it "
        "instead), then storing, with the bytes read back from the store "
        "file (so byte-identical to offline compile_many); store I/O and "
        "temp-name pid/tid are the store contract's business",
        allow_effects=frozenset(
            {"mutates-param", "reads-global", "io", "wall-clock"}
        ),
    ),
    Contract(
        name="serve-loop",
        entrypoints=("repro.serve.service.CompileService.submit",),
        description="the event-loop side of a request — key memo, flight "
        "bookkeeping and the store probe a hit is served from: it reads "
        "the store file (io: one read, inside the store's `get`, reached "
        "through `_stored_bytes`, whose typed `store` parameter keeps the "
        "call in view) and mutates its own service instance, and writes "
        "no global at all, so the key and probe memos are instance state "
        "that dies with its service, never process state; the one global "
        "it reads is the store's logger (`get` warns about a corrupt file)",
        allow_effects=frozenset({"mutates-param", "io"}),
        allow_global_reads=frozenset({"repro.pipeline.store.logger"}),
    ),
    Contract(
        name="fingerprint",
        entrypoints=("repro.util.fingerprint.canonical_fingerprint",),
        description="the content-addressing choke point: strictly pure — "
        "no I/O, no clock, no RNG, no global or argument mutation",
        allow_effects=frozenset(),
    ),
)


def check_contracts(
    graph: CallGraph,
    summaries: dict[str, EffectSummary],
    contracts: tuple[Contract, ...] | None = None,
) -> list[Finding]:
    contracts = DEFAULT_CONTRACTS if contracts is None else contracts
    findings: list[Finding] = []
    for contract in contracts:
        for entry in contract.entrypoints:
            fn = graph.functions.get(entry)
            summ = summaries.get(entry)
            if fn is None or summ is None:
                findings.append(
                    Finding(
                        file=f"<contract {contract.name}>",
                        line=0,
                        col=0,
                        rule_id=FLOW_CONTRACT.id,
                        severity=FLOW_CONTRACT.severity,
                        message=(
                            f"declared entrypoint `{entry}` does not exist "
                            "in the call graph — the contract registry is "
                            "stale"
                        ),
                        fix_hint="update the entrypoint list in "
                        "analysis/flow/contracts.py",
                    )
                )
                continue
            violations: list[str] = []
            for hazard in sorted(summ.hazards):
                if hazard in contract.allow_effects:
                    continue
                wit = summ.witness_for(hazard)
                violations.append(
                    f"{hazard}: {wit.chain() if wit else 'no witness'}"
                )
            for g in sorted(summ.writes):
                if g in contract.allow_global_writes:
                    continue
                wit = summ.witness_for(f"write:{g}")
                violations.append(
                    f"mutates-global {g}: {wit.chain() if wit else 'no witness'}"
                )
            for g in sorted(summ.reads):
                if contract.permits_read(g):
                    continue
                wit = summ.witness_for(f"read:{g}")
                violations.append(
                    f"reads-global {g}: {wit.chain() if wit else 'no witness'}"
                )
            if "mutates-param" not in contract.allow_effects:
                for p in sorted(summ.mutated_params):
                    wit = summ.witness_for(f"param:{p}")
                    violations.append(
                        f"mutates-param {p}: "
                        f"{wit.chain() if wit else 'no witness'}"
                    )
            for violation in violations:
                findings.append(
                    Finding(
                        file=fn.display,
                        line=fn.lineno,
                        col=0,
                        rule_id=FLOW_CONTRACT.id,
                        severity=FLOW_CONTRACT.severity,
                        message=(
                            f"contract `{contract.name}` entrypoint "
                            f"`{fn.name}` reaches effect outside its budget "
                            f"— {violation}"
                        ),
                        fix_hint=FLOW_CONTRACT.fix_hint,
                    )
                )
    return findings
