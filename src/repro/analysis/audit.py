"""Pass 2 — the artifact auditor.

Loads every :class:`~repro.pipeline.artifact.CompiledKernel` in an artifact
store *from bytes alone* — no mapper, no cache state, no trust in the
process that wrote it — and checks what stored bytes can get wrong, each
stored field by the rule that is its only check:

* **encoding** — the file parses into a well-typed artifact whose IIs and
  page need are at least 1 (``ART-READ``), is the canonical encoding of
  its content (``ART-BYTES``) and sits at the address its fingerprints
  dictate (``ART-ADDR``); nothing else lives in the store
  (``STORE-FOREIGN``);
* **fields** — an unmappable artifact carries no mapping, the page need
  fits the grid, ``wrap_used`` only on a wrap layout (``ART-FIELDS``);
* **provenance** — the stored DFG/architecture fingerprints match an
  independent re-derivation from the kernel registry and the stored
  geometry (``ART-DFG``, ``ART-ARCH``);
* **base II** — ``ii_base`` respects the provable lower bound on the whole
  array (``MAP-MII``): the base mapping is not stored, so nothing else
  checks it;
* **mapping legality** — :func:`repro.compiler.check.validate_mapping`
  over the materialized mapping under its page layout, split by the
  validator's exception class (``MAP-LEGAL``, ``MAP-RING``, ``MAP-CAP``).
  ``materialize`` does not validate, so this is the one legality check on
  stored placements and routes; the §VI-B register depth 1 is part of it;
* **fold table** — the stored steady-state II table lists ``M = 1..N`` in
  order, each entry equal to the PageMaster recomputation
  (``FOLD-TABLE``).  The fold's own legality and its ``II_q`` envelope
  are functions of four ints, not of the bytes: ``tests/test_pagemaster.py``
  sweeps them over every ``N <= 16``.

Every violation carries the rule id of the invariant it broke, so a failed
audit names *what* is wrong and *where*, not just that bytes differ.
DESIGN §10 says which planted hazard each rule alone catches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register
from repro.util.errors import (
    ArchitectureError,
    ArtifactError,
    ConstraintViolation,
    MappingError,
    TransformError,
)
from repro.util.spans import span

__all__ = ["AuditEntry", "AuditReport", "audit_store"]


ART_READ = register(
    Rule(
        id="ART-READ",
        kind="audit",
        severity=Severity.ERROR,
        summary="artifact unreadable (bad JSON, a malformed field or a "
        "foreign schema version)",
        fix_hint="delete the file and recompile; the store treats it as a "
        "miss but the audit will not vouch for a store holding garbage",
    )
)
ART_ADDR = register(
    Rule(
        id="ART-ADDR",
        kind="audit",
        severity=Severity.ERROR,
        summary="artifact does not live at its content address",
        fix_hint="recompute sha256(dfg_fp/arch_fp/mapper_fp); the file name "
        "and shard directory must match it",
    )
)
ART_BYTES = register(
    Rule(
        id="ART-BYTES",
        kind="audit",
        severity=Severity.ERROR,
        summary="artifact bytes are not the canonical encoding",
        fix_hint="artifacts must round-trip byte-identically through "
        "CompiledKernel.to_json(); rewrite with the canonical encoder",
    )
)
ART_FIELDS = register(
    Rule(
        id="ART-FIELDS",
        kind="audit",
        severity=Severity.ERROR,
        summary="artifact fields are internally inconsistent",
        fix_hint="recompile; the geometry/II/page-need fields contradict "
        "each other",
    )
)
ART_DFG = register(
    Rule(
        id="ART-DFG",
        kind="audit",
        severity=Severity.ERROR,
        summary="stored DFG fingerprint does not match the kernel registry",
        fix_hint="the kernel changed (or the name is foreign); recompile so "
        "the address reflects the real DFG",
    )
)
ART_ARCH = register(
    Rule(
        id="ART-ARCH",
        kind="audit",
        severity=Severity.ERROR,
        summary="stored architecture fingerprint does not match the stored "
        "geometry",
        fix_hint="re-derive from rows/cols/rf_depth/mem_ports/page_shape; "
        "a mismatch means the artifact lies about what it was compiled for",
    )
)
MAP_LEGAL = register(
    Rule(
        id="MAP-LEGAL",
        kind="audit",
        severity=Severity.ERROR,
        summary="mapping violates placement/slot/route/bus legality",
        fix_hint="validate_mapping rejected the materialized schedule; the "
        "artifact was corrupted or written by a buggy mapper",
    )
)
MAP_RING = register(
    Rule(
        id="MAP-RING",
        kind="audit",
        severity=Severity.ERROR,
        summary="mapping violates the §VI-B ring-topology constraint",
        fix_hint="every inter-page hop must stay on-page or move to the "
        "ring successor; recompile with the paged compiler",
    )
)
MAP_CAP = register(
    Rule(
        id="MAP-CAP",
        kind="audit",
        severity=Severity.ERROR,
        summary="mapping places an op on a PE lacking its capability class",
        fix_hint="on a heterogeneous fabric every op (and route step) must "
        "sit on a PE whose capability mask includes the op's class; "
        "recompile with the capability-aware mapper",
    )
)
MAP_MII = register(
    Rule(
        id="MAP-MII",
        kind="audit",
        severity=Severity.ERROR,
        summary="stored base II beats the provable minimum initiation "
        "interval",
        fix_hint="the II lower bound (max of ResMII, memory-slot, "
        "memory-capability and RecMII terms, re-derived from the kernel "
        "registry and the artifact's stored geometry alone) is sound for "
        "every legal mapping; a base II below it means the artifact bytes "
        "are corrupt or the store was written by a broken mapper",
    )
)
FOLD_TABLE = register(
    Rule(
        id="FOLD-TABLE",
        kind="audit",
        severity=Severity.ERROR,
        summary="stored steady-state II table is not M=1..N, each equal to "
        "its recomputation",
        fix_hint="the simulator would plan with wrong throughput numbers; "
        "recompile to refresh the table",
    )
)
STORE_FOREIGN = register(
    Rule(
        id="STORE-FOREIGN",
        kind="audit",
        severity=Severity.WARNING,
        summary="foreign file inside the artifact store",
        fix_hint="only sharded content-addressed artifacts belong under "
        ".repro_artifacts/; move or delete the stray file",
    )
)


@dataclass
class AuditEntry:
    """Audit outcome for one file in the store."""

    path: str  # store-relative, '/'-separated
    status: str  # "ok" | "corrupt" | "foreign"
    findings: list[Finding] = field(default_factory=list)
    folds_checked: int = 0


@dataclass
class AuditReport:
    """Outcome of auditing one store: entries in canonical path order."""

    root: str
    entries: list[AuditEntry] = field(default_factory=list)

    @property
    def findings(self) -> list[Finding]:
        return sorted(f for e in self.entries for f in e.findings)

    def counts(self) -> dict[str, int]:
        out = {"ok": 0, "corrupt": 0, "foreign": 0}
        for e in self.entries:
            out[e.status] += 1
        out["folds_checked"] = sum(e.folds_checked for e in self.entries)
        return out

    def summary(self) -> str:
        c = self.counts()
        return (
            f"audited {c['ok'] + c['corrupt']} artifact(s) in {self.root}: "
            f"{c['ok']} ok, {c['corrupt']} corrupt, {c['foreign']} foreign "
            f"file(s), {c['folds_checked']} fold(s) verified"
        )


def _finding(rule: Rule, path: str, message: str, line: int = 1) -> Finding:
    return Finding(
        file=path,
        line=line,
        col=0,
        rule_id=rule.id,
        severity=rule.severity,
        message=message,
        fix_hint=rule.fix_hint,
    )


def _audit_encoding(entry: AuditEntry, raw: bytes, artifact) -> None:
    canonical = artifact.to_json().encode("utf-8")
    if canonical != raw:
        entry.findings.append(
            _finding(
                ART_BYTES,
                entry.path,
                f"file is {len(raw)} byte(s), canonical encoding is "
                f"{len(canonical)}; store bytes must equal to_json() exactly",
            )
        )
    digest = artifact.key.digest
    expected = f"{digest[:2]}/{digest}.json"
    if entry.path != expected:
        entry.findings.append(
            _finding(
                ART_ADDR,
                entry.path,
                f"content address is {expected}, file lives at {entry.path}",
            )
        )


def _audit_fields(entry: AuditEntry, artifact) -> bool:
    """The field relations no later check reads; False aborts deeper checks
    (an empty grid cannot be built).  A mappable artifact's II and page
    need below 1 never get here: the read refuses them (``ART-READ``)."""
    problems: list[str] = []
    rows, cols = artifact.rows, artifact.cols
    if rows < 1 or cols < 1:
        problems.append(f"grid {rows}x{cols} is empty")
    elif artifact.unmappable:
        if artifact.placements or artifact.routes or artifact.steady_ii:
            problems.append("unmappable artifact carries mapping data")
    else:
        h, w = artifact.page_shape
        max_pages = (rows // max(h, 1)) * (cols // max(w, 1))
        if artifact.pages_used > max_pages:
            problems.append(
                f"pages_used {artifact.pages_used} exceeds the "
                f"{max_pages} page(s) the grid holds"
            )
        if artifact.wrap_used and not artifact.layout_wrap:
            problems.append("wrap_used without a wrap-capable layout")
    for msg in problems:
        entry.findings.append(_finding(ART_FIELDS, entry.path, msg))
    return not problems


def _audit_provenance(entry: AuditEntry, artifact) -> object | None:
    """Re-derive the DFG and architecture fingerprints; returns the rebuilt
    DFG (None if the mapping-level checks cannot proceed)."""
    from repro.kernels import get_kernel, kernel_names
    from repro.util.errors import ReproError
    from repro.util.fingerprint import canonical_fingerprint

    try:
        dfg = get_kernel(artifact.kernel).build()
    except (ReproError, KeyError):
        entry.findings.append(
            _finding(
                ART_DFG,
                entry.path,
                f"kernel {artifact.kernel!r} is not in the registry "
                f"({', '.join(kernel_names())})",
            )
        )
        return None
    if dfg.fingerprint() != artifact.dfg_fp:
        entry.findings.append(
            _finding(
                ART_DFG,
                entry.path,
                f"stored dfg_fp {artifact.dfg_fp} != registry DFG "
                f"{dfg.fingerprint()} for kernel {artifact.kernel!r}",
            )
        )
        return None
    cgra = artifact.build_cgra()
    arch_fp = canonical_fingerprint(
        {"cgra": cgra.fingerprint(), "page_shape": list(artifact.page_shape)}
    )
    if arch_fp != artifact.arch_fp:
        entry.findings.append(
            _finding(
                ART_ARCH,
                entry.path,
                f"stored arch_fp {artifact.arch_fp} != re-derived {arch_fp}",
            )
        )
    return dfg


def _audit_mapping(entry: AuditEntry, artifact, dfg) -> None:
    from repro.compiler.check import validate_mapping
    from repro.util.errors import CapabilityViolation

    try:
        paged = artifact.materialize(dfg)
        validate_mapping(paged.mapping, paged.layout)
    except CapabilityViolation as exc:
        entry.findings.append(_finding(MAP_CAP, entry.path, str(exc)))
    except ConstraintViolation as exc:
        entry.findings.append(_finding(MAP_RING, entry.path, str(exc)))
    except (MappingError, ArchitectureError, ArtifactError, TransformError) as exc:
        entry.findings.append(_finding(MAP_LEGAL, entry.path, str(exc)))


def _audit_mii(entry: AuditEntry, artifact, dfg) -> None:
    """MAP-MII: the stored base II must respect the provable lower bound.

    The bound is re-derived from artifact bytes alone — the registry DFG
    (already fingerprint-matched by provenance) and the stored grid — via
    the same :func:`repro.compiler.feas.ii_lower_bound` every backend's
    ladder starts from.  The terms only assume what any legal modulo
    schedule must satisfy (one op per (PE, slot), memory issue-slot and
    capability budgets, recurrence circuits), so an II *below* the bound is
    impossible, whatever heuristic produced it.  The counting is the
    auditor's own, from the stored geometry, not the compiler's capacity
    records.  The paged II needs no such check: a stored mapping below its
    bound cannot pass ``validate_mapping``.
    """
    from repro.arch.capability import OpClass
    from repro.compiler.feas import ii_lower_bound

    cgra = artifact.build_cgra()
    mem_mask = cgra.class_mask(OpClass.MEM)
    ii = artifact.ii_base
    try:
        bound = ii_lower_bound(
            dfg,
            num_pes=cgra.num_pes,
            mem_slots=cgra.rows * cgra.mem_ports_per_row,
            mem_capable_pes=cgra.num_pes if mem_mask is None else sum(mem_mask),
            max_ii=ii,
        )
    except MappingError as exc:
        entry.findings.append(
            _finding(
                MAP_MII,
                entry.path,
                f"base II {ii} stored for a kernel that provably cannot map: "
                f"{exc}",
            )
        )
        return
    if ii < bound.mii:
        entry.findings.append(
            _finding(
                MAP_MII,
                entry.path,
                f"base II {ii} beats the provable lower bound {bound.mii} "
                f"(binding term: {bound.binding()})",
            )
        )


def _audit_fold(entry: AuditEntry, artifact) -> None:
    """FOLD-TABLE: the stored rows are ``M = 1..N`` in order (what compile
    writes; a repeated M would hide behind ``steady_table()``), and each
    ``II_q`` equals the recomputation from ``(N, II_p, wrap_used)``."""
    from repro.core.pagemaster import steady_state_ii

    n = artifact.pages_used
    targets = [m for (m, _, _) in artifact.steady_ii]
    if targets != list(range(1, n + 1)):
        entry.findings.append(
            _finding(
                FOLD_TABLE,
                entry.path,
                f"steady table rows are M={targets}, expected M=1..{n} in order",
            )
        )
        return
    for (m, num, den) in artifact.steady_ii:
        stored = Fraction(num, den)
        achieved = steady_state_ii(
            n, artifact.ii_paged, m, wrap_used=artifact.wrap_used
        )
        entry.folds_checked += 1
        if stored != achieved:
            entry.findings.append(
                _finding(
                    FOLD_TABLE,
                    entry.path,
                    f"M={m}: stored II_q {stored} != recomputed {achieved}",
                )
            )


@span("analysis.audit_file")
def audit_file(path: Path, rel: str) -> AuditEntry:
    """Audit one store-resident file (already known to be artifact-shaped)."""
    from repro.pipeline.artifact import CompiledKernel

    entry = AuditEntry(path=rel, status="ok")
    try:
        raw = path.read_bytes()
        payload = json.loads(raw)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        entry.findings.append(
            _finding(ART_READ, rel, f"unreadable artifact: {exc}")
        )
        entry.status = "corrupt"
        return entry
    try:
        artifact = CompiledKernel.from_json_dict(payload)
    except ArtifactError as exc:
        entry.findings.append(_finding(ART_READ, rel, str(exc)))
        entry.status = "corrupt"
        return entry
    _audit_encoding(entry, raw, artifact)
    if _audit_fields(entry, artifact):
        dfg = _audit_provenance(entry, artifact)
        if dfg is not None:
            _audit_mii(entry, artifact, dfg)
            if not artifact.unmappable:
                _audit_mapping(entry, artifact, dfg)
                _audit_fold(entry, artifact)
    if any(f.severity is Severity.ERROR for f in entry.findings):
        entry.status = "corrupt"
    return entry


def audit_store(root: Path | str | None = None) -> AuditReport:
    """Audit every file under the store at *root* (default: the standard
    ``.repro_artifacts`` location honouring ``$REPRO_CACHE_DIR``)."""
    from repro.pipeline.store import ArtifactStore

    store = root if isinstance(root, ArtifactStore) else ArtifactStore(root)
    report = AuditReport(root=str(store.root))
    for path, is_artifact in store.walk():
        rel = path.relative_to(store.root).as_posix()
        if not is_artifact:
            entry = AuditEntry(path=rel, status="foreign")
            entry.findings.append(
                _finding(
                    STORE_FOREIGN,
                    rel,
                    "not a sharded content-addressed artifact; skipped",
                )
            )
            report.entries.append(entry)
            continue
        report.entries.append(audit_file(path, rel))
    return report
