"""Pass 2 — the independent artifact auditor.

Loads every :class:`~repro.pipeline.artifact.CompiledKernel` in an artifact
store *from bytes alone* — no mapper, no cache state, no trust in the
process that wrote it — and proves the full invariant suite:

* **encoding** — the JSON is the canonical byte encoding of its own
  content, and the file sits at the address its fingerprints dictate;
* **provenance** — the stored DFG/architecture fingerprints match an
  independent re-derivation from the kernel registry and the stored
  geometry;
* **mapping legality** — :func:`repro.compiler.check.validate_mapping` over
  the materialized mapping under its page layout (the §VI-B ring topology
  and the fold-safe banked bus budgets), plus an explicit register-depth-1 re-check
  (every value is read exactly one cycle after it was produced or
  re-emitted, so the rotating register file stays free for PageMaster);
* **foldability** — for every target ``M <= N`` the PageMaster fold
  passes :func:`repro.core.transform_check.check_placement` (all page
  dependencies on chain-adjacent columns, strictly later, no slot
  double-booked), the stored steady-state II table matches an
  independent recomputation exactly, and the achieved ``II_q`` respects the
  paper's ``II_q ~ II_p * N / M`` model: never below the resource bound
  ``II_p * N / M``, *equal* to it whenever ``M`` divides ``N`` on a
  wrap-free schedule (the grouped fold is optimal), and within 2x of it for
  the zigzag fold (Algorithm 1's worst observed efficiency is 0.5).

Every violation carries the rule id of the invariant it broke — the
corruption taxonomy — so a failed audit names *what* is wrong and *where*,
not just that bytes differ.
"""

from __future__ import annotations

import json
import math
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

__all__ = ["AuditEntry", "AuditReport", "audit_store"]


ART_READ = register(
    Rule(
        id="ART-READ",
        kind="audit",
        severity=Severity.ERROR,
        summary="artifact unreadable (bad JSON or foreign schema version)",
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
MAP_REGDEPTH = register(
    Rule(
        id="MAP-REGDEPTH",
        kind="audit",
        severity=Severity.ERROR,
        summary="mapping violates the §VI-B register-usage (depth-1) "
        "constraint",
        fix_hint="every read must consume a value produced or re-emitted "
        "exactly one cycle earlier; deeper reads would steal the rotating "
        "file PageMaster needs",
    )
)
MAP_MII = register(
    Rule(
        id="MAP-MII",
        kind="audit",
        severity=Severity.ERROR,
        summary="stored II beats the provable minimum initiation interval",
        fix_hint="the II lower bound (max of ResMII, memory-slot, "
        "memory-capability and RecMII terms, re-derived from the kernel "
        "registry and the artifact's stored geometry alone) is sound for "
        "every legal mapping; an II below it means the artifact bytes are "
        "corrupt or the store was written by a broken mapper",
    )
)
FOLD_TABLE = register(
    Rule(
        id="FOLD-TABLE",
        kind="audit",
        severity=Severity.ERROR,
        summary="stored steady-state II table disagrees with recomputation",
        fix_hint="the simulator would plan with wrong throughput numbers; "
        "recompile to refresh the table",
    )
)
FOLD_DEPS = register(
    Rule(
        id="FOLD-DEPS",
        kind="audit",
        severity=Severity.ERROR,
        summary="PageMaster fold breaks a page dependency or double-books a "
        "slot",
        fix_hint="fold placements must keep ring/self dependencies on "
        "chain-adjacent columns, strictly later in time, one instance per "
        "(column, time) slot",
    )
)
FOLD_BOUND = register(
    Rule(
        id="FOLD-BOUND",
        kind="audit",
        severity=Severity.ERROR,
        summary="fold II_q outside the paper's bound envelope",
        fix_hint="II_q must satisfy II_p*N/M <= II_q, with equality when M "
        "divides N (wrap-free), and II_q <= 2*II_p*N/M for the zigzag fold",
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

    @property
    def ok(self) -> bool:
        return all(e.status != "corrupt" for e in self.entries)

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
    """Internal consistency of the plain fields; False aborts deeper checks."""
    problems: list[str] = []
    if artifact.rows < 1 or artifact.cols < 1:
        problems.append(f"grid {artifact.rows}x{artifact.cols} is empty")
    h, w = artifact.page_shape
    if h < 1 or w < 1 or h > artifact.rows or w > artifact.cols:
        problems.append(
            f"page shape {h}x{w} does not fit {artifact.rows}x{artifact.cols}"
        )
    if artifact.ii_base < 1:
        problems.append(f"ii_base {artifact.ii_base} < 1")
    if artifact.unmappable:
        if artifact.placements or artifact.routes or artifact.steady_ii:
            problems.append("unmappable artifact carries mapping data")
    else:
        if artifact.ii_paged < 1:
            problems.append(f"ii_paged {artifact.ii_paged} < 1")
        if artifact.pages_used < 1:
            problems.append(f"pages_used {artifact.pages_used} < 1")
        if h and w:
            max_pages = (artifact.rows // h) * (artifact.cols // w)
            if artifact.pages_used > max_pages:
                problems.append(
                    f"pages_used {artifact.pages_used} exceeds the "
                    f"{max_pages} page(s) the grid holds"
                )
        if artifact.wrap_used and not artifact.layout_wrap:
            problems.append("wrap_used without a wrap-capable layout")
        if not artifact.placements:
            problems.append("mappable artifact has no placements")
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
    from repro.compiler.mapping import materialized_edges
    from repro.util.errors import CapabilityViolation

    try:
        paged = artifact.materialize(dfg)
    except CapabilityViolation as exc:
        entry.findings.append(_finding(MAP_CAP, entry.path, str(exc)))
        return
    except ConstraintViolation as exc:
        entry.findings.append(_finding(MAP_RING, entry.path, str(exc)))
        return
    except (MappingError, ArchitectureError, ArtifactError, TransformError) as exc:
        entry.findings.append(_finding(MAP_LEGAL, entry.path, str(exc)))
        return
    try:
        validate_mapping(paged.mapping, paged.layout)
    except CapabilityViolation as exc:
        entry.findings.append(_finding(MAP_CAP, entry.path, str(exc)))
    except ConstraintViolation as exc:
        entry.findings.append(_finding(MAP_RING, entry.path, str(exc)))
    except (MappingError, ArchitectureError) as exc:
        entry.findings.append(_finding(MAP_LEGAL, entry.path, str(exc)))

    _audit_capability(entry, artifact, dfg)

    # register-usage constraint (§VI-B): depth-1 reads, re-checked
    # explicitly so a violation is named, not folded into route legality
    mapping = paged.mapping
    for e in materialized_edges(dfg):
        try:
            holder, held_at = mapping.route_origin(e)
            steps = mapping.route(e.id).steps
            dst = mapping.placement(e.dst)
        except MappingError:
            continue  # already reported by validate_mapping
        reads = [(s.pe, s.time) for s in steps] + [(dst.pe, dst.time)]
        for pe, t in reads:
            if t != held_at + 1:
                entry.findings.append(
                    _finding(
                        MAP_REGDEPTH,
                        entry.path,
                        f"edge {e.id}: read at {pe} t={t} is depth "
                        f"{t - held_at} from the value held at t={held_at}",
                    )
                )
                break
            holder, held_at = pe, t


def _audit_capability(entry: AuditEntry, artifact, dfg) -> None:
    """Bytes-level capability legality: re-checked straight off the stored
    placement/route tuples, so a capability violation is caught even when
    materialization itself fails for an unrelated reason."""
    if artifact.capability is None:
        return
    from repro.arch.capability import CapabilityMap, OpClass, op_class

    try:
        cap = CapabilityMap(artifact.rows, artifact.cols, artifact.capability)
    except ArchitectureError as exc:
        entry.findings.append(_finding(MAP_CAP, entry.path, str(exc)))
        return
    for (op_id, r, c, _t) in artifact.placements:
        op = dfg.ops.get(op_id)
        if op is None:
            continue  # dangling op id is MAP-LEGAL territory
        cls = op_class(op.opcode)
        pe_id = r * artifact.cols + c
        if not cap.supports_id(cls, pe_id):
            entry.findings.append(
                _finding(
                    MAP_CAP,
                    entry.path,
                    f"op{op_id} ({cls.value}) stored on PE({r},{c}), which "
                    f"lacks the {cls.value!r} capability",
                )
            )
    for (edge_id, steps, _tap) in artifact.routes:
        for (r, c, _t) in steps:
            pe_id = r * artifact.cols + c
            if not cap.supports_id(OpClass.ROUTE, pe_id):
                entry.findings.append(
                    _finding(
                        MAP_CAP,
                        entry.path,
                        f"edge {edge_id}: route step on PE({r},{c}), which "
                        f"lacks the 'route' capability",
                    )
                )
                break


def _audit_mii(entry: AuditEntry, artifact, dfg) -> None:
    """MAP-MII: the stored IIs must respect the provable lower bound.

    The bound is re-derived from artifact bytes alone — the registry DFG
    (already fingerprint-matched by provenance) and the stored grid/page
    geometry — via the same :func:`repro.compiler.feas.ii_lower_bound`
    every backend's ladder starts from.  The terms only assume what any
    legal modulo schedule must satisfy (one op per (PE, slot), memory
    issue-slot and capability budgets, recurrence circuits), so an II
    *below* the bound is impossible, whatever heuristic produced it.  The
    base II is bounded on the whole array, the paged II on the stored
    prefix — the first ``pages_used`` chain pages, which hold every op of
    the paged mapping.  The counting is the auditor's own, from the stored
    geometry, not the compiler's capacity records.
    """
    from repro.arch.capability import OpClass
    from repro.compiler.feas import ii_lower_bound
    from repro.core.paging import PageLayout

    cgra = artifact.build_cgra()
    mem_mask = cgra.class_mask(OpClass.MEM)

    def check(label: str, ii: int, pe_ids, mem_slots: int) -> None:
        n_pes = len(pe_ids)
        mem_capable = (
            n_pes if mem_mask is None else sum(1 for p in pe_ids if mem_mask[p])
        )
        try:
            bound = ii_lower_bound(
                dfg,
                num_pes=n_pes,
                mem_slots=mem_slots,
                mem_capable_pes=mem_capable,
                max_ii=ii,
            )
        except MappingError as exc:
            entry.findings.append(
                _finding(
                    MAP_MII,
                    entry.path,
                    f"{label} II {ii} stored for a kernel that provably "
                    f"cannot map: {exc}",
                )
            )
            return
        if ii < bound.mii:
            entry.findings.append(
                _finding(
                    MAP_MII,
                    entry.path,
                    f"{label} II {ii} beats the provable lower bound "
                    f"{bound.mii} (binding term: {bound.binding()})",
                )
            )

    check(
        "base",
        artifact.ii_base,
        list(range(cgra.num_pes)),
        cgra.rows * cgra.mem_ports_per_row,
    )
    try:
        layout = PageLayout(cgra, tuple(artifact.page_shape))
    except (ArchitectureError, MappingError):
        return  # geometry problems are ART-ARCH/MAP-LEGAL territory
    gi = cgra.grid_index
    pages = artifact.pages_used
    prefix = [
        gi.id_of[pe] for n in range(pages) for pe in layout.coords_of_page(n)
    ]
    check(
        "paged",
        artifact.ii_paged,
        prefix,
        pages * layout.shape[0] * cgra.mem_ports_per_row,
    )


def _audit_fold(entry: AuditEntry, artifact) -> None:
    from repro.core.pagemaster import PageMaster
    from repro.core.transform_check import check_placement

    n, ii_p = artifact.pages_used, artifact.ii_paged
    stored = artifact.steady_table()
    expected_targets = set(range(1, n + 1))
    if set(stored) != expected_targets:
        entry.findings.append(
            _finding(
                FOLD_TABLE,
                entry.path,
                f"steady table covers M={sorted(stored)}, expected "
                f"M=1..{n}",
            )
        )
        return
    for m in range(1, n + 1):
        try:
            placement = PageMaster(
                n, ii_p, m, wrap_used=artifact.wrap_used
            ).place()
            check_placement(placement)
        except (TransformError, ConstraintViolation) as exc:
            entry.findings.append(
                _finding(FOLD_DEPS, entry.path, f"M={m}: {exc}")
            )
            continue
        entry.folds_checked += 1
        achieved = placement.ii_q_effective()
        if stored[m] != achieved:
            entry.findings.append(
                _finding(
                    FOLD_TABLE,
                    entry.path,
                    f"M={m}: stored II_q {stored[m]} != recomputed {achieved}",
                )
            )
        _check_fold_bound(entry, artifact, achieved, m)


def _check_fold_bound(entry: AuditEntry, artifact, achieved, m: int) -> None:
    n, ii_p = artifact.pages_used, artifact.ii_paged
    resource = Fraction(ii_p * n, m)
    grouped = n % m == 0 and not artifact.wrap_used
    if achieved < resource:
        entry.findings.append(
            _finding(
                FOLD_BOUND,
                entry.path,
                f"M={m}: II_q {achieved} beats the resource bound "
                f"{resource} — impossible, the table is corrupt",
            )
        )
    elif grouped and achieved != resource:
        entry.findings.append(
            _finding(
                FOLD_BOUND,
                entry.path,
                f"M={m} divides N={n} wrap-free: grouped fold must meet "
                f"II_p*N/M = {resource} exactly, got {achieved}",
            )
        )
    elif achieved > 2 * resource:
        entry.findings.append(
            _finding(
                FOLD_BOUND,
                entry.path,
                f"M={m}: II_q {achieved} exceeds 2x the resource bound "
                f"{resource} (zigzag efficiency below 0.5)",
            )
        )


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
        if dfg is not None and not artifact.unmappable:
            _audit_mapping(entry, artifact, dfg)
            _audit_mii(entry, artifact, dfg)
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
