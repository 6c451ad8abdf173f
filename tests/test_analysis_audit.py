"""Artifact auditor: the committed store is clean, and every class of
corruption is caught with the exact rule id of the invariant it breaks."""

import json
from pathlib import Path

import pytest

from repro.analysis.audit import AuditEntry, audit_file, audit_store
from repro.analysis.findings import Severity
from repro.analysis.report import exit_code
from repro.pipeline.artifact import CompiledKernel
from repro.pipeline.store import ArtifactStore

REPO_STORE = Path(__file__).resolve().parents[1] / ".repro_artifacts"
HIER_STORE = Path(__file__).resolve().parent / "hier_artifacts"

pytestmark = pytest.mark.skipif(
    not REPO_STORE.is_dir(), reason="committed artifact store not present"
)


@pytest.fixture(scope="module")
def committed():
    artifacts = []
    for path, is_artifact in ArtifactStore(REPO_STORE).walk():
        if is_artifact:
            artifacts.append(
                CompiledKernel.from_json_dict(json.loads(path.read_bytes()))
            )
    assert artifacts, "expected committed artifacts"
    return artifacts


@pytest.fixture(scope="module")
def small(committed):
    """Smallest mappable committed artifact — mutation substrate."""
    mappable = [a for a in committed if not a.unmappable]
    return min(mappable, key=lambda a: (len(a.placements), a.key.digest))


def write_artifact(root: Path, payload: dict, *, digest: str | None = None):
    """Canonically encode *payload* at its (or a forced) content address."""
    artifact = CompiledKernel.from_json_dict(payload)
    digest = digest or artifact.key.digest
    path = root / digest[:2] / f"{digest}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(artifact.to_json())
    return path


def audit_ids(root: Path) -> set[str]:
    return {f.rule_id for f in audit_store(root).findings}


def payload_of(artifact: CompiledKernel) -> dict:
    return json.loads(artifact.to_json())


def find_mutation(artifacts, mutate, want: set[str], limit: int = 400):
    """First mutated payload whose solo audit yields exactly *want*.

    *mutate* maps an artifact to an iterator of payload dicts; searching
    (rather than hard-coding coordinates) keeps the tests independent of
    which kernels happen to be committed.
    """
    tried = 0
    for artifact in sorted(
        (a for a in artifacts if not a.unmappable),
        key=lambda a: (len(a.placements), a.key.digest),
    ):
        for payload in mutate(artifact):
            tried += 1
            if tried > limit:
                return None
            entry = _solo_audit(payload)
            if {f.rule_id for f in entry.findings} == want:
                return payload
    return None


def _solo_audit(payload: dict, tmp_root: list = []) -> AuditEntry:
    import tempfile

    if not tmp_root:
        tmp_root.append(Path(tempfile.mkdtemp(prefix="repro-audit-")))
    path = write_artifact(tmp_root[0], payload)
    entry = audit_file(path, path.relative_to(tmp_root[0]).as_posix())
    path.unlink()
    return entry


# -- the committed store is the baseline ---------------------------------------------


def test_committed_store_audits_clean():
    """Both committed stores: the flat jobs and the 22 hier jobs."""
    for root in (REPO_STORE, HIER_STORE):
        report = audit_store(root)
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings
        )
        counts = report.counts()
        assert counts["corrupt"] == 0 and counts["foreign"] == 0, root
        assert counts["folds_checked"] > 0, root


def test_clean_artifact_round_trips(tmp_path, small):
    write_artifact(tmp_path, payload_of(small))
    report = audit_store(tmp_path)
    assert report.findings == [] and report.counts()["corrupt"] == 0
    (entry,) = report.entries
    assert entry.folds_checked == small.pages_used  # one table row per M


# -- encoding / addressing corruption ------------------------------------------------


def test_single_byte_corruption_is_art_read(tmp_path, small):
    path = write_artifact(tmp_path, payload_of(small))
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")  # no longer JSON
    path.write_bytes(bytes(raw))
    assert audit_ids(tmp_path) == {"ART-READ"}
    assert audit_store(tmp_path).counts()["corrupt"] == 1

    raw[0] = 0xC5  # invalid UTF-8 continuation — not even decodable
    path.write_bytes(bytes(raw))
    assert audit_ids(tmp_path) == {"ART-READ"}


def test_version_bump_is_art_read(tmp_path, small):
    payload = payload_of(small)
    path = write_artifact(tmp_path, payload_of(small))
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    assert audit_ids(tmp_path) == {"ART-READ"}


def test_non_canonical_encoding_is_art_bytes(tmp_path, small):
    path = write_artifact(tmp_path, payload_of(small))
    path.write_text(json.dumps(json.loads(path.read_text()), indent=2))
    assert audit_ids(tmp_path) == {"ART-BYTES"}


def test_wrong_address_is_art_addr(tmp_path, small):
    write_artifact(tmp_path, payload_of(small), digest="f" * 64)
    assert audit_ids(tmp_path) == {"ART-ADDR"}


def test_unmappable_with_mapping_data_is_art_fields(tmp_path, small):
    payload = payload_of(small)
    payload["unmappable"] = True
    write_artifact(tmp_path, payload)
    assert audit_ids(tmp_path) == {"ART-FIELDS"}


# -- provenance corruption -----------------------------------------------------------


def test_unknown_kernel_is_art_dfg(tmp_path, small):
    payload = payload_of(small)
    payload["kernel"] = "nonesuch"
    write_artifact(tmp_path, payload)
    assert audit_ids(tmp_path) == {"ART-DFG"}


def test_kernel_swap_is_art_dfg(tmp_path, committed, small):
    other = next(
        a.kernel for a in committed if a.kernel != small.kernel
    )
    payload = payload_of(small)
    payload["kernel"] = other
    write_artifact(tmp_path, payload)
    assert audit_ids(tmp_path) == {"ART-DFG"}


def test_geometry_change_is_art_arch(tmp_path, small):
    payload = payload_of(small)
    payload["rows"] += 1
    write_artifact(tmp_path, payload)
    assert "ART-ARCH" in audit_ids(tmp_path)


# -- mapping corruption --------------------------------------------------------------


def test_flipped_placement_pe_is_map_legal(committed):
    def mutate(artifact):
        payload = payload_of(artifact)
        for i, (op, r, c, t) in enumerate(artifact.placements):
            for j, (_, r2, c2, _) in enumerate(artifact.placements):
                if j == i or (r2, c2) == (r, c):
                    continue
                out = json.loads(json.dumps(payload))
                out["placements"][i] = [op, r2, c2, t]
                yield out

    payload = find_mutation(committed, mutate, {"MAP-LEGAL"})
    assert payload is not None, "no placement flip produced a pure MAP-LEGAL"


def test_dropped_route_step_is_map_legal(committed):
    # a missing step leaves the consumer reading at depth 2, which the
    # validator's route-step count refuses
    def mutate(artifact):
        payload = payload_of(artifact)
        for i, (_, steps, _) in enumerate(artifact.routes):
            if not steps:
                continue
            out = json.loads(json.dumps(payload))
            out["routes"][i][1] = out["routes"][i][1][:-1]
            yield out

    payload = find_mutation(committed, mutate, {"MAP-LEGAL"})
    assert payload is not None, "no route-step drop produced MAP-LEGAL"


def test_broken_ring_hop_is_map_ring(committed):
    def mutate(artifact):
        payload = payload_of(artifact)
        if artifact.pages_used < 2:
            return
        pes = {(r, c) for (_, r, c, _) in artifact.placements}
        for i, (op, r, c, t) in enumerate(artifact.placements):
            for (r2, c2) in sorted(pes):
                if (r2, c2) == (r, c):
                    continue
                out = json.loads(json.dumps(payload))
                out["placements"][i] = [op, r2, c2, t]
                yield out

    payload = find_mutation(committed, mutate, {"MAP-RING"})
    assert payload is not None, "no placement move produced a pure MAP-RING"


def test_time_shift_breaks_register_depth(committed):
    """A read moved off depth 1 is MAP-LEGAL: the validator wants exactly
    ``dst.time - origin - 1`` route steps, each one cycle after the last."""

    def mutate(artifact):
        if artifact.ii_paged != 1:
            return  # ii==1 keeps the page schedule legal, isolating depth
        payload = payload_of(artifact)
        for i, (op, r, c, t) in enumerate(artifact.placements):
            out = json.loads(json.dumps(payload))
            out["placements"][i] = [op, r, c, t + 1]
            yield out

    payload = find_mutation(committed, mutate, {"MAP-LEGAL"})
    assert payload is not None, "no time shift produced a register-depth break"


def test_lowered_ii_is_map_mii(committed):
    """A base II edited below the provable minimum trips MAP-MII — the one
    check on ``ii_base``, whose mapping is not stored — alongside whatever
    slot rules the now-overpacked paged schedule also breaks."""
    victim = next(
        a
        for a in sorted(committed, key=lambda a: (len(a.placements), a.key.digest))
        if not a.unmappable and a.ii_base > 1 and a.ii_paged > 1
    )
    payload = payload_of(victim)
    payload["ii_base"] = 1
    payload["ii_paged"] = 1
    entry = _solo_audit(payload)
    ids = {f.rule_id for f in entry.findings}
    assert "MAP-MII" in ids and "MAP-LEGAL" in ids
    mii = [f for f in entry.findings if f.rule_id == "MAP-MII"]
    assert [f.message.split(" beats")[0] for f in mii] == ["base II 1"]


def test_unmappable_ii_base_is_bounded(committed):
    """An unmappable artifact keeps only its base II, and MAP-MII checks
    it too."""
    victim = next(a for a in committed if a.unmappable)
    payload = payload_of(victim)
    payload["ii_base"] = 1
    entry = _solo_audit(payload)
    assert {f.rule_id for f in entry.findings} == {"MAP-MII"}
    assert "base II 1" in entry.findings[0].message


def test_paged_ii_is_bounded_on_the_stored_prefix(committed):
    """An ``ii_paged`` edited below the bound of the pages the mapping was
    stored on (the first ``pages_used`` chain pages), with the fold table
    rewritten to agree, is a finding: a stored mapping below its bound
    cannot pass the validator, so MAP-LEGAL or MAP-RING refuses it."""
    from repro.arch.capability import OpClass
    from repro.compiler.feas import ii_lower_bound
    from repro.core.pagemaster import steady_state_ii
    from repro.core.paging import PageLayout
    from repro.kernels import get_kernel

    def mii(dfg, cgra, pe_ids, bus_rows):
        mask = cgra.class_mask(OpClass.MEM)
        return ii_lower_bound(
            dfg,
            num_pes=len(pe_ids),
            mem_slots=bus_rows * cgra.mem_ports_per_row,
            mem_capable_pes=sum(1 for p in pe_ids if mask is None or mask[p]),
            max_ii=64,
        ).mii

    for victim in sorted(committed, key=lambda a: (len(a.placements), a.key.digest)):
        if victim.unmappable:
            continue
        cgra = victim.build_cgra()
        layout = PageLayout(cgra, tuple(victim.page_shape))
        id_of, h = cgra.grid_index.id_of, layout.shape[0]
        dfg = get_kernel(victim.kernel).build()
        covered = [id_of[pe] for pe in layout.page_of]
        whole = mii(dfg, cgra, covered, layout.num_pages * h)
        pages = victim.pages_used
        stored = [id_of[pe] for n in range(pages) for pe in layout.coords_of_page(n)]
        prefix = mii(dfg, cgra, stored, pages * h)
        if prefix > whole:
            break
    else:
        pytest.fail("no committed artifact's prefix bound beats its whole-array one")
    payload = payload_of(victim)
    ii = payload["ii_paged"] = prefix - 1
    payload["steady_ii"] = [
        [m, q.numerator, q.denominator]
        for m in range(1, pages + 1)
        for q in [steady_state_ii(pages, ii, m, wrap_used=victim.wrap_used)]
    ]
    ids = {f.rule_id for f in _solo_audit(payload).findings}
    assert ids in ({"MAP-LEGAL"}, {"MAP-RING"}), ids


# -- fold corruption -----------------------------------------------------------------


def test_steady_table_value_corruption_is_fold_table(tmp_path, small):
    payload = payload_of(small)
    payload["steady_ii"][0][1] += 1
    write_artifact(tmp_path, payload)
    assert audit_ids(tmp_path) == {"FOLD-TABLE"}


def test_steady_table_coverage_gap_is_fold_table(tmp_path, committed):
    multi = min(
        (a for a in committed if not a.unmappable and a.pages_used >= 2),
        key=lambda a: (len(a.placements), a.key.digest),
    )
    payload = payload_of(multi)
    payload["steady_ii"] = payload["steady_ii"][:-1]
    write_artifact(tmp_path, payload)
    assert audit_ids(tmp_path) == {"FOLD-TABLE"}


def test_repeated_m_is_fold_table(tmp_path, committed):
    """``steady_table()`` keeps the last row of each M, so a table with a
    wrong row before the right one reads correctly; the audit wants the
    rows M = 1..N in order, as compile writes them."""
    multi = min(
        (a for a in committed if not a.unmappable and a.pages_used >= 2),
        key=lambda a: (len(a.placements), a.key.digest),
    )
    payload = payload_of(multi)
    payload["steady_ii"].insert(1, [2, 999, 1])
    write_artifact(tmp_path, payload)
    read_back = CompiledKernel.from_json_dict(payload)
    assert read_back.steady_table() == multi.steady_table()
    assert audit_ids(tmp_path) == {"FOLD-TABLE"}


# -- malformed nested fields ---------------------------------------------------------


MALFORMED = {
    "steady-zero-denominator": lambda p: p["steady_ii"].__setitem__(0, [1, 2, 0]),
    "steady-two-fields": lambda p: p["steady_ii"].__setitem__(0, [1, 2]),
    "steady-string": lambda p: p["steady_ii"].__setitem__(0, [1, "x", 1]),
    "placement-three-fields": lambda p: p["placements"][0].pop(),
    "route-step-two-fields": lambda p: next(
        r[1][0].pop() for r in p["routes"] if r[1]
    ),
    "page-shape-string": lambda p: p.update(page_shape=["a", 2]),
    "ii-paged-string": lambda p: p.update(ii_paged="2"),
    "pages-used-float": lambda p: p.update(pages_used=2.5),
    # well-typed, out of range: a profile of these cannot be built
    "ii-base-zero": lambda p: p.update(ii_base=0),
    "ii-paged-zero": lambda p: p.update(ii_paged=0),
    "pages-used-zero": lambda p: p.update(pages_used=0),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_nested_field_is_a_miss_and_art_read(
    tmp_path, committed, shape, caplog
):
    """A well-formed JSON file whose nested field has the wrong type or
    arity, or whose II or page need is below 1, is refused on read: the
    store logs it and misses, and the audit reports ART-READ instead of
    raising."""
    victim = min(
        (a for a in committed if any(steps for (_, steps, _) in a.routes)),
        key=lambda a: (len(a.placements), a.key.digest),
    )
    payload = payload_of(victim)
    MALFORMED[shape](payload)
    digest = victim.key.digest
    path = tmp_path / digest[:2] / f"{digest}.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))

    assert ArtifactStore(tmp_path).get(victim.key) is None
    assert "discarding" in caplog.text
    assert audit_ids(tmp_path) == {"ART-READ"}


# -- store hygiene -------------------------------------------------------------------


def test_foreign_files_are_tolerated_and_reported(tmp_path, small):
    write_artifact(tmp_path, payload_of(small))
    (tmp_path / "README.txt").write_text("not an artifact\n")
    shard = tmp_path / small.key.digest[:2]
    (shard / "notes.md").write_text("scratch\n")

    store = ArtifactStore(tmp_path)
    assert store.get(small.key) is not None  # reads unaffected

    report = audit_store(tmp_path)
    # foreign files never fail the audit outright
    assert report.counts()["corrupt"] == 0
    foreign = [e for e in report.entries if e.status == "foreign"]
    assert sorted(e.path for e in foreign) == sorted(
        ["README.txt", f"{small.key.digest[:2]}/notes.md"]
    )
    assert {f.rule_id for f in report.findings} == {"STORE-FOREIGN"}
    assert all(f.severity is Severity.WARNING for f in report.findings)
    assert exit_code(report.findings) == 0
    assert exit_code(report.findings, strict=True) == 1


def test_store_walk_is_sorted(tmp_path, small, committed):
    for artifact in committed[:5]:
        write_artifact(tmp_path, payload_of(artifact))
    (tmp_path / "zzz.txt").write_text("stray\n")
    walked = [p for p, _ in ArtifactStore(tmp_path).walk()]
    assert walked == sorted(walked)


def test_cli_contract(tmp_path, small):
    from repro.analysis.cli import main

    write_artifact(tmp_path, payload_of(small))
    assert main(["audit", "--store", str(tmp_path)]) == 0

    payload = payload_of(small)
    payload["steady_ii"][0][1] += 1
    write_artifact(tmp_path, payload)  # same address: overwrites clean copy
    assert main(["audit", "--store", str(tmp_path)]) == 1

    assert main(["audit", "--store", str(tmp_path / "missing")]) == 2
    assert main(["rules"]) == 0


def test_cli_store_that_is_a_file_is_not_a_directory(tmp_path, capsys):
    from repro.analysis.cli import main

    not_a_store = tmp_path / "README.md"
    not_a_store.write_text("text\n")
    assert main(["audit", "--store", str(not_a_store)]) == 2
    err = capsys.readouterr().err
    assert "is not a directory" in err and "does not exist" not in err
