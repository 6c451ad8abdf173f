"""Heterogeneous PE capabilities, fabric presets, and the hier backend
(the flat chain ladder with a one-page probe first on every II rung).

Three invariants anchor this file:

* **byte stability** — homogeneous fabrics fingerprint and serialize
  exactly as before the capability model existed (pinned hashes), and
  recompilation on any preset is byte-deterministic;
* **legality everywhere** — a capability restriction is enforced by the
  mapper, the validator and the lowering pass independently, and the
  bytes-only artifact auditor reports the validator's refusal as
  ``MAP-CAP``;
* **hier never loses** — the hier backend reproduces the flat
  ladder's II (its fallback rungs replay the flat ladder exactly) and is
  deterministic at any worker count.
"""

from __future__ import annotations

import json

import pytest

from repro.arch.capability import ALL_CLASSES, CapabilityMap, OpClass, op_class
from repro.arch.cgra import CGRA
from repro.arch.isa import Opcode
from repro.arch.presets import (
    PRESET_SIZES,
    experiment_cgra,
    mem_columns_for,
    preset,
    preset_names,
)
from repro.core.paging import PageLayout
from repro.kernels import get_kernel
from repro.pipeline.artifact import CompiledKernel
from repro.pipeline.compile import CompileJob, compile_many, job_key
from repro.pipeline.store import ArtifactStore
from repro.util.errors import ArchitectureError

#: Structural hashes of every preset fabric.  These are regression pins:
#: the homogeneous ones must never move (committed artifact addresses
#: hang off them), and the -memcols ones freeze the canonical capability
#: encoding.
PRESET_FINGERPRINTS = {
    "4x4": "449e4e44bcecdfdc",
    "6x6": "536e78bce58e40ff",
    "8x8": "03ad815d700188fe",
    "16x16": "8bd5891021132aee",
    "4x4-memcols": "5f8cd00e86885ff1",
    "6x6-memcols": "ae07f98e31c3c008",
    "8x8-memcols": "ddab4f913e33edb0",
    "16x16-memcols": "1971c0755cbb7294",
}


# -- capability model ----------------------------------------------------------------


class TestCapabilityMap:
    def test_op_class_partition(self):
        assert op_class(Opcode.LOAD) is OpClass.MEM
        assert op_class(Opcode.LOADT) is OpClass.MEM
        assert op_class(Opcode.STORE) is OpClass.MEM
        assert op_class(Opcode.ROUTE) is OpClass.ROUTE
        assert op_class(Opcode.ADD) is OpClass.ALU
        assert op_class(Opcode.CONST) is OpClass.ALU

    def test_homogeneous_is_empty_encoding(self):
        cap = CapabilityMap(4, 4, ())
        assert cap.is_homogeneous
        assert cap.classes == ()
        assert cap.spec() is None
        for cls_ in ALL_CLASSES:
            assert cap.mask(cls_) is None
            assert cap.ids(cls_) == tuple(range(16))
            assert all(cap.supports_id(cls_, i) for i in range(16))

    def test_universal_class_canonicalizes_away(self):
        # listing every PE for a class is the same as not listing it
        cap = CapabilityMap(2, 2, (("alu", (0, 1, 2, 3)),))
        assert cap.is_homogeneous

    def test_mem_columns(self):
        cap = CapabilityMap.mem_columns(4, 4, (0, 2))
        assert not cap.is_homogeneous
        assert cap.classes == (
            ("mem", (0, 2, 4, 6, 8, 10, 12, 14)),
        )
        for pe_id in range(16):
            on_port = pe_id % 4 in (0, 2)
            assert cap.supports_id(OpClass.MEM, pe_id) == on_port
            assert cap.supports_id(OpClass.ALU, pe_id)
            assert cap.supports_id(OpClass.ROUTE, pe_id)
        mask = cap.mask(OpClass.MEM)
        assert mask is not None and sum(mask) == 8

    def test_spec_round_trip(self):
        cap = CapabilityMap.mem_columns(4, 4, (1, 3))
        classes = tuple((name, tuple(ids)) for name, ids in cap.spec())
        assert CapabilityMap(4, 4, classes) == cap
        assert CapabilityMap(4, 4).spec() is None  # homogeneous

    @pytest.mark.parametrize(
        "classes",
        [
            (("teleport", (0,)),),  # unknown class
            (("mem", (0,)), ("mem", (1,))),  # duplicate class
            (("mem", (99,)),),  # id out of range
        ],
    )
    def test_invalid_encodings_rejected(self, classes):
        with pytest.raises(ArchitectureError):
            CapabilityMap(2, 2, classes)

    def test_mem_columns_validation(self):
        with pytest.raises(ArchitectureError):
            CapabilityMap.mem_columns(4, 4, ())
        with pytest.raises(ArchitectureError):
            CapabilityMap.mem_columns(4, 4, (7,))

    def test_cgra_canonicalizes_homogeneous_map_to_none(self):
        cgra = CGRA(4, 4, rf_depth=16, capability=CapabilityMap(4, 4, ()))
        assert cgra.capability is None
        assert cgra.fingerprint() == PRESET_FINGERPRINTS["4x4"]

    def test_cgra_rejects_mismatched_map(self):
        with pytest.raises(ArchitectureError):
            CGRA(4, 4, rf_depth=16, capability=CapabilityMap.mem_columns(6, 6, (0,)))


# -- presets and fingerprint stability -----------------------------------------------


class TestPresets:
    def test_registry(self):
        assert preset_names() == sorted(PRESET_FINGERPRINTS)
        assert len(preset_names()) == 2 * len(PRESET_SIZES)

    def test_unknown_preset(self):
        with pytest.raises(ArchitectureError, match="unknown fabric preset"):
            preset("5x5")

    def test_demo_is_the_4x4_preset(self):
        literal = CGRA(4, 4, rf_depth=16)
        assert preset("4x4").fingerprint() == literal.fingerprint()

    @pytest.mark.parametrize("name", sorted(PRESET_FINGERPRINTS))
    def test_fingerprints_pinned(self, name):
        """Homogeneous fingerprints are committed-artifact addresses; a
        change here invalidates the entire stored cache."""
        assert preset(name).fingerprint() == PRESET_FINGERPRINTS[name]

    @pytest.mark.parametrize("size", PRESET_SIZES)
    def test_experiment_rule(self, size):
        cgra = experiment_cgra(size)
        assert (cgra.rows, cgra.cols, cgra.rf_depth) == (size, size, 4 * size)
        assert cgra.fingerprint() == preset(f"{size}x{size}").fingerprint()

    @pytest.mark.parametrize("size", PRESET_SIZES)
    def test_memcols_pages_keep_mem_pes(self, size):
        """Every canonical page tile of a -memcols fabric must contain at
        least one mem-capable PE, else small-page compiles are dead."""
        from repro.compiler.constraints import slot_capacity
        from repro.core.paging import choose_page_shape

        cgra = preset(f"{size}x{size}-memcols")
        cap = cgra.capability
        assert cap is not None
        # ps=2 tiles are 2x1 (single column): odd-column pages hold no mem
        # PE by design — the mapper simply clusters mem ops elsewhere.
        for ps in [4] if size <= 4 else [4, 8]:
            shape = choose_page_shape(ps, size, size)
            layout = PageLayout(cgra, shape)
            for page in range(layout.num_pages):
                assert slot_capacity(cgra, layout, page).mem_pes > 0, (
                    f"{size}x{size}-memcols page {page} of shape {shape} "
                    f"has no mem-capable PE"
                )
        assert set(mem_columns_for(size)) == set(range(0, size, 2))


# -- capability-aware compilation ----------------------------------------------------


def _compile_one(job: CompileJob, tmp_path, sub="store"):
    store = ArtifactStore(tmp_path / sub)
    (artifact,) = compile_many([job], store=store)
    return artifact, store


class TestCapabilityCompilation:
    def test_mem_ops_land_on_mem_columns(self, tmp_path):
        job = CompileJob("sor", 4, 4, seed=0, arch="4x4-memcols")
        artifact, _ = _compile_one(job, tmp_path)
        assert not artifact.unmappable
        assert artifact.capability is not None
        dfg = get_kernel("sor").build()
        mem_cols = set(mem_columns_for(4))
        mem_placements = 0
        for op_id, _r, c, _t in artifact.placements:
            if op_id in dfg.ops and op_class(dfg.ops[op_id].opcode) is OpClass.MEM:
                assert c in mem_cols, f"mem op{op_id} on non-mem column {c}"
                mem_placements += 1
        assert mem_placements > 0

    def test_homogeneous_artifact_has_no_capability_key(self, tmp_path):
        artifact, _ = _compile_one(CompileJob("sor", 4, 4, seed=0), tmp_path)
        assert artifact.capability is None
        assert "capability" not in json.loads(artifact.to_json())

    def test_memcols_artifact_round_trips(self, tmp_path):
        job = CompileJob("sor", 4, 4, seed=0, arch="4x4-memcols")
        artifact, _ = _compile_one(job, tmp_path)
        raw = json.loads(artifact.to_json())
        assert raw["capability"] == [["mem", [0, 2, 4, 6, 8, 10, 12, 14]]]
        again = CompiledKernel.from_json_dict(raw)
        assert again == artifact
        # materialization rebuilds the heterogeneous fabric and re-validates
        paged = artifact.materialize(get_kernel("sor").build())
        assert paged.mapping.cgra.capability is not None

    def test_lowering_refuses_capability_violation(self, tmp_path):
        """A schedule legal on the homogeneous fabric but not under the
        -memcols restriction must be refused at lowering time."""
        from repro.compiler.mapping import Mapping
        from repro.kernels import bind_memory
        from repro.sim.lowering import lower_mapping
        from repro.util.errors import SimulationError

        artifact, _ = _compile_one(CompileJob("sor", 4, 4, seed=0), tmp_path)
        spec = get_kernel("sor")
        dfg, arrays, _ = spec.fresh(seed=1, trip=8)
        paged = artifact.materialize(dfg)
        odd_cols = tuple(c for c in range(4) if c % 2 == 1)
        hetero = CGRA(
            4,
            4,
            rf_depth=16,
            capability=CapabilityMap.mem_columns(4, 4, odd_cols),
        )
        mapping = paged.mapping
        moved = Mapping(
            hetero, mapping.dfg, mapping.ii, mapping.placements, mapping.routes
        )
        mem_cols = {p.pe.col for op_id, p in mapping.placements.items()
                    if op_class(mapping.dfg.ops[op_id].opcode) is OpClass.MEM}
        if mem_cols <= set(odd_cols):
            pytest.skip("schedule happens to satisfy the odd-column fabric")
        with pytest.raises(SimulationError, match="lacks the 'mem' capability"):
            lower_mapping(moved, bind_memory(arrays), 8)

    def test_fold_refuses_capability_violation(self, tmp_path):
        """Fold mirroring is capability-blind: folding laplace onto one
        page of 8x8-memcols re-places its LOAD/STORE ops onto odd
        (port-less) columns, and the simulator would execute them
        silently.  Retargeting must refuse, naming the op, the PE and the
        missing class.  At M = N every page lands on its own tile, so the
        fold is the compiled schedule and runs where it was compiled.
        (The homogeneous fabric is unaffected: tests/test_firing_golden.py
        runs all 67 committed 4x4 folds through the same code.)  Page size
        8: at page size 4 laplace now fits on one page, where no fold
        mirrors."""
        from repro.core.pagemaster import PageMaster
        from repro.kernels import bind_memory
        from repro.sim.lowering import lower_mapping
        from repro.sim.retarget import required_batches, retarget_firings
        from repro.util.errors import TransformError

        job = CompileJob("laplace", 8, 8, arch="8x8-memcols", backend="hier")
        artifact, _ = _compile_one(job, tmp_path)
        dfg, arrays, _ = get_kernel("laplace").fresh(seed=7, trip=8)
        paged = artifact.materialize(dfg)
        assert paged.mapping.cgra.capability is not None
        assert artifact.pages_used > 1

        def fold(m):
            placement = PageMaster(
                paged.layout.num_pages, paged.ii, m, wrap_used=paged.wrap_used
            ).place(batches=required_batches(paged.mapping, 8))
            return retarget_firings(
                paged, placement, list(range(m)), bind_memory(arrays), 8
            )

        compiled = lower_mapping(paged.mapping, bind_memory(arrays), 8)
        unfolded = fold(artifact.pages_used)
        assert sorted((f.cycle, f.pe, f.label) for f in unfolded) == sorted(
            (f.cycle, f.pe, f.label) for f in compiled
        )
        with pytest.raises(
            TransformError,
            match=r"\(mem\) would fire on \(\d,[1357]\), which lacks the 'mem'",
        ):
            fold(1)

    @pytest.mark.parametrize("arch", ["4x4", "4x4-memcols"])
    def test_recompilation_is_byte_identical_per_preset(self, arch, tmp_path):
        job = CompileJob("gsr", 4, 2, seed=0, arch=arch)
        a, store_a = _compile_one(job, tmp_path, "a")
        b, store_b = _compile_one(job, tmp_path, "b")
        pa = store_a.path_for(job_key(job))
        pb = store_b.path_for(job_key(job))
        assert pa.read_bytes() == pb.read_bytes()
        assert a.to_json() == b.to_json()

    def test_memcols_arch_fp_differs_from_homogeneous(self, tmp_path):
        plain = CompileJob("sor", 4, 4, seed=0)
        hetero = CompileJob("sor", 4, 4, seed=0, arch="4x4-memcols")
        assert job_key(plain).arch_fp != job_key(hetero).arch_fp
        assert job_key(plain).dfg_fp == job_key(hetero).dfg_fp


# -- MAP-CAP: the bytes-only audit layer ---------------------------------------------


class TestMapCapAudit:
    def _write(self, root, artifact: CompiledKernel):
        digest = artifact.key.digest
        path = root / digest[:2] / f"{digest}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(artifact.to_json())
        return path

    def test_clean_memcols_artifact_audits_clean(self, tmp_path):
        from repro.analysis.audit import audit_store

        artifact, _ = _compile_one(
            CompileJob("sor", 4, 4, seed=0, arch="4x4-memcols"), tmp_path
        )
        root = tmp_path / "audit"
        self._write(root, artifact)
        report = audit_store(root)
        counts = report.counts()
        assert counts["corrupt"] == 0, "\n".join(f.render() for f in report.findings)

    def test_capability_violation_is_map_cap(self, tmp_path):
        """Shrink the stored capability map under the placements' feet:
        the auditor must flag MAP-CAP from bytes alone."""
        from repro.analysis.audit import audit_store

        artifact, _ = _compile_one(
            CompileJob("sor", 4, 4, seed=0, arch="4x4-memcols"), tmp_path
        )
        dfg = get_kernel("sor").build()
        used_mem_ids = {
            r * artifact.cols + c
            for (op_id, r, c, _t) in artifact.placements
            if op_id in dfg.ops
            and op_class(dfg.ops[op_id].opcode) is OpClass.MEM
        }
        assert used_mem_ids
        victim = min(used_mem_ids)
        (cls_name, ids), = artifact.capability
        shrunk = tuple(i for i in ids if i != victim)
        raw = json.loads(artifact.to_json())
        raw["capability"] = [[cls_name, list(shrunk)]]
        mutated = CompiledKernel.from_json_dict(raw)
        root = tmp_path / "audit"
        self._write(root, mutated)
        report = audit_store(root)
        ids_found = {f.rule_id for f in report.findings}
        assert "MAP-CAP" in ids_found, ids_found
        assert report.counts()["corrupt"] == 1


# -- hier backend --------------------------------------------------------------------


HIER_KERNELS = ["sor", "compress", "gsr"]


class TestHierBackend:
    def test_hier_matches_flat_ii(self, tmp_path):
        """The hier ladder's fallback rungs replay the flat ladder, so it
        can never report a worse II than the flat backend."""
        for kernel in HIER_KERNELS:
            flat, _ = _compile_one(
                CompileJob(kernel, 4, 4, seed=0), tmp_path, f"flat-{kernel}"
            )
            hier, _ = _compile_one(
                CompileJob(kernel, 4, 4, seed=0, backend="hier"),
                tmp_path,
                f"hier-{kernel}",
            )
            assert hier.ii_paged == flat.ii_paged, kernel
            assert hier.pages_used == flat.pages_used, kernel

    def test_hier_is_deterministic(self, tmp_path):
        job = CompileJob("compress", 4, 4, seed=0, backend="hier")
        a, _ = _compile_one(job, tmp_path, "a")
        b, _ = _compile_one(job, tmp_path, "b")
        assert a.to_json() == b.to_json()

    def test_hier_serial_equals_portfolio(self, tmp_path):
        """The batch fan-out (whole jobs in worker processes) returns the
        serial ladder's bytes for the hier backend too."""
        jobs = [CompileJob(k, 4, 4, seed=0, backend="hier") for k in HIER_KERNELS]
        serial = ArtifactStore(tmp_path / "serial")
        fanned = ArtifactStore(tmp_path / "fanned")
        compile_many(jobs, store=serial, workers=1)
        compile_many(jobs, store=fanned, workers=2)
        for job in jobs:
            a = serial.path_for(job_key(job)).read_bytes()
            b = fanned.path_for(job_key(job)).read_bytes()
            assert a == b, f"hier parity violation: {job.kernel}"

    def test_hier_on_memcols_8x8(self, tmp_path):
        """The acceptance fabric: hier mapping on the 8x8
        memory-capable-columns preset, capability-legal by construction."""
        job = CompileJob("sor", 8, 4, seed=0, arch="8x8-memcols", backend="hier")
        artifact, _ = _compile_one(job, tmp_path)
        assert not artifact.unmappable
        dfg = get_kernel("sor").build()
        mem_cols = set(mem_columns_for(8))
        for op_id, _r, c, _t in artifact.placements:
            if op_id in dfg.ops and op_class(dfg.ops[op_id].opcode) is OpClass.MEM:
                assert c in mem_cols

    #: ``random_dfg`` draws ``(seed, n_ops)`` that the flat ladder cannot
    #: map on 8x8-memcols ps4 at ``max_ii=10`` and the hier backend's
    #: one-page probe maps on one page, with the II it maps them at
    ONE_PAGE_DRAWS = {(52, 7): 9, (57, 7): 5, (67, 7): 7, (27, 10): 8, (34, 10): 6}

    @pytest.mark.parametrize("draw", sorted(ONE_PAGE_DRAWS))
    def test_one_page_probe_maps_what_flat_cannot(self, draw):
        from repro.compiler.ems import MapperConfig
        from repro.compiler.paged import map_dfg_paged
        from repro.dfg.random_dfg import random_dfg
        from repro.pipeline.compile import make_layout
        from repro.util.errors import LadderExhausted
        from repro.util.spans import collecting

        cgra = preset("8x8-memcols")
        layout = make_layout(cgra, 4)
        dfg = random_dfg(draw[0], n_ops=draw[1])

        def config(backend):
            return MapperConfig(seed=0, attempts_per_ii=4, max_ii=10, backend=backend)

        with pytest.raises(LadderExhausted):
            map_dfg_paged(dfg, cgra, layout, config=config("flat"))
        with collecting() as scope:
            pm = map_dfg_paged(dfg, cgra, layout, config=config("hier"))
        assert (pm.ii, pm.pages_used) == (self.ONE_PAGE_DRAWS[draw], 1)
        assert scope.counters.hier_wins == 1 and scope.counters.hier_flat_wins == 0

    def test_hier_backend_distinct_mapper_fp(self):
        flat = CompileJob("sor", 4, 4, seed=0)
        hier = CompileJob("sor", 4, 4, seed=0, backend="hier")
        assert job_key(flat).mapper_fp != job_key(hier).mapper_fp


# -- fig8-style run on the scaled fabric ---------------------------------------------


def test_fig8_on_8x8_memcols(tmp_path):
    """II-loss study on the heterogeneous 8x8: the paper's Fig. 8 ratio
    table computes on a preset fabric end to end."""
    from repro.bench.fig8 import run_fig8

    rows = run_fig8(
        8,
        page_sizes=[4],
        kernels=["sor", "compress"],
        seed=0,
        store=ArtifactStore(tmp_path / "store"),
        arch="8x8-memcols",
    )
    assert [r.kernel for r in rows] == ["sor", "compress"]
    for row in rows:
        ratio = row.per_page_size[4]
        assert ratio is not None and ratio > 0
        assert row.ii_base >= 1
