"""Soundness tests for the II feasibility prover.

The prover's contract is one-sided: the bound may only rule out IIs at
which **no** mapping exists.  Every test here attacks that direction —
real mappings (the full kernel suite, plus every committed artifact) are
replayed against the bound, and none of them may ever be rejected.  The
page-need bound gets the same treatment.  The last class pins the backend
set and the mapper fingerprints the committed artifacts are addressed by.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cgra import CGRA
from repro.arch.presets import preset
from repro.compiler.constraints import page_need
from repro.compiler.ems import BACKENDS, EMSMapper, MapperConfig, map_dfg
from repro.compiler.feas import ii_lower_bound
from repro.compiler.paged import map_dfg_paged
from repro.core.paging import PageLayout
from repro.dfg.graph import DFG
from repro.dfg.random_dfg import random_dfg
from repro.kernels import get_kernel, kernel_names
from repro.util.errors import LadderExhausted, MappingError

REPO_STORE = Path(__file__).resolve().parents[1] / ".repro_artifacts"


def base_bound(dfg, cgra):
    return ii_lower_bound(
        dfg,
        num_pes=cgra.num_pes,
        mem_slots=cgra.rows * cgra.mem_ports_per_row,
        mem_capable_pes=cgra.num_pes,
        max_ii=MapperConfig().max_ii,
    )


# ---------------------------------------------------------------- the bound


class TestIIBound:
    def test_ladder_starts_at_the_bound(self):
        """Every backend's first rung is ii_lower_bound — the dedup that
        keeps flat and hier from drifting apart."""
        cgra = CGRA(4, 4)
        mapper = EMSMapper(cgra)
        for name in kernel_names():
            dfg = get_kernel(name).build()
            assert mapper.ladder_rungs(dfg)[0] == base_bound(dfg, cgra).mii

    def test_bound_never_exceeds_achieved_ii(self):
        """Soundness over the whole suite: the mapper actually lands on an
        II, so the provable lower bound must sit at or below it."""
        cgra = CGRA(4, 4)
        for name in kernel_names():
            dfg = get_kernel(name).build()
            mapping = map_dfg(dfg, cgra)
            assert base_bound(dfg, cgra).mii <= mapping.ii, name

    def test_binding_names_a_maximal_term(self):
        for name in kernel_names():
            bound = base_bound(get_kernel(name).build(), CGRA(4, 4))
            assert getattr(bound, bound.binding()) == bound.mii

    def test_mem_capability_term(self):
        """A fabric with a single mem-capable PE floors the II at the
        memory-op count, whatever the grid size."""
        dfg = get_kernel("compress").build()
        n_mem = dfg.num_memory_ops
        assert n_mem > 1
        bound = ii_lower_bound(
            dfg, num_pes=64, mem_slots=64, mem_capable_pes=1, max_ii=64
        )
        assert bound.mem_cap_mii == n_mem
        assert bound.mii >= n_mem

    def test_empty_dfg_raises(self):
        with pytest.raises(MappingError, match="no materialized ops"):
            ii_lower_bound(
                DFG("empty"), num_pes=4, mem_slots=1, mem_capable_pes=4, max_ii=8
            )

    def test_overfull_dfg_raises(self):
        dfg = get_kernel("yuv2rgb").build()
        with pytest.raises(LadderExhausted, match="can never fit"):
            ii_lower_bound(
                dfg, num_pes=1, mem_slots=1, mem_capable_pes=1, max_ii=1
            )

    def test_memory_without_capability_raises(self):
        dfg = get_kernel("compress").build()
        with pytest.raises(LadderExhausted, match="mem-capable PE"):
            ii_lower_bound(
                dfg, num_pes=16, mem_slots=4, mem_capable_pes=0, max_ii=32
            )


class TestCommittedStore:
    """Replay the prover against every committed artifact: an II that a
    mapper actually achieved (and that recompile-bytes pins) must never
    sit below the bound: the base II (unmappable artifacts included) is
    the MAP-MII audit rule's property, and the paged II is bounded on the
    stored prefix, the first ``pages_used`` chain pages."""

    @pytest.mark.skipif(
        not REPO_STORE.is_dir(), reason="committed artifact store not present"
    )
    def test_no_committed_ii_beats_the_bound(self):
        from repro.analysis.audit import AuditEntry, _audit_mii
        from repro.pipeline.artifact import CompiledKernel
        from repro.pipeline.store import ArtifactStore

        checked = 0
        for path, is_artifact in ArtifactStore(REPO_STORE).walk():
            if not is_artifact:
                continue
            artifact = CompiledKernel.from_json_dict(json.loads(path.read_bytes()))
            dfg = get_kernel(artifact.kernel).build()
            entry = AuditEntry(path=path.name, status="ok")
            _audit_mii(entry, artifact, dfg)
            assert entry.findings == [], [f.render() for f in entry.findings]
            checked += 1
            if artifact.unmappable:
                continue
            cgra = artifact.build_cgra()
            layout = PageLayout(cgra, artifact.page_shape)
            pes = artifact.pages_used * layout.shape[0] * layout.shape[1]
            bound = ii_lower_bound(
                dfg,
                num_pes=pes,
                mem_slots=artifact.pages_used * layout.shape[0] * cgra.mem_ports_per_row,
                mem_capable_pes=pes,
                max_ii=artifact.ii_paged,
            )
            assert artifact.ii_paged >= bound.mii, path.name
        assert checked > 50

    @pytest.mark.skipif(
        not REPO_STORE.is_dir(), reason="committed artifact store not present"
    )
    def test_every_committed_winner_sits_under_the_ceiling(self):
        """The traffic the II ceiling was set from: every committed mapping
        won on the chain, at least 2 rungs below the last rung of its paged
        ladder.  A ceiling change that would cut a committed winner fails
        here, not in the recompile step."""
        from repro.compiler.ems import EMSMapper
        from repro.core.paging import PageLayout
        from repro.pipeline.artifact import CompiledKernel
        from repro.pipeline.store import ArtifactStore

        mappers: dict[tuple, EMSMapper] = {}
        headroom = {}
        for path, is_artifact in ArtifactStore(REPO_STORE).walk():
            if not is_artifact:
                continue
            artifact = CompiledKernel.from_json_dict(json.loads(path.read_bytes()))
            if artifact.unmappable:
                continue
            assert artifact.layout_wrap is False, path.name
            geometry = (artifact.rows, tuple(artifact.page_shape))
            if geometry not in mappers:
                cgra = artifact.build_cgra()
                layout = PageLayout(cgra, tuple(artifact.page_shape))
                mappers[geometry] = EMSMapper(cgra, layout)
            dfg = get_kernel(artifact.kernel).build()
            _first, last = mappers[geometry].ladder_rungs(dfg)
            headroom[path.name] = last - artifact.ii_paged
        assert len(headroom) > 50
        assert min(headroom.values()) >= 2, min(headroom.items(), key=lambda kv: kv[1])

    @pytest.mark.skipif(
        not REPO_STORE.is_dir(), reason="committed artifact store not present"
    )
    def test_no_committed_page_need_beats_the_bound(self):
        """The page-need bound is sound on the store: no committed mapping
        sits on fewer chain pages than its paged II needs by capacity."""
        from repro.pipeline.artifact import CompiledKernel
        from repro.pipeline.store import ArtifactStore

        checked = 0
        for path, is_artifact in ArtifactStore(REPO_STORE).walk():
            if not is_artifact:
                continue
            artifact = CompiledKernel.from_json_dict(json.loads(path.read_bytes()))
            if artifact.unmappable:
                continue
            layout = PageLayout(artifact.build_cgra(), tuple(artifact.page_shape))
            dfg = get_kernel(artifact.kernel).build()
            need = page_need(dfg, layout, artifact.ii_paged)
            assert artifact.pages_used >= need, path.name
            checked += 1
        assert checked > 50

    @pytest.mark.skipif(
        not REPO_STORE.is_dir(), reason="committed artifact store not present"
    )
    def test_every_committed_page_need_is_its_span(self):
        """The stored page need is read off the mapping: every mapped
        artifact touches its last stored page and none past it."""
        assert page_span_problems(REPO_STORE) == []


def page_span_problems(root) -> list[str]:
    """Every mapped artifact of the store at *root* whose ``pages_used`` is
    not ``1 +`` the highest chain page any placement or route step
    touches; raises if the store holds fewer than 20 mapped artifacts."""
    from repro.pipeline.artifact import CompiledKernel
    from repro.pipeline.store import ArtifactStore

    problems, checked = [], 0
    for path, is_artifact in ArtifactStore(root).walk():
        if not is_artifact:
            continue
        artifact = CompiledKernel.from_json_dict(json.loads(path.read_bytes()))
        if artifact.unmappable:
            continue
        layout = PageLayout(artifact.build_cgra(), tuple(artifact.page_shape))
        page_of = {(pe.row, pe.col): n for pe, n in layout.page_of.items()}
        touched = [page_of[r, c] for _op, r, c, _t in artifact.placements]
        touched += [
            page_of[r, c] for _e, steps, _tap in artifact.routes for r, c, _t in steps
        ]
        if artifact.pages_used != 1 + max(touched):
            problems.append(
                f"{artifact.kernel} {artifact.rows}x{artifact.cols} "
                f"ps{artifact.page_shape[0] * artifact.page_shape[1]}: stores "
                f"{artifact.pages_used} pages, touches {1 + max(touched)}"
            )
        checked += 1
    assert checked >= 20, checked
    return problems


@given(seed=st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_flat_page_need_never_beats_the_bound(seed):
    """The flat mapper's page need on a heterogeneous fabric (half of the
    4x4-memcols column pages have no mem-capable PE) never lies below the
    bound."""
    cgra = preset("4x4-memcols")
    layout = PageLayout(cgra, (2, 1))
    dfg = random_dfg(seed, n_ops=6)
    try:
        pm = map_dfg_paged(
            dfg, cgra, layout, config=MapperConfig(max_ii=8, attempts_per_ii=2)
        )
    except MappingError:
        return
    assert pm.pages_used >= page_need(dfg, pm.full_layout, pm.ii)


# ------------------------------------------------------------- backend set


class TestBackendSet:
    def test_backends_are_flat_and_hier(self):
        assert BACKENDS == ("flat", "hier")
        for backend in BACKENDS:
            assert MapperConfig(backend=backend).backend == backend

    @pytest.mark.parametrize("backend", ["exact", "smt"])
    def test_unknown_backend_is_a_mapping_error(self, backend):
        with pytest.raises(MappingError, match="flat, hier"):
            MapperConfig(backend=backend)

    def test_fingerprints_are_unchanged(self):
        """The committed artifacts are addressed by these: the default
        backend stays out of the hashed payload, ``hier`` stays in."""
        cfg = MapperConfig(seed=0, attempts_per_ii=4)
        assert cfg.fingerprint() == "41bca46230905c8e"
        hier = MapperConfig(seed=0, attempts_per_ii=4, backend="hier")
        assert hier.fingerprint() == "385d22a173c42830"
