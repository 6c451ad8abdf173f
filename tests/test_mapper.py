"""Baseline mapper tests: II quality, validity, determinism, and functional
end-to-end equivalence with the reference interpreter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.cgra import CGRA
from repro.compiler.check import validate_mapping
from repro.compiler.ems import MapperConfig, map_dfg
from repro.compiler.feas import ii_lower_bound
from repro.dfg.analysis import rec_mii
from repro.dfg.builder import DFGBuilder
from repro.kernels import bind_memory, get_kernel
from repro.sim.cgra_sim import simulate
from repro.sim.lowering import lower_mapping
from repro.util.errors import MappingError

FAST_KERNELS = ["mpeg", "sor", "laplace", "wavelet", "swim", "compress"]


@pytest.fixture(scope="module")
def mapped44():
    cgra = CGRA(4, 4, rf_depth=8)
    out = {}
    for name in FAST_KERNELS:
        dfg = get_kernel(name).build()
        out[name] = (dfg, map_dfg(dfg, cgra))
    return cgra, out


class TestMappingQuality:
    def test_all_fast_kernels_map(self, mapped44):
        _, mapped = mapped44
        assert set(mapped) == set(FAST_KERNELS)

    def test_mappings_validate(self, mapped44):
        _, mapped = mapped44
        for name, (dfg, m) in mapped.items():
            validate_mapping(m)

    def test_recurrence_kernels_hit_rec_mii(self, mapped44):
        _, mapped = mapped44
        for name in ("sor", "compress"):
            dfg, m = mapped[name]
            assert m.ii == rec_mii(dfg), name

    def test_ii_at_most_small_multiple_of_mii(self, mapped44):
        cgra, mapped = mapped44
        for name, (dfg, m) in mapped.items():
            bound = ii_lower_bound(
                dfg,
                num_pes=cgra.num_pes,
                mem_slots=cgra.rows * cgra.mem_ports_per_row,
                mem_capable_pes=cgra.num_pes,
                max_ii=MapperConfig().max_ii,
            ).mii
            assert m.ii <= 3 * bound, (name, m.ii, bound)

    def test_deterministic(self):
        cgra = CGRA(4, 4)
        dfg = get_kernel("mpeg").build()
        m1 = map_dfg(dfg, cgra, config=MapperConfig(seed=3))
        m2 = map_dfg(dfg, cgra, config=MapperConfig(seed=3))
        assert m1.ii == m2.ii
        assert m1.placements == m2.placements

    def test_consts_not_placed(self, mapped44):
        _, mapped = mapped44
        for name, (dfg, m) in mapped.items():
            const_ids = {
                op.id for op in dfg.ops.values() if op.opcode.value == "const"
            }
            assert not const_ids & set(m.placements)

    def test_unmappable_raises(self):
        cgra = CGRA(2, 2)
        b = DFGBuilder("too_big")
        x = b.load("in")
        for _ in range(40):
            x = b.add(x, b.load("in2"))
        b.store("out", x)
        dfg = b.build()
        with pytest.raises(MappingError):
            map_dfg(dfg, cgra, config=MapperConfig(max_ii=2))

    def test_empty_dfg_rejected(self):
        from repro.dfg.graph import DFG

        with pytest.raises(MappingError):
            map_dfg(DFG(), CGRA(4, 4))

    @pytest.mark.parametrize(
        "knobs",
        [{"seed": -1}, {"attempts_per_ii": 0}, {"max_ii": 0}],
    )
    def test_config_out_of_range_rejected(self, knobs):
        """A ladder with no width or length, or a perturbation stream with
        a negative seed, is refused when the config is built — not after
        64 empty rungs, or only on kernels whose ladder reaches a
        perturbed attempt."""
        name = next(iter(knobs))
        with pytest.raises(MappingError, match=name):
            MapperConfig(**knobs)

    def test_negative_job_seed_rejected_before_compiling(self):
        """sor wins its ladder before any perturbed attempt, so a negative
        seed used to compile (and store) an artifact."""
        from repro.pipeline.compile import CompileJob, compile_job_stats

        with pytest.raises(MappingError, match="seed"):
            compile_job_stats(CompileJob("sor", 4, 4, seed=-1))


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("name", FAST_KERNELS)
    def test_simulated_output_matches_golden(self, mapped44, name):
        cgra, mapped = mapped44
        spec = get_kernel(name)
        dfg, m = mapped[name]
        _, arrays, expected = spec.fresh(seed=21, trip=24)
        mem = bind_memory(arrays)
        result = simulate(lower_mapping(m, mem, 24), cgra, mem)
        snap = mem.snapshot()
        for arr in expected:
            assert np.array_equal(snap[arr], expected[arr]), arr
        # steady-state timing: total cycles ~ prologue + trip * II
        assert result.cycles == m.schedule_length + (24 - 1) * m.ii

    def test_zero_trip_runs_nothing(self, mapped44):
        cgra, mapped = mapped44
        dfg, m = mapped["laplace"]
        _, arrays, _ = get_kernel("laplace").fresh(seed=0, trip=4)
        mem = bind_memory(arrays)
        res = simulate(lower_mapping(m, mem, 0), cgra, mem)
        assert res.cycles == 0 and res.firings == 0

    def test_register_constraint_depth_one(self, mapped44):
        """Compiled mappings only ever read depth-1 (output registers):
        the §VI-B register-usage constraint leaves rotating files free."""
        cgra, mapped = mapped44
        from repro.sim.lowering import ResolvedRead

        dfg, m = mapped["swim"]
        _, arrays, _ = get_kernel("swim").fresh(seed=0, trip=6)
        mem = bind_memory(arrays)
        for f in lower_mapping(m, mem, 6):
            for src in f.operands:
                if isinstance(src, ResolvedRead):
                    assert f.cycle - src.cycle == 1


class TestLargerArrays:
    @pytest.mark.parametrize("size", [6, 8])
    def test_maps_and_runs_on_larger_cgras(self, size):
        cgra = CGRA(size, size, rf_depth=8)
        spec = get_kernel("mpeg")
        dfg, arrays, expected = spec.fresh(seed=4, trip=12)
        m = map_dfg(dfg, cgra)
        validate_mapping(m)
        mem = bind_memory(arrays)
        simulate(lower_mapping(m, mem, 12), cgra, mem)
        snap = mem.snapshot()
        assert np.array_equal(snap["out"], expected["out"])

    def test_ii_never_worse_on_bigger_array(self):
        dfg = get_kernel("swim").build()
        ii4 = map_dfg(dfg, CGRA(4, 4)).ii
        ii8 = map_dfg(dfg, CGRA(8, 8)).ii
        assert ii8 <= ii4
