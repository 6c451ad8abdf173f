"""Tests for the experiment harness itself (artifact cache, figure drivers,
CLI registry) — using a small kernel subset so they stay fast."""

from __future__ import annotations

import json

import pytest

from repro.arch.cgra import CGRA
from repro.bench.experiments import EXPERIMENTS
from repro.bench.fig8 import page_sizes_for, render_fig8, run_fig8
from repro.bench.fig9 import best_improvement, render_fig9, run_fig9
from repro.pipeline import (
    ARTIFACT_VERSION,
    ArtifactStore,
    CompileJob,
    build_profiles,
    compile_kernel,
    job_key,
    make_layout,
)

FAST = ["sor", "laplace", "wavelet"]


@pytest.fixture()
def tmp_store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


class TestArtifactCache:
    def test_miss_then_hit(self, tmp_store):
        a1 = compile_kernel("sor", 4, 4, store=tmp_store)
        a2 = compile_kernel("sor", 4, 4, store=tmp_store)
        assert a1 == a2
        assert tmp_store.stats()["misses"] == 1
        assert tmp_store.stats()["hits"] == 1
        path = tmp_store.path_for(a1.key)
        assert path.exists()
        assert json.loads(path.read_text())["version"] == ARTIFACT_VERSION

    def test_cache_survives_reload(self, tmp_store):
        compile_kernel("sor", 4, 4, store=tmp_store)
        fresh = ArtifactStore(tmp_store.root)
        key = job_key(CompileJob("sor", 4, 4))
        assert fresh.get(key) is not None
        assert fresh.hits == 1

    def test_version_mismatch_discards(self, tmp_store, caplog):
        compile_kernel("sor", 4, 4, store=tmp_store)
        key = job_key(CompileJob("sor", 4, 4))
        path = tmp_store.path_for(key)
        raw = json.loads(path.read_text())
        raw["version"] = -1
        path.write_text(json.dumps(raw))
        fresh = ArtifactStore(tmp_store.root)
        with caplog.at_level("WARNING", logger="repro.pipeline.store"):
            assert fresh.get(key) is None
        assert fresh.misses == 1
        assert any("incompatible" in r.message for r in caplog.records)

    def test_corrupt_cache_tolerated_and_logged(self, tmp_store, caplog):
        key = job_key(CompileJob("sor", 4, 4))
        path = tmp_store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        with caplog.at_level("WARNING", logger="repro.pipeline.store"):
            assert tmp_store.get(key) is None
        assert any("unreadable" in r.message for r in caplog.records)

    def test_profile_fields(self, tmp_store):
        p = compile_kernel("sor", 4, 4, store=tmp_store).profile()
        assert p.name == "sor"
        assert p.ii_base >= 1 and p.ii_paged >= 1
        assert p.pages_used >= 1

    def test_build_profiles_subset(self, tmp_store):
        profs = build_profiles(4, 4, store=tmp_store, kernels=FAST)
        assert set(profs) == set(FAST)


class TestFigureDrivers:
    def test_page_sizes_per_paper(self):
        assert page_sizes_for(4) == [2, 4]
        assert page_sizes_for(6) == [2, 4, 8]
        assert page_sizes_for(8) == [2, 4, 8]

    def test_fig8_rows_and_render(self, tmp_store):
        rows = run_fig8(4, page_sizes=[4], store=tmp_store, kernels=FAST)
        assert len(rows) == len(FAST)
        text = render_fig8(4, rows)
        assert "sor" in text and "average" in text

    def test_fig9_cells_and_render(self, tmp_store):
        cells = run_fig9(
            4,
            4,
            store=tmp_store,
            kernels=FAST,
            repeats=1,
            thread_counts=(1, 4),
            needs=(0.5,),
        )
        assert len(cells) == 2
        text = render_fig9(4, 4, cells)
        assert "threads" in text
        four = next(c for c in cells if c.n_threads == 4)
        one = next(c for c in cells if c.n_threads == 1)
        assert four.improvement > one.improvement
        assert best_improvement(cells) == max(c.improvement for c in cells)

    def test_fig9_empty_without_kernels(self, tmp_store):
        assert run_fig9(4, 4, store=tmp_store, kernels=[]) == []

    def test_make_layout_square(self):
        lay = make_layout(CGRA(4, 4), 4)
        assert lay.shape == (2, 2)


class TestRegistry:
    def test_all_experiments_named(self):
        for name in (
            "fig8_4x4",
            "fig8_6x6",
            "fig8_8x8",
            "fig9_4x4",
            "fig9_6x6",
            "fig9_8x8",
            "headline",
        ):
            assert name in EXPERIMENTS

    def test_run_experiment_uses_shared_cache(self, capsys):
        # the repo-level artifact store is warm (committed), so this is fast
        from repro.bench.experiments import main

        assert main(["fig8_4x4"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 8" in out and " 0 miss(es)" in out
        # sobel at page size 2 is stored unmappable: its cell reads n/a
        assert any(
            line.split()[:3] == ["sobel", "4", "n/a"] for line in out.splitlines()
        )


class TestCLI:
    def test_list(self, capsys):
        from repro.bench.experiments import main

        assert main(["list"]) == 0
        # the paper registry plus the simulator's differential check
        assert capsys.readouterr().out.split() == [*EXPERIMENTS, "sim-oracle"]

    def test_single_fig9_experiment(self, capsys):
        from repro.bench.experiments import main

        assert main(["fig9_4x4"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 9" in out
        assert "[cache]" in out  # hit/miss counters are reported

    @pytest.mark.parametrize(
        "argv,grid",
        [
            (["fig9_4x4", "--page-size", "5"], "4x4"),
            (["fig9_6x6", "--page-size", "11"], "6x6"),
            (["fig9_8x8", "--page-size", "65"], "8x8"),
            (["all", "--page-size", "7"], "4x4"),
        ],
    )
    def test_page_size_without_a_tile_is_a_usage_error(
        self, argv, grid, capsys, monkeypatch
    ):
        """A page size no tile of the panel's grid holds is an argparse
        usage error naming the grid, raised before the store is opened, not
        an ``ArchitectureError`` traceback after the compiles."""
        from repro.bench import experiments

        def no_store(*_args, **_kwargs):
            raise AssertionError("the store was opened")

        monkeypatch.setattr(experiments, "ArtifactStore", no_store)
        with pytest.raises(SystemExit) as exc:
            experiments.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        ps = argv[2]
        assert f"--page-size {ps}: no {ps}-PE tile fits a {grid} grid" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "experiment", ["fig8_4x4", "fig8_6x6", "fig8_8x8", "headline", "sim-oracle"]
    )
    def test_page_size_outside_fig9_is_a_usage_error(
        self, experiment, capsys, monkeypatch
    ):
        """fig8 sweeps the paper's page sizes and headline takes the best of
        them, so neither reads ``--page-size``: passing it is an argparse
        usage error before the store is opened, not a silent no-op."""
        from repro.bench import experiments

        def no_store(*_args, **_kwargs):
            raise AssertionError("the store was opened")

        monkeypatch.setattr(experiments, "ArtifactStore", no_store)
        with pytest.raises(SystemExit) as exc:
            experiments.main([experiment, "--page-size", "5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert (
            f"--page-size applies to the fig9 experiments only, not {experiment}"
            in captured.err
        )
        assert captured.out == ""

    def test_fig9_page_size_defaults_to_four(self, monkeypatch):
        from repro.bench import experiments

        seen = []
        monkeypatch.setitem(
            experiments.EXPERIMENTS, "fig9_4x4", lambda store, args: seen.append(args.page_size) or ""
        )
        assert experiments.main(["fig9_4x4"]) == 0
        assert seen == [4]

    @pytest.mark.parametrize(
        "arg",
        [
            "--label=x", "--out=x.json", "--dry-run", "--json=x.json",
            # flags only the deleted report-only commands read
            "--smoke", "--size=4", "--kernels=sor", "--page-sizes=2",
            "--arch=4x4-memcols", "--backend=hier", "--requests=8",
            "--clients=2", "--slots=2",
            # the deleted commands themselves
            "compile-speed", "policies", "serve", "analysis",
        ],
    )
    def test_bench_file_flags_are_gone(self, arg):
        from repro.bench.experiments import main

        argv = ["list", arg] if arg.startswith("--") else [arg]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig9_4x4", "--repeats", "0"],
            ["headline", "--repeats", "-1"],
            ["sim-oracle", "--configs", "0"],
            ["sim-oracle", "--configs", "-3"],
            ["fig9_4x4", "--page-size", "0"],
            ["fig9_4x4", "--page-size", "-2"],
            ["fig8_4x4", "--workers", "0"],
            ["fig8_4x4", "--workers", "-1"],
        ],
    )
    def test_empty_counts_are_usage_errors(self, argv, capsys):
        """A repeat, config, page-size or worker count below one is an
        argparse usage error, not a ``StatisticsError`` over no samples, an
        "all green" over nothing verified, an ``ArchitectureError``
        traceback or a silent fallback to the default."""
        from repro.bench.experiments import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"{argv[1]} must be >= 1, got {argv[2]}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("experiment", ["fig8_4x4", "sim-oracle"])
    def test_negative_seed_is_a_usage_error(self, experiment, capsys):
        """A negative ``--seed`` is an argparse usage error, not a numpy
        traceback out of the workload generator or the mapper."""
        from repro.bench.experiments import main

        with pytest.raises(SystemExit) as exc:
            main([experiment, "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--seed must be >= 0, got -1" in captured.err
        assert captured.out == ""
