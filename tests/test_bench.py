"""Tests for the benchmark harness: measurement, workloads, reporting,
LoC accounting, and the CLI plumbing."""

import numpy as np
import pytest

from repro.bench.cli import EXPERIMENTS, build_parser, main
from repro.bench.loc_count import TABLE4_APPS, count_sleds_lines, table4_reports
from repro.bench.measure import measure_runs, summarize
from repro.bench.report import ExperimentResult
from repro.bench.workloads import (
    BenchConfig,
    fits_workload,
    make_machine,
    plant_needles,
    text_workload,
)
from repro.sim.units import MB, PAGE_SIZE


class TestSummarize:
    def test_single_value(self):
        m = summarize([2.0])
        assert m.mean == 2.0
        assert m.ci90 == 0.0

    def test_constant_sample(self):
        m = summarize([3.0, 3.0, 3.0])
        assert m.ci90 == 0.0

    def test_ci_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        small = summarize(rng.normal(10, 1, 5))
        large = summarize(rng.normal(10, 1, 500))
        assert large.ci90 < small.ci90

    def test_known_interval(self):
        # symmetric sample: mean exact, CI from t-distribution
        m = summarize([1.0, 2.0, 3.0])
        assert m.mean == pytest.approx(2.0)
        assert 1.0 < m.ci90 < 2.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestMeasureRuns:
    def test_warm_runs_discarded(self, unix_machine):
        unix_machine.ext2.create_text_file("f", 32 * PAGE_SIZE, seed=1)
        k = unix_machine.kernel
        calls = []

        def run():
            calls.append(1)
            k.warm_file("/mnt/ext2/f")

        stats = measure_runs(k, run, runs=3, warm_runs=1)
        assert len(calls) == 4
        assert stats.time.n == 3

    def test_cache_state_carries_across_runs(self, unix_machine):
        unix_machine.ext2.create_text_file("f", 32 * PAGE_SIZE, seed=1)
        k = unix_machine.kernel
        stats = measure_runs(
            k, lambda: k.warm_file("/mnt/ext2/f"), runs=3)
        # warm run populated the (large enough) cache: zero faults after
        assert stats.faults.mean == 0.0

    def test_bad_counts_rejected(self, unix_machine):
        with pytest.raises(ValueError):
            measure_runs(unix_machine.kernel, lambda: None, runs=0)


class TestBenchConfig:
    def test_scaled_bytes_linear(self):
        config = BenchConfig(scale=16)
        assert config.scaled_bytes(64) == 4 * MB
        assert config.scaled_bytes(64) * 16 == 64 * MB

    def test_scaled_bytes_page_aligned(self):
        config = BenchConfig(scale=7)
        assert config.scaled_bytes(10) % PAGE_SIZE == 0

    def test_to_paper_seconds(self):
        config = BenchConfig(scale=16)
        assert config.to_paper_seconds(2.0) == 32.0

    def test_cache_pages_scales(self):
        assert (BenchConfig(scale=1).cache_pages()
                == 16 * BenchConfig(scale=16).cache_pages())


class TestWorkloads:
    def test_text_workload(self):
        config = BenchConfig(scale=64, runs=2)
        workload = text_workload(config, 32, "/mnt/ext2")
        assert workload.size == config.scaled_bytes(32)
        st = workload.kernel.stat(workload.path)
        assert st.size == workload.size

    def test_make_machine_profiles(self):
        config = BenchConfig(scale=64)
        for profile in ("unix", "lheasoft", "hsm"):
            machine = make_machine(config, profile=profile)
            assert machine.booted
        with pytest.raises(ValueError):
            make_machine(config, profile="vax")

    def test_plant_needles_disjoint(self):
        rng = np.random.default_rng(1)
        config = BenchConfig()
        plants = plant_needles(config, 100_000, 20, rng)
        offsets = sorted(plants)
        assert len(plants) == 20
        for a, b in zip(offsets, offsets[1:]):
            assert b - a >= len(plants[a])

    def test_fits_workload_openable(self):
        from repro.fits.cfitsio import open_image
        config = BenchConfig(scale=64, runs=2)
        workload = fits_workload(config, 16)
        k = workload.kernel
        fd = k.open(workload.path)
        info = open_image(k, fd, workload.path)
        assert info.element_count > 0
        k.close(fd)


class TestReport:
    def test_row_arity_enforced(self):
        result = ExperimentResult("x", "t", columns=["a", "b"])
        with pytest.raises(ValueError):
            result.add_row(1)

    def test_column_extraction(self):
        result = ExperimentResult("x", "t", columns=["a", "b"])
        result.add_row(1, 2)
        result.add_row(3, 4)
        assert result.column("b") == [2, 4]

    def test_text_rendering(self):
        result = ExperimentResult("fig9", "demo", columns=["MB", "faults"],
                                  paper_expectation="rises sharply")
        result.add_row(64, 12345)
        text = result.to_text()
        assert "fig9" in text
        assert "rises sharply" in text
        assert "12345" in text

    def test_csv_rendering(self):
        result = ExperimentResult("x", "t", columns=["a", "b"])
        result.add_row(1, 2.5)
        assert result.to_csv().splitlines() == ["a,b", "1,2.5"]


class TestLocCount:
    def test_counts_sleds_functions(self):
        source = (
            "def plain():\n"
            "    return 1\n"
            "\n"
            "def _wc_sleds(x):\n"
            "    y = x + 1\n"
            "    return y\n"
        )
        total, sleds = count_sleds_lines(source)
        assert total == 5  # the blank line is not code
        assert sleds == 3

    def test_counts_api_references_outside_functions(self):
        source = "from repro.core.pick import sleds_pick_init\nx = 1\n"
        total, sleds = count_sleds_lines(source)
        assert total == 2
        assert sleds == 1

    def test_table4_covers_all_apps(self):
        reports = table4_reports()
        assert {r.application for r in reports} == set(TABLE4_APPS)
        for report in reports:
            assert 0 < report.sleds_lines <= report.total_lines

    def test_grep_most_modified(self):
        """The paper's ordering claim: grep needed the most change."""
        reports = {r.application: r for r in table4_reports()}
        assert reports["grep"].sleds_lines >= reports["wc"].sleds_lines
        assert reports["grep"].sleds_lines >= reports["find"].sleds_lines
        assert reports["grep"].sleds_lines >= reports["gmc"].sleds_lines


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for exp_id in EXPERIMENTS:
            assert exp_id in out

    def test_unknown_experiment(self, capsys):
        assert main(["--run", "fig99"]) == 2

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.runs == 12
        assert args.scale == 16

    def test_run_quick_experiment(self, capsys, tmp_path):
        code = main(["--run", "fig3", "--csv-dir", str(tmp_path)])
        assert code == 0
        assert "fig3" in capsys.readouterr().out
        assert (tmp_path / "fig3.csv").exists()

    def test_every_experiment_is_described(self):
        from repro.bench.cli import DESCRIPTIONS
        assert set(DESCRIPTIONS) == set(EXPERIMENTS)


class TestCliChart:
    def test_chart_flag_renders(self, capsys):
        assert main(["--run", "fig3", "--chart"]) == 0
        out = capsys.readouterr().out
        # fig3 has no numeric series beyond pass/block; the chart path
        # must degrade gracefully rather than crash
        assert "fig3" in out

    def test_chart_with_numeric_experiment(self, capsys):
        assert main(["--run", "table4", "--chart"]) == 0
        assert "table4" in capsys.readouterr().out
