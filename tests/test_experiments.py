"""Shape tests for the experiment runners, at tiny scale.

These assert the *qualitative* claims of each paper figure (who wins,
where the crossover falls) using small configs so the whole file runs in
seconds; the full-resolution regeneration lives in ``benchmarks/`` and the
CLI.
"""

from repro.bench import ablations, experiments
from repro.bench.workloads import BenchConfig

#: tiny-but-meaningful config: cache = 42/64 MB ~ 168 pages
TINY = BenchConfig(scale=64, runs=3, noise=0.02)
SIZES_SMALL = (16, 32)     # below cache
SIZES_LARGE = (64, 96)     # above cache
SIZES_MIX = SIZES_SMALL + SIZES_LARGE


class TestTables:
    def test_table2_rows(self):
        result = experiments.run_table2(TINY)
        assert set(result.column("level")) == {
            "memory", "ext2", "iso9660", "nfs"}

    def test_table3_rows(self):
        result = experiments.run_table3(TINY)
        assert set(result.column("level")) == {"memory", "ext2"}

    def test_table4_rows(self):
        result = experiments.run_table4(TINY)
        apps = result.column("application")
        assert "grep" in apps and "fimgbin" in apps


class TestFig3:
    def test_pathology_demonstrated(self):
        result = experiments.run_fig3(TINY)
        second_pass = [row for row in result.rows if row[0] == 2]
        assert all(row[3] == "FAULT" for row in second_pass)
        assert "SLEDs order = 2/5" in result.notes[0]


class TestWcSweeps:
    def test_fig7_crossover_at_cache_size(self):
        result = experiments.run_fig7(TINY, sizes_mb=SIZES_MIX)
        speedups = dict(zip(result.column("MB"), result.column("speedup")))
        # below the cache: no real benefit; above: SLEDs wins clearly
        assert speedups[16] < 1.3
        assert speedups[64] > 1.5
        assert speedups[96] > 1.3

    def test_fig8_derived_from_same_sweep(self):
        fig7 = experiments.run_fig7(TINY, sizes_mb=SIZES_MIX)
        fig8 = experiments.run_fig8(TINY, sizes_mb=SIZES_MIX)
        assert fig8.column("speedup") == fig7.column("speedup")

    def test_fig9_fault_reduction_above_cache(self):
        result = experiments.run_fig9(TINY, sizes_mb=SIZES_MIX)
        rows = {row[0]: row for row in result.rows}
        assert rows[16][1] == 0          # fully cached: no faults at all
        assert rows[96][1] > 0
        assert rows[96][3] > 25          # >25% fault reduction with SLEDs


class TestGrepSweeps:
    def test_fig10_constant_gain_above_cache(self):
        result = experiments.run_fig10(TINY, sizes_mb=(24, 64, 96))
        gains = dict(zip(result.column("MB"), result.column("gain s")))
        assert gains[24] <= 0.5          # CPU overhead below cache size
        assert gains[64] > 1.0
        # the gain is roughly constant (cache fill time), not growing
        assert abs(gains[96] - gains[64]) < 0.7 * max(gains[64], 1e-9)

    def test_fig11_with_sleds_stabler(self):
        result = experiments.run_fig11(TINY, sizes_mb=(96,))
        row = result.rows[0]
        without_mean, without_ci = row[1], row[2]
        with_mean, with_ci = row[3], row[4]
        assert with_mean < without_mean

    def test_fig12_speedup_above_one_past_cache(self):
        result = experiments.run_fig12(TINY, sizes_mb=(96,))
        assert result.column("speedup")[0] > 1.0

    def test_fig13_cdf_separation(self):
        result = experiments.run_fig13(TINY, paper_mb=64, trials=12)
        med = [row for row in result.rows if row[0] == 50][0]
        assert med[2] < med[1]  # with-SLEDs median much lower


class TestLheaSweeps:
    def test_fig14_gains_above_cache(self):
        result = experiments.run_fig14(TINY, sizes_mb=(16, 64))
        rows = {row[0]: row for row in result.rows}
        assert abs(rows[16][5]) < 5       # below cache: no time gain
        assert rows[64][5] > 8            # above: >8% elapsed-time gain
        assert rows[64][6] > 20           # and >20% fewer faults

    def test_fig15_sixteen_x_beats_four_x(self):
        result = experiments.run_fig15(TINY, sizes_mb=(64,))
        gains = {row[1]: row[4] for row in result.rows}
        assert gains[16] >= gains[4] > 0


class TestExtensions:
    def test_extA_hsm_speedup(self):
        result = ablations.run_extA(TINY, paper_mb=64)
        t_without = result.rows[0][1]
        t_with = result.rows[1][1]
        assert t_with < t_without

    def test_extB_covers_policies(self):
        result = ablations.run_extB(TINY, sizes_mb=(64,))
        assert set(result.column("policy")) == {"lru", "clock", "2q"}

    def test_extC_sweeps_refresh_cadence(self):
        result = ablations.run_extC(TINY, paper_mb=96)
        assert result.column("refresh every") == ["init only", 8, 32]
        assert all(pages > 0 for pages in result.column("device pages"))

    def test_pick_order_ablation(self):
        result = ablations.run_abl_pick_order(TINY, paper_mb=64)
        times = dict(zip(result.column("order"),
                         result.column("time s (paper-eq)")))
        assert times["sleds"] < times["linear"]
        pages = dict(zip(result.column("order"),
                         result.column("device pages")))
        assert pages["sleds"] < pages["linear"]

    def test_readahead_ablation_monotone(self):
        result = ablations.run_abl_readahead(TINY, paper_mb=32)
        times = result.column("time s (paper-eq)")
        assert times[0] > times[-1]  # 1-page clusters slowest


class TestNewExtensions:
    def test_extD_columns(self):
        result = ablations.run_extD(TINY)
        assert len(result.rows) == 4
        assert set(result.column("table")) == {"per-device", "per-zone"}

    def test_extF_flash_rows(self):
        result = ablations.run_extF(TINY, sizes_mb=(64,))
        devices = result.column("device")
        assert devices == ["disk", "flash"]
        speedups = dict(zip(devices, result.column("speedup")))
        # the disk-era win shrinks (or vanishes) on flash
        assert speedups["flash"] < speedups["disk"]

    def test_extG_hsm_dynamic_skew(self):
        result = ablations.run_extG(TINY, paper_mb=32)
        hsm_rows = [row for row in result.rows if row[0] == "hsm"]
        early = hsm_rows[0]
        # at 10% progress the dynamic estimator is skewed far worse than
        # the SLEDs estimate (the tape mount dominates the observed rate)
        assert early[2] != "-"
        assert early[2] > 3 * early[3]

    def test_abl_scheduler_elevator_wins(self):
        result = ablations.run_abl_scheduler(TINY, nfiles=24)
        times = dict(zip(result.column("scheduler"),
                         result.column("sync s (paper-eq)")))
        assert times["clook"] < times["fcfs"]
        assert times["sstf"] < times["fcfs"]

    def test_abl_fragmentation_rows(self):
        result = ablations.run_abl_fragmentation(TINY, paper_mb=64)
        speedups = dict(zip(result.column("layout"),
                            result.column("speedup")))
        # SLEDs wins on both layouts (the avoided I/O is pricier when
        # fragmented, so the aged win is at least comparable)
        assert speedups["clean"] > 1.1
        assert speedups["aged"] > 1.1

    def test_abl_aio_thrashes(self):
        result = ablations.run_abl_aio(TINY, paper_mb=64)
        times = dict(zip(result.column("approach"),
                         result.column("time s (paper-eq)")))
        assert times["SLEDs pick order"] < times["AIO, file-order consumer"]

    def test_extH_better_citizen(self):
        result = ablations.run_extH(TINY)
        pages = dict(zip(result.column("mode"),
                         result.column("total device pages")))
        assert pages["with SLEDs"] < pages["without"]

    def test_extI_fileset_batching(self):
        result = ablations.run_extI(TINY, nfiles=4, paper_mb=4)
        exchanges = dict(zip(result.column("order"),
                             result.column("cartridge exchanges")))
        assert exchanges["sleds order"] < exchanges["name order"]

    def test_extJ_anecdote(self):
        result = ablations.run_extJ(TINY, nfiles=4, paper_mb=2, trials=4)
        pages = dict(zip(result.column("strategy"),
                         result.column("device pages")))
        assert pages["cached-first"] == 0
        assert pages["naive rescan"] > 0
