"""Experiment runners: one per table/figure of the paper's evaluation.

Each runner takes a :class:`~repro.bench.workloads.BenchConfig` and
returns an :class:`~repro.bench.report.ExperimentResult` whose rows mirror
the paper's plot series.  Times are reported in *paper-equivalent seconds*
(virtual seconds × scale; see workloads module) next to the raw virtual
measurement; page-fault counts are likewise scaled.  Expensive sweeps are
memoised per config so derived figures (8 from 7, 12 from 11) don't rerun.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.apps.grep import grep
from repro.apps.wc import wc
from repro.bench.loc_count import table4_reports
from repro.bench.measure import RunStats, measure_runs, summarize
from repro.bench.report import ExperimentResult
from repro.bench.workloads import (
    NEEDLE,
    BenchConfig,
    fits_workload,
    make_machine,
    plant_needles,
    text_workload,
)
from repro.cache.page_cache import PageCache
from repro.lhea.fimgbin import fimgbin
from repro.lhea.fimhisto import fimhisto
from repro.sim.units import MB

# ---------------------------------------------------------------------------
# Tables 2 and 3: device characterisation
# ---------------------------------------------------------------------------

#: paper Table 2 rows: level -> (latency seconds, bandwidth MB/s)
PAPER_TABLE2 = {
    "memory": (175e-9, 48.0),
    "ext2": (18e-3, 9.0),
    "iso9660": (130e-3, 2.8),
    "nfs": (270e-3, 1.0),
}
PAPER_TABLE3 = {
    "memory": (210e-9, 87.0),
    "ext2": (16.5e-3, 7.0),
}


def _device_table(config: BenchConfig, profile: str,
                  paper: dict[str, tuple[float, float]],
                  exp_id: str, title: str) -> ExperimentResult:
    machine = make_machine(config, profile=profile)
    entries = machine.boot()
    result = ExperimentResult(
        exp_id=exp_id, title=title,
        columns=["level", "latency", "paper latency",
                 "bandwidth MB/s", "paper MB/s"],
        paper_expectation="measured levels within ~15% of the paper's rows",
    )
    for key in sorted(entries):
        if key == "rootfs":
            continue
        latency, bandwidth = entries[key]
        paper_lat, paper_bw = paper.get(key, (float("nan"), float("nan")))
        result.add_row(key, _lat_str(latency), _lat_str(paper_lat),
                       round(bandwidth / MB, 2), paper_bw)
    result.notes.append(
        "filled into the kernel sleds table via FSLEDS_FILL at boot")
    return result


def _lat_str(latency: float) -> str:
    if latency != latency:  # NaN
        return "-"
    if latency >= 1e-3:
        return f"{latency * 1e3:.1f} ms"
    if latency >= 1e-6:
        return f"{latency * 1e6:.1f} us"
    return f"{latency * 1e9:.0f} ns"


def run_table2(config: BenchConfig) -> ExperimentResult:
    """Table 2: storage levels of the Unix-utility machine."""
    return _device_table(config, "unix", PAPER_TABLE2, "table2",
                         "Storage levels used for measuring Unix utilities")


def run_table3(config: BenchConfig) -> ExperimentResult:
    """Table 3: storage levels of the LHEASOFT machine."""
    return _device_table(config, "lheasoft", PAPER_TABLE3, "table3",
                         "Storage levels used for measuring LHEASOFT")


# ---------------------------------------------------------------------------
# Table 4: lines of code modified
# ---------------------------------------------------------------------------

def run_table4(config: BenchConfig) -> ExperimentResult:
    """Table 4: SLEDs-specific lines per ported application."""
    result = ExperimentResult(
        exp_id="table4", title="Lines of code modified",
        columns=["application", "sleds lines (ours)", "total (ours)",
                 "paper modified", "paper total"],
        paper_expectation=(
            "grep needed the most change (560 lines: buffered, sorted "
            "output); wc/find/gmc/LHEASOFT tools are small adaptations"),
    )
    for report in table4_reports():
        result.add_row(report.application, report.sleds_lines,
                       report.total_lines, report.paper_modified,
                       report.paper_total)
    result.notes.append(
        "our counts are Python reimplementations, not patches; compare "
        "orderings, not magnitudes")
    return result


# ---------------------------------------------------------------------------
# Figure 3: two linear passes under LRU
# ---------------------------------------------------------------------------

def run_fig3(config: BenchConfig) -> ExperimentResult:
    """Figure 3: cache contents during two linear passes, 5-block file,
    3-block cache — the motivating LRU pathology."""
    cache = PageCache(capacity_pages=3, policy="lru")
    file_id = 1

    def contents() -> str:
        slots = [str(p) if (file_id, p) in cache else "e"
                 for p in range(1, 6)]
        resident = [s for s in slots if s != "e"]
        resident += ["e"] * (3 - len(resident))
        return " ".join(resident)

    result = ExperimentResult(
        exp_id="fig3", title="Movement of data among storage levels "
                             "during two linear passes (LRU)",
        columns=["pass", "access block", "cache after", "fault"],
        paper_expectation=(
            "second pass gains nothing from the cache: every access "
            "faults; with SLEDs only 2 of 5 blocks would fault"),
    )
    second_pass_faults = 0
    for pass_no in (1, 2):
        for block in range(1, 6):
            hit = cache.access((file_id, block))
            if not hit:
                cache.insert((file_id, block))
                if pass_no == 2:
                    second_pass_faults += 1
            result.add_row(pass_no, block, contents(),
                           "-" if hit else "FAULT")
    # the SLEDs counterfactual: read the 3 cached blocks first
    sleds_cache = PageCache(capacity_pages=3, policy="lru")
    for block in range(1, 6):
        if not sleds_cache.access((file_id, block)):
            sleds_cache.insert((file_id, block))
    cached_first = [b for b in range(1, 6) if (file_id, b) in sleds_cache]
    uncached = [b for b in range(1, 6) if b not in cached_first]
    sleds_faults = 0
    for block in cached_first + uncached:
        if not sleds_cache.access((file_id, block)):
            sleds_cache.insert((file_id, block))
            sleds_faults += 1
    result.notes.append(
        f"second pass faults: LRU linear = {second_pass_faults}/5, "
        f"SLEDs order = {sleds_faults}/5")
    return result


# ---------------------------------------------------------------------------
# wc sweeps (Figures 7, 8, 9)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One (file size, with/without) comparison."""

    paper_mb: float
    without: RunStats
    with_sleds: RunStats

    @property
    def ratio(self) -> float:
        if self.with_sleds.time.mean <= 0:
            return float("inf")
        return self.without.time.mean / self.with_sleds.time.mean


FIG7_SIZES = tuple(range(8, 129, 8))
FIG9_SIZES = tuple(range(24, 97, 8))


@lru_cache(maxsize=32)
def _wc_sweep(config: BenchConfig, mount: str,
              sizes_mb: tuple[float, ...]) -> tuple[SweepRow, ...]:
    rows = []
    for index, paper_mb in enumerate(sizes_mb):
        stats = {}
        for use_sleds in (False, True):
            workload = text_workload(config, paper_mb, mount,
                                     seed_salt=index)
            kernel = workload.kernel

            def run(k=kernel, p=workload.path, s=use_sleds):
                wc(k, p, use_sleds=s)

            stats[use_sleds] = measure_runs(kernel, run, runs=config.runs)
        rows.append(SweepRow(paper_mb=paper_mb, without=stats[False],
                             with_sleds=stats[True]))
    return tuple(rows)


def run_fig7(config: BenchConfig,
             sizes_mb: tuple[float, ...] = FIG7_SIZES) -> ExperimentResult:
    """Figure 7: wc over NFS, time vs file size, warm cache."""
    rows = _wc_sweep(config, "/mnt/nfs", sizes_mb)
    result = ExperimentResult(
        exp_id="fig7", title="wc times over NFS, with/without SLEDs, "
                             "warm cache (paper-equivalent seconds)",
        columns=["MB", "without s", "±", "with s", "±", "speedup"],
        paper_expectation=(
            "SLEDs wins above ~50 MB (cache size); constant absolute gap "
            "beyond; best ratio near 60 MB"),
    )
    for row in rows:
        result.add_row(
            row.paper_mb,
            round(config.to_paper_seconds(row.without.time.mean), 2),
            round(config.to_paper_seconds(row.without.time.ci90), 2),
            round(config.to_paper_seconds(row.with_sleds.time.mean), 2),
            round(config.to_paper_seconds(row.with_sleds.time.ci90), 2),
            round(row.ratio, 2),
        )
    result.notes.append(f"scale 1:{config.scale}; {config.runs} runs/point")
    return result


def run_fig8(config: BenchConfig,
             sizes_mb: tuple[float, ...] = FIG7_SIZES) -> ExperimentResult:
    """Figure 8: speedup ratio of Figure 7 (peaks ~4.5 near 60 MB)."""
    rows = _wc_sweep(config, "/mnt/nfs", sizes_mb)
    result = ExperimentResult(
        exp_id="fig8", title="wc time ratio (speedup) over NFS",
        columns=["MB", "speedup"],
        paper_expectation=(
            "ratio ~1 below cache size, peaking around 4.5 near 60 MB, "
            "declining gradually after"),
    )
    for row in rows:
        result.add_row(row.paper_mb, round(row.ratio, 2))
    peak = max(rows, key=lambda r: r.ratio)
    result.notes.append(
        f"peak speedup {peak.ratio:.2f}x at {peak.paper_mb} MB")
    return result


def run_fig9(config: BenchConfig,
             sizes_mb: tuple[float, ...] = FIG9_SIZES) -> ExperimentResult:
    """Figure 9: wc page faults on CD-ROM, warm cache."""
    rows = _wc_sweep(config, "/mnt/cdrom", sizes_mb)
    result = ExperimentResult(
        exp_id="fig9", title="wc page faults on CD-ROM "
                             "(paper-equivalent counts)",
        columns=["MB", "faults without", "faults with", "reduction %"],
        paper_expectation=(
            "without SLEDs faults rise sharply past the cache size; with "
            "SLEDs the increase is gradual"),
    )
    for row in rows:
        f0 = row.without.pages.mean * config.scale
        f1 = row.with_sleds.pages.mean * config.scale
        reduction = 0.0 if f0 == 0 else 100.0 * (1 - f1 / f0)
        result.add_row(row.paper_mb, round(f0), round(f1),
                       round(reduction, 1))
    result.notes.append(
        "faults = pages fetched from the device (majors + readahead), "
        "scaled to paper-equivalent counts")
    return result


# ---------------------------------------------------------------------------
# grep sweeps (Figures 10, 11, 12, 13)
# ---------------------------------------------------------------------------

FIG10_SIZES = tuple(range(24, 97, 8))
FIG11_SIZES = tuple(range(8, 129, 8))
FIG13_MB = 64
FIG13_TRIALS = 50


@lru_cache(maxsize=32)
def _grep_all_sweep(config: BenchConfig, mount: str,
                    sizes_mb: tuple[float, ...]) -> tuple[SweepRow, ...]:
    rows = []
    for index, paper_mb in enumerate(sizes_mb):
        size = config.scaled_bytes(paper_mb)
        rng = np.random.default_rng(config.seed + 31 * index)
        plants = plant_needles(config, size, count=20, rng=rng)
        stats = {}
        for use_sleds in (False, True):
            workload = text_workload(config, paper_mb, mount,
                                     plants=plants, seed_salt=index)
            kernel = workload.kernel

            def run(k=kernel, p=workload.path, s=use_sleds):
                grep(k, p, NEEDLE, use_sleds=s)

            stats[use_sleds] = measure_runs(kernel, run, runs=config.runs)
        rows.append(SweepRow(paper_mb=paper_mb, without=stats[False],
                             with_sleds=stats[True]))
    return tuple(rows)


def run_fig10(config: BenchConfig,
              sizes_mb: tuple[float, ...] = FIG10_SIZES) -> ExperimentResult:
    """Figure 10: grep (all matches) on CD-ROM, warm cache."""
    rows = _grep_all_sweep(config, "/mnt/cdrom", sizes_mb)
    result = ExperimentResult(
        exp_id="fig10", title="grep all matches on CD-ROM "
                              "(paper-equivalent seconds)",
        columns=["MB", "without s", "±", "with s", "±", "gain s"],
        paper_expectation=(
            "small CPU overhead below cache size; ~15 s constant gain for "
            "large files (the CD fill time SLEDs avoids)"),
    )
    for row in rows:
        t0 = config.to_paper_seconds(row.without.time.mean)
        t1 = config.to_paper_seconds(row.with_sleds.time.mean)
        result.add_row(row.paper_mb, round(t0, 2),
                       round(config.to_paper_seconds(row.without.time.ci90), 2),
                       round(t1, 2),
                       round(config.to_paper_seconds(row.with_sleds.time.ci90), 2),
                       round(t0 - t1, 2))
    return result


@dataclass(frozen=True)
class FirstMatchRow:
    """One size of the grep -q experiment."""

    paper_mb: float
    without: object  # Measurement
    with_sleds: object

    @property
    def ratio(self) -> float:
        if self.with_sleds.mean <= 0:
            return float("inf")
        return self.without.mean / self.with_sleds.mean


def _grep_q_trials(config: BenchConfig, mount: str, paper_mb: float,
                   use_sleds: bool, trials: int, seed_salt: int,
                   replant_each_run: bool = False) -> list[float]:
    """grep -q trials, the paper's §5.1 protocol: one test file, warm
    cache, consecutive runs in the same mode — each run finds the cache in
    the state the previous run left it.

    Figure 11 places "a single match ... randomly in the test file": the
    position is drawn once per file size (``replant_each_run=False``).
    With SLEDs, the run that finds the match leaves its page cached, so
    subsequent runs terminate "without executing any physical I/O at all"
    — the paper's ideal benchmark.  The Figure 13 CDF instead studies the
    distribution over match positions (``replant_each_run=True``):
    re-planting mutates file *content* only; cache residency is untouched,
    exactly like editing a byte in place.
    """
    machine = make_machine(config, profile="unix", seed_salt=seed_salt)
    kernel = machine.kernel
    fs = machine.filesystems[mount]
    size = config.scaled_bytes(paper_mb)
    rng = np.random.default_rng(config.seed + 7919 * seed_salt)
    inode = fs.create_text_file("bench/haystack.txt", size,
                                seed=config.seed + seed_salt)
    path = f"{mount}/bench/haystack.txt"
    inode.content.plants = {
        int(rng.integers(1, size - len(NEEDLE) - 2)): NEEDLE}
    kernel.warm_file(path)  # the discarded cache-warming run
    times = []
    for _ in range(trials):
        if replant_each_run:
            inode.content.plants = {
                int(rng.integers(1, size - len(NEEDLE) - 2)): NEEDLE}
        with kernel.process() as run:
            found = grep(kernel, path, NEEDLE, use_sleds=use_sleds,
                         first_match_only=True)
        assert found.count == 1, "planted match must be found"
        times.append(run.elapsed)
    return times


#: independent random match placements pooled per file size (a single
#: placement makes the curve hostage to one draw; the paper's own Figure 11
#: without-SLEDs line is visibly jagged for the same reason)
GREP_Q_PLACEMENTS = 3


@lru_cache(maxsize=32)
def _grep_q_sweep(config: BenchConfig, mount: str,
                  sizes_mb: tuple[float, ...]) -> tuple[FirstMatchRow, ...]:
    rows = []
    runs_per_placement = max(2, config.runs // GREP_Q_PLACEMENTS)
    for index, paper_mb in enumerate(sizes_mb):
        t0: list[float] = []
        t1: list[float] = []
        for placement in range(GREP_Q_PLACEMENTS):
            salt = 100 * index + placement
            t0 += _grep_q_trials(config, mount, paper_mb, False,
                                 runs_per_placement, seed_salt=salt)
            t1 += _grep_q_trials(config, mount, paper_mb, True,
                                 runs_per_placement, seed_salt=salt)
        rows.append(FirstMatchRow(paper_mb=paper_mb,
                                  without=summarize(t0),
                                  with_sleds=summarize(t1)))
    return tuple(rows)


def run_fig11(config: BenchConfig,
              sizes_mb: tuple[float, ...] = FIG11_SIZES) -> ExperimentResult:
    """Figure 11: grep -q (one random match) on ext2, warm cache."""
    rows = _grep_q_sweep(config, "/mnt/ext2", sizes_mb)
    result = ExperimentResult(
        exp_id="fig11", title="grep one match on ext2 "
                              "(paper-equivalent seconds)",
        columns=["MB", "without s", "±", "with s", "±"],
        paper_expectation=(
            "large error bars without SLEDs (poor cache behaviour, match "
            "position luck); with SLEDs low and stable times"),
    )
    for row in rows:
        result.add_row(
            row.paper_mb,
            round(config.to_paper_seconds(row.without.mean), 2),
            round(config.to_paper_seconds(row.without.ci90), 2),
            round(config.to_paper_seconds(row.with_sleds.mean), 2),
            round(config.to_paper_seconds(row.with_sleds.ci90), 2))
    return result


def run_fig12(config: BenchConfig,
              sizes_mb: tuple[float, ...] = FIG11_SIZES) -> ExperimentResult:
    """Figure 12: speedup ratio of Figure 11 (up to ~25x)."""
    rows = _grep_q_sweep(config, "/mnt/ext2", sizes_mb)
    result = ExperimentResult(
        exp_id="fig12", title="grep -q mean speedup, ext2",
        columns=["MB", "speedup"],
        paper_expectation="order-of-magnitude speedups above cache size",
    )
    for row in rows:
        result.add_row(row.paper_mb, round(row.ratio, 2))
    peak = max(rows, key=lambda r: r.ratio)
    result.notes.append(
        f"peak speedup {peak.ratio:.1f}x at {peak.paper_mb} MB")
    return result


def run_fig13(config: BenchConfig, paper_mb: float = FIG13_MB,
              trials: int = FIG13_TRIALS) -> ExperimentResult:
    """Figure 13: CDF of grep -q times, NFS, 64 MB file."""
    t0 = _grep_q_trials(config, "/mnt/nfs", paper_mb, False, trials, 900,
                        replant_each_run=True)
    t1 = _grep_q_trials(config, "/mnt/nfs", paper_mb, True, trials, 901,
                        replant_each_run=True)
    result = ExperimentResult(
        exp_id="fig13", title=f"CDF of grep -q times, NFS, {paper_mb} MB "
                              "(paper-equivalent seconds)",
        columns=["percentile", "without s", "with s"],
        paper_expectation=(
            "without SLEDs the CDF spreads over tens of seconds (no "
            "benefit from the mostly-cached file); with SLEDs most runs "
            "finish quickly"),
    )
    q = np.linspace(0.1, 1.0, 10)
    t0s = np.quantile(np.array(t0) * config.scale, q)
    t1s = np.quantile(np.array(t1) * config.scale, q)
    for p, a, b in zip(q, t0s, t1s):
        result.add_row(round(100 * p), round(float(a), 2),
                       round(float(b), 2))
    result.notes.append(
        f"median without {np.median(t0) * config.scale:.2f}s vs "
        f"with {np.median(t1) * config.scale:.2f}s over {trials} trials")
    return result


# ---------------------------------------------------------------------------
# LHEASOFT (Figures 14, 15)
# ---------------------------------------------------------------------------

FIG14_SIZES = tuple(range(8, 65, 8))
FIG15_SIZES = tuple(range(16, 65, 16))


@lru_cache(maxsize=32)
def _lhea_sweep(config: BenchConfig, tool: str, factor: int,
                sizes_mb: tuple[float, ...]) -> tuple[SweepRow, ...]:
    rows = []
    for index, paper_mb in enumerate(sizes_mb):
        stats = {}
        for use_sleds in (False, True):
            workload = fits_workload(config, paper_mb, seed_salt=index)
            kernel = workload.kernel
            out_path = "/mnt/ext2/bench/out.fits"

            if tool == "fimhisto":
                def run(k=kernel, p=workload.path, s=use_sleds):
                    fimhisto(k, p, out_path, use_sleds=s)
            else:
                def run(k=kernel, p=workload.path, s=use_sleds,
                        f=factor):
                    fimgbin(k, p, out_path, factor=f, use_sleds=s)

            stats[use_sleds] = measure_runs(kernel, run, runs=config.runs)
        rows.append(SweepRow(paper_mb=paper_mb, without=stats[False],
                             with_sleds=stats[True]))
    return tuple(rows)


def run_fig14(config: BenchConfig,
              sizes_mb: tuple[float, ...] = FIG14_SIZES) -> ExperimentResult:
    """Figure 14: fimhisto elapsed time, ext2, warm cache."""
    rows = _lhea_sweep(config, "fimhisto", 0, sizes_mb)
    result = ExperimentResult(
        exp_id="fig14", title="fimhisto elapsed time, ext2 "
                              "(paper-equivalent seconds)",
        columns=["MB", "without s", "±", "with s", "±",
                 "time gain %", "fault reduction %"],
        paper_expectation=(
            "15-25% time reduction and 30-50% fault reduction for files "
            "of 48-64 MB; writes (~1/4 of I/O) cap the gain"),
    )
    for row in rows:
        t0, t1 = row.without.time.mean, row.with_sleds.time.mean
        f0, f1 = row.without.pages.mean, row.with_sleds.pages.mean
        result.add_row(
            row.paper_mb,
            round(config.to_paper_seconds(t0), 2),
            round(config.to_paper_seconds(row.without.time.ci90), 2),
            round(config.to_paper_seconds(t1), 2),
            round(config.to_paper_seconds(row.with_sleds.time.ci90), 2),
            round(0.0 if t0 == 0 else 100 * (1 - t1 / t0), 1),
            round(0.0 if f0 == 0 else 100 * (1 - f1 / f0), 1))
    return result


def run_fig15(config: BenchConfig,
              sizes_mb: tuple[float, ...] = FIG15_SIZES) -> ExperimentResult:
    """Figure 15: fimgbin elapsed time, ext2, 4x and 16x reduction."""
    result = ExperimentResult(
        exp_id="fig15", title="fimgbin elapsed time, ext2 "
                              "(paper-equivalent seconds)",
        columns=["MB", "factor", "without s", "with s", "time gain %"],
        paper_expectation=(
            "~11% gain at 4x reduction for >=48 MB; 25-35% at 16x (less "
            "write traffic leaves more for SLEDs to win)"),
    )
    for factor in (4, 16):
        rows = _lhea_sweep(config, "fimgbin", factor, sizes_mb)
        for row in rows:
            t0, t1 = row.without.time.mean, row.with_sleds.time.mean
            result.add_row(
                row.paper_mb, factor,
                round(config.to_paper_seconds(t0), 2),
                round(config.to_paper_seconds(t1), 2),
                round(0.0 if t0 == 0 else 100 * (1 - t1 / t0), 1))
    return result
