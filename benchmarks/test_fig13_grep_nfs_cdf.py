"""Figure 13: CDF of grep -q execution times over NFS, 64 MB file.

Paper shape: the without-SLEDs distribution spreads over tens of seconds
(the run "gained essentially no benefit from the fact that a majority of
the test file is cached"); the with-SLEDs distribution is concentrated at
low times.
"""

from conftest import summarize_rows

from repro.bench.experiments import run_fig13


def test_fig13_cdf_separation(benchmark, config):
    result = benchmark.pedantic(
        run_fig13, args=(config,), kwargs={"paper_mb": 64, "trials": 20},
        rounds=1, iterations=1)
    summarize_rows(result, benchmark)
    rows = {row[0]: row for row in result.rows}
    median_without, median_with = rows[50][1], rows[50][2]
    assert median_with < median_without / 2, \
        "with-SLEDs median must be far below the without median"
    # the without distribution is wide; the with distribution concentrated
    spread_without = rows[90][1] - rows[10][1]
    spread_with = rows[90][2] - rows[10][2]
    assert spread_without > 0
    assert spread_with < spread_without, \
        "with-SLEDs distribution must be more concentrated than without"
    assert rows[60][2] < rows[60][1], \
        "with-SLEDs dominates through the 60th percentile"
