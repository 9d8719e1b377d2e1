"""Tests for the §3.3 progress-reporting application."""

import pytest

from repro.apps.progress import retrieve_with_progress
from repro.fs.content import SyntheticText
from repro.machine import Machine
from repro.sim.units import MB


def _unix_machine():
    machine = Machine.unix_utilities(cache_pages=128, seed=701)
    machine.boot()
    return machine


class TestRetrieveWithProgress:
    def test_reads_whole_file(self):
        machine = _unix_machine()
        machine.ext2.create_text_file("f", MB, seed=1)
        report = retrieve_with_progress(machine.kernel, "/mnt/ext2/f")
        assert report.size == MB
        assert report.total_time > 0
        assert report.samples, "progress must be sampled"

    def test_initial_estimate_available_before_first_byte(self):
        machine = _unix_machine()
        machine.ext2.create_text_file("f", MB, seed=1)
        report = retrieve_with_progress(machine.kernel, "/mnt/ext2/f")
        # the SLEDs-implied total is in the right ballpark of the truth
        assert report.initial_estimate == pytest.approx(
            report.total_time, rel=0.5)

    def test_samples_monotonic(self):
        machine = _unix_machine()
        machine.ext2.create_text_file("f", MB, seed=1)
        report = retrieve_with_progress(machine.kernel, "/mnt/ext2/f")
        fractions = [s.fraction_done for s in report.samples]
        elapsed = [s.elapsed for s in report.samples]
        assert fractions == sorted(fractions)
        assert elapsed == sorted(elapsed)
        assert all(0 < f < 1 for f in fractions)

    def test_eta_sleds_shrinks_with_progress(self):
        machine = _unix_machine()
        machine.ext2.create_text_file("f", 2 * MB, seed=1)
        report = retrieve_with_progress(machine.kernel, "/mnt/ext2/f")
        etas = [s.eta_sleds for s in report.samples]
        assert etas[-1] < etas[0]

    def test_estimator_errors_api(self):
        machine = _unix_machine()
        machine.ext2.create_text_file("f", MB, seed=1)
        report = retrieve_with_progress(machine.kernel, "/mnt/ext2/f")
        dynamic_err, sleds_err = report.estimator_errors(0.5)
        assert sleds_err >= 0
        assert dynamic_err is None or dynamic_err >= 0

    def test_no_samples_raises(self):
        from repro.apps.progress import RetrievalReport
        report = RetrievalReport(path="x", size=1, total_time=1.0,
                                 initial_estimate=1.0)
        with pytest.raises(ValueError):
            report.sample_nearest(0.5)


class TestHsmSkew:
    def test_dynamic_estimator_skewed_by_mount(self, hsm_machine):
        size = MB
        inode = hsm_machine.hsmfs.create_tape_file("obs.dat", size, "VOL004")
        inode.content = SyntheticText(seed=3, size=size)
        report = retrieve_with_progress(hsm_machine.kernel,
                                        "/mnt/hsm/obs.dat")
        dynamic_err, sleds_err = report.estimator_errors(0.10)
        assert dynamic_err is not None
        # the mount dominated the early rate: dynamic extrapolation is
        # wildly pessimistic; SLEDs (refreshed) stays close
        assert dynamic_err > 1.0
        assert sleds_err < 0.5

    def test_stale_vector_overestimates_after_mount(self, hsm_machine):
        """Without refresh, the remaining-time estimate keeps charging the
        already-paid mount — the §3.4 staleness effect, visible here."""
        size = MB
        inode = hsm_machine.hsmfs.create_tape_file("obs2.dat", size,
                                                   "VOL005")
        inode.content = SyntheticText(seed=4, size=size)
        stale = retrieve_with_progress(hsm_machine.kernel,
                                       "/mnt/hsm/obs2.dat",
                                       refresh_vector=False)
        _, stale_err = stale.estimator_errors(0.5)
        inode2 = hsm_machine.hsmfs.create_tape_file("obs3.dat", size,
                                                    "VOL006")
        inode2.content = SyntheticText(seed=5, size=size)
        fresh = retrieve_with_progress(hsm_machine.kernel,
                                       "/mnt/hsm/obs3.dat",
                                       refresh_vector=True)
        _, fresh_err = fresh.estimator_errors(0.5)
        assert fresh_err < stale_err
