"""End-to-end scenarios across the whole stack."""

import numpy as np

from repro.apps.findutil import find
from repro.apps.gmc import file_properties
from repro.apps.grep import grep
from repro.apps.wc import wc
from repro.core.delivery import SLEDS_BEST, sleds_total_delivery_time
from repro.fits.cfitsio import create_image
from repro.lhea.fimhisto import fimhisto
from repro.machine import Machine
from repro.sim.units import PAGE_SIZE

NEEDLE = b"XNEEDLEX"


class TestPaperScenarioKernelTree:
    """The paper's running example: grepping a source tree where the
    interesting file was cached by an interrupted earlier search."""

    def _setup(self):
        machine = Machine.unix_utilities(cache_pages=64, seed=201)
        machine.boot()
        fs = machine.ext2
        for i in range(6):
            plants = {3000: NEEDLE} if i == 4 else None
            fs.create_text_file(f"linux/drivers/f{i}.c", 24 * PAGE_SIZE,
                                seed=300 + i, plants=plants or {})
        return machine

    def test_interrupted_search_then_sleds_find(self):
        machine = self._setup()
        k = machine.kernel
        # first search was interrupted right after reading f4 (it matched)
        k.warm_file("/mnt/ext2/linux/drivers/f4.c")
        # the SLEDs-aware user greps cheap (cached) files first
        cheap = find(k, "/mnt/ext2/linux", name="*.c", latency="-m10",
                     attack_plan=SLEDS_BEST)
        assert [h.path for h in cheap] == ["/mnt/ext2/linux/drivers/f4.c"]
        with k.process() as run:
            result = grep(k, cheap[0].path, NEEDLE, use_sleds=True,
                          first_match_only=True)
        assert result.count == 1
        assert run.hard_faults == 0  # found without touching the disk

    def test_naive_rescan_rereads_everything(self):
        machine = self._setup()
        k = machine.kernel
        k.warm_file("/mnt/ext2/linux/drivers/f4.c")
        with k.process() as run:
            for i in range(6):
                result = grep(k, f"/mnt/ext2/linux/drivers/f{i}.c", NEEDLE,
                              first_match_only=True)
                if result.count:
                    break
        assert run.hard_faults > 0


class TestMultiFilesystemStory:
    def test_same_file_different_mounts_different_estimates(self):
        machine = Machine.unix_utilities(cache_pages=256, seed=202)
        machine.boot()
        for fs, mount in ((machine.ext2, "ext2"), (machine.cdrom, "cdrom"),
                          (machine.nfs, "nfs")):
            fs.create_text_file("data.txt", 32 * PAGE_SIZE, seed=1)
        k = machine.kernel
        times = {}
        for mount in ("ext2", "cdrom", "nfs"):
            fd = k.open(f"/mnt/{mount}/data.txt")
            times[mount] = sleds_total_delivery_time(k, fd)
            k.close(fd)
        assert times["ext2"] < times["cdrom"] < times["nfs"]

    def test_wc_consistent_across_filesystems(self):
        machine = Machine.unix_utilities(cache_pages=256, seed=203)
        machine.boot()
        for fs in (machine.ext2, machine.cdrom, machine.nfs):
            fs.create_text_file("data.txt", 16 * PAGE_SIZE, seed=9)
        k = machine.kernel
        results = [wc(k, f"/mnt/{m}/data.txt", use_sleds=s)
                   for m in ("ext2", "cdrom", "nfs") for s in (False, True)]
        first = (results[0].lines, results[0].words, results[0].chars)
        assert all((r.lines, r.words, r.chars) == first for r in results)


class TestHsmStory:
    def test_three_level_ordering(self):
        """SLEDs orders memory < staged disk < tape within one file."""
        machine = Machine.hsm(cache_pages=32, stage_pages=48, seed=204)
        machine.boot()
        fs = machine.hsmfs
        k = machine.kernel
        size = 64 * PAGE_SIZE
        from repro.fs.content import SyntheticText
        inode = fs.create_tape_file("arch.txt", size, "VOL000")
        inode.content = SyntheticText(seed=5, size=size)
        k.warm_file("/mnt/hsm/arch.txt")
        fd = k.open("/mnt/hsm/arch.txt")
        vector = k.get_sleds(fd)
        k.close(fd)
        latencies = sorted(vector.levels())
        assert len(latencies) == 3  # memory, hsm-disk, tape

    def test_panel_warns_about_tape(self):
        machine = Machine.hsm(cache_pages=64, seed=205)
        machine.boot()
        machine.hsmfs.create_tape_file("cold.dat", 256 * PAGE_SIZE, "VOL003")
        panel = file_properties(machine.kernel, "/mnt/hsm/cold.dat")
        assert panel.total_time_best > 10  # tape load dominates


class TestFullPipeline:
    def test_astronomy_pipeline_end_to_end(self):
        """Create image -> fimhisto with SLEDs -> verify output parses."""
        machine = Machine.lheasoft(cache_pages=128, seed=206)
        machine.boot()
        rng = np.random.default_rng(3)
        image = rng.integers(0, 512, size=(64, 64), dtype=np.int16)
        create_image(machine.kernel, "/mnt/ext2/obs.fits", image)
        result = fimhisto(machine.kernel, "/mnt/ext2/obs.fits",
                          "/mnt/ext2/obs_h.fits", nbins=16, use_sleds=True)
        assert result.counts.sum() == image.size
        panel = file_properties(machine.kernel, "/mnt/ext2/obs_h.fits")
        assert panel.size > image.nbytes  # copy + histogram table

    def test_repeated_mixed_workload_stays_consistent(self):
        machine = Machine.unix_utilities(cache_pages=32, seed=207)
        machine.boot()
        machine.ext2.create_text_file("f", 64 * PAGE_SIZE, seed=2,
                                      plants={10_000: NEEDLE})
        k = machine.kernel
        reference = None
        for _ in range(5):
            counts = wc(k, "/mnt/ext2/f", use_sleds=True)
            matches = grep(k, "/mnt/ext2/f", NEEDLE, use_sleds=True)
            snapshot = (counts.lines, counts.words, counts.chars,
                        [(m.offset, m.line_number) for m in matches.matches])
            if reference is None:
                reference = snapshot
            assert snapshot == reference
