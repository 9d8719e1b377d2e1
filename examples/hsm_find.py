#!/usr/bin/env python3
"""HSM latency management: pruning and reporting over a tape library.

The paper argues SLEDs matter most for hierarchical storage management,
where retrieval times span eleven orders of magnitude — microseconds for
cached pages, minutes for a shelved tape.  This demo builds an HSM machine
(two DLT-class drives, a shelf of cartridges, a disk staging cache) and
shows the three SLEDs use cases:

* **reporting** — gmc-style panels tell the user a shelved file is a long
  retrieval *before* touching it;
* **pruning** — ``find -latency -1`` selects only the data available within
  a second, never spinning up the robot;
* **reordering** — wc over a partially staged file drains page cache, then
  disk stage, then tape, in one sequential tape pass.

Run:  python examples/hsm_find.py
"""

from repro import Machine
from repro.apps.findutil import find
from repro.apps.gmc import file_properties, should_wait_prompt
from repro.apps.wc import wc
from repro.core.delivery import SLEDS_BEST
from repro.fs.content import SyntheticText
from repro.hsm.migration import MigrationDaemon
from repro.sim.units import MB, human_time


def main() -> None:
    machine = Machine.hsm(cache_pages=256, stage_pages=768, seed=99)
    machine.boot()
    kernel = machine.kernel
    hsm = machine.hsmfs

    # an archive of observation files spread over two cartridges
    files = {}
    for i in range(4):
        label = "VOL000" if i < 2 else "VOL001"
        size = 2 * MB
        inode = hsm.create_tape_file(f"archive/run{i}.dat", size, label)
        inode.content = SyntheticText(seed=100 + i, size=size)
        files[f"/mnt/hsm/archive/run{i}.dat"] = inode

    # run0 was read recently: it is staged on disk (and partly cached)
    kernel.warm_file("/mnt/hsm/archive/run0.dat")
    daemon = MigrationDaemon(hsm, cold_after=60.0)

    print("=== reporting: what would each retrieval cost? ===")
    for path in files:
        panel = file_properties(kernel, path)
        print(f"  {path:28s} best-case {human_time(panel.total_time_best):>10s}"
              f"  -> {should_wait_prompt(panel)}")

    print("\n=== pruning: find -latency -1 (data within one second) ===")
    quick = find(kernel, "/mnt/hsm", latency="-1", attack_plan=SLEDS_BEST)
    for hit in quick:
        print(f"  {hit.path}  ({human_time(hit.delivery_time)})")
    mounted = hsm.autochanger.mounted_labels()
    print(f"  tape drives touched: {mounted or 'none'} — pruning never "
          f"moves the robot")

    print("\n=== reordering: wc over the partially staged run0 ===")
    # stage out part of run0 so three levels coexist, then read it back
    with kernel.process() as plain:
        wc(kernel, "/mnt/hsm/archive/run0.dat")
    with kernel.process() as sleds:
        wc(kernel, "/mnt/hsm/archive/run0.dat", use_sleds=True)
    print(f"  without SLEDs: {human_time(plain.elapsed)}")
    print(f"  with SLEDs:    {human_time(sleds.elapsed)}")

    print("\n=== the migration daemon moves cold data back to tape ===")
    for inode in files.values():
        inode.atime = 0.0
    report = daemon.sweep(now=kernel.clock.now + 3600)
    print(f"  migrated: {report.migrated} "
          f"({human_time(report.seconds)} of tape time)")
    panel = file_properties(kernel, "/mnt/hsm/archive/run0.dat")
    print(f"  run0 now: {should_wait_prompt(panel)}")


if __name__ == "__main__":
    main()
