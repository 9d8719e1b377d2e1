"""Filesystem consistency checking (an ``fsck`` for the simulated stack).

Experiments mutate filesystems aggressively — growth, truncation, HSM
staging, fragmented allocators — so the test suite (and cautious users)
can assert the structural invariants hold:

* the directory tree is acyclic and every reachable node is a file or
  directory;
* every file's extent map covers exactly its pages, in order, gap-free;
* no two files' extents overlap on the device;
* every extent lies within the device;
* HSM staging state only references pages of reachable files.

:func:`check_filesystem` returns a list of human-readable problem
strings (empty = clean), so callers can assert ``== []`` and get a useful
diff on failure.
"""

from __future__ import annotations

from repro.fs.filesystem import FileSystem
from repro.fs.hsmfs import HsmFs
from repro.fs.inode import Inode, InodeKind
from repro.sim.units import PAGE_SIZE, bytes_to_pages


def _walk(fs: FileSystem) -> tuple[list[tuple[str, Inode]], list[str]]:
    """(reachable [(path, inode)], problems) — cycle-safe."""
    problems: list[str] = []
    out: list[tuple[str, Inode]] = []
    seen_dirs: set[int] = set()

    def descend(node: Inode, prefix: str) -> None:
        if node.id in seen_dirs:
            problems.append(f"directory cycle at {prefix or '/'}")
            return
        seen_dirs.add(node.id)
        for name, child in sorted(node.entries.items()):
            path = f"{prefix}/{name}"
            if "/" in name or not name:
                problems.append(f"bad entry name {name!r} in {prefix or '/'}")
            if child.kind is InodeKind.DIRECTORY:
                descend(child, path)
            elif child.kind is InodeKind.FILE:
                out.append((path, child))
            else:  # pragma: no cover - enum is closed today
                problems.append(f"{path}: unknown inode kind {child.kind}")

    descend(fs.root, "")
    return out, problems


def check_filesystem(fs: FileSystem) -> list[str]:
    """Run every structural check; returns problems (empty = clean)."""
    files, problems = _walk(fs)

    claimed: list[tuple[int, int, str]] = []  # (start, end, path)
    for path, inode in files:
        expected_pages = bytes_to_pages(inode.size)
        extents = inode.extent_map.extents
        if inode.extent_map.npages != expected_pages:
            problems.append(
                f"{path}: extent map covers {inode.extent_map.npages} "
                f"pages for a {expected_pages}-page file")
        cursor = 0
        for extent in extents:
            if extent.file_page != cursor:
                problems.append(
                    f"{path}: extent gap at file page {cursor}")
                break
            cursor = extent.end_page
        for extent in extents:
            start = extent.device_addr
            end = start + extent.npages * PAGE_SIZE
            if end > fs.device.capacity:
                problems.append(
                    f"{path}: extent [{start}, {end}) beyond device "
                    f"capacity {fs.device.capacity}")
            claimed.append((start, end, path))

    claimed.sort()
    for (start_a, end_a, path_a), (start_b, end_b, path_b) in zip(
            claimed, claimed[1:]):
        if start_b < end_a:
            problems.append(
                f"device overlap: {path_a} [{start_a}, {end_a}) and "
                f"{path_b} [{start_b}, {end_b})")

    if isinstance(fs, HsmFs):
        file_pages = {inode.id: (path, inode.npages) for path, inode in files}
        for inode_id, page in list(fs._staged):
            if inode_id not in file_pages:
                problems.append(
                    f"HSM stage references unreachable inode #{inode_id} "
                    f"page {page}")
            elif page >= file_pages[inode_id][1]:
                path, npages = file_pages[inode_id]
                problems.append(
                    f"{path}: HSM stage holds page {page} of a "
                    f"{npages}-page file")
        for path, inode in files:
            try:
                fs.state_of(inode)
            except Exception:
                problems.append(f"{path}: HSM file has no tape placement")
    return problems


def check_machine(machine) -> dict[str, list[str]]:
    """Check every mounted filesystem; returns {mount: problems}."""
    return {mount: check_filesystem(fs)
            for mount, fs in machine.kernel.mounts()}
