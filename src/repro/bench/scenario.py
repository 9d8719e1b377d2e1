"""Declarative scenario construction: machines and workloads from dicts.

A *scenario* is a JSON-friendly description of a machine and its files —
what profile to build, what to create where, what to pre-warm.  It powers
the ``sleds-run`` CLI (:mod:`repro.apps.cli`) and makes experiment setups
shareable as plain files.

Example::

    {
      "profile": "unix",
      "cache_mb": 4,
      "seed": 42,
      "noise": 0.02,
      "files": [
        {"path": "/mnt/ext2/src/main.c", "size_kb": 256, "seed": 1,
         "plants": {"4000": "XNEEDLEX"}},
        {"path": "/mnt/nfs/pub/data.txt", "size_kb": 1024}
      ],
      "tape_files": [
        {"path": "/mnt/hsm/archive.dat", "size_kb": 512,
         "cartridge": "VOL000"}
      ],
      "warm": ["/mnt/ext2/src/main.c"]
    }
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.fs.hsmfs import HsmFs
from repro.machine import Machine
from repro.sim.units import KB, MB, PAGE_SIZE

PROFILES = ("unix", "lheasoft", "hsm")


class ScenarioError(ValueError):
    """Malformed scenario description."""


def _size_of(entry: dict, what: str) -> int:
    """Resolve ``size`` / ``size_kb`` / ``size_mb`` (exactly one)."""
    keys = [k for k in ("size", "size_kb", "size_mb") if k in entry]
    if len(keys) != 1:
        raise ScenarioError(
            f"{what}: give exactly one of size/size_kb/size_mb, got {keys}")
    value = entry[keys[0]]
    if not isinstance(value, (int, float)) or value <= 0:
        raise ScenarioError(f"{what}: bad size {value!r}")
    scale = {"size": 1, "size_kb": KB, "size_mb": MB}[keys[0]]
    return max(PAGE_SIZE, int(value * scale))


def _plants_of(entry: dict, size: int, what: str) -> dict[int, bytes]:
    plants: dict[int, bytes] = {}
    for offset_text, payload in (entry.get("plants") or {}).items():
        try:
            offset = int(offset_text)
        except (TypeError, ValueError):
            raise ScenarioError(
                f"{what}: plant offset {offset_text!r} is not an int"
            ) from None
        blob = payload.encode() if isinstance(payload, str) else bytes(payload)
        if offset < 0 or offset + len(blob) > size:
            raise ScenarioError(
                f"{what}: plant at {offset} escapes the {size}-byte file")
        plants[offset] = blob
    return plants


def _split_mount_rel(machine: Machine, path: str, what: str):
    for mount, fs in sorted(machine.filesystems.items(),
                            key=lambda kv: -len(kv[0])):
        if path.startswith(mount.rstrip("/") + "/"):
            return fs, path[len(mount.rstrip("/")) + 1:]
    raise ScenarioError(f"{what}: {path!r} is not under any mount "
                        f"({sorted(machine.filesystems)})")


def build_scenario(spec: dict) -> Machine:
    """Construct and boot a machine from a scenario dict."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"scenario must be a dict, got {type(spec)}")
    profile = spec.get("profile", "unix")
    if profile not in PROFILES:
        raise ScenarioError(
            f"unknown profile {profile!r}; choose from {PROFILES}")
    cache_mb = spec.get("cache_mb", 4)
    if not isinstance(cache_mb, (int, float)) or cache_mb <= 0:
        raise ScenarioError(f"bad cache_mb: {cache_mb!r}")
    kwargs = dict(cache_pages=max(16, int(cache_mb * MB) // PAGE_SIZE),
                  seed=int(spec.get("seed", 20000101)),
                  noise=float(spec.get("noise", 0.0)),
                  policy=spec.get("policy", "lru"))
    if profile == "unix":
        machine = Machine.unix_utilities(**kwargs)
    elif profile == "lheasoft":
        machine = Machine.lheasoft(**kwargs)
    else:
        machine = Machine.hsm(**kwargs)
    machine.boot()

    for index, entry in enumerate(spec.get("files", [])):
        what = f"files[{index}]"
        path = entry.get("path")
        if not path:
            raise ScenarioError(f"{what}: missing path")
        fs, rel = _split_mount_rel(machine, path, what)
        size = _size_of(entry, what)
        fs.create_text_file(rel, size, seed=int(entry.get("seed", index)),
                            plants=_plants_of(entry, size, what))

    for index, entry in enumerate(spec.get("tape_files", [])):
        what = f"tape_files[{index}]"
        path = entry.get("path")
        if not path:
            raise ScenarioError(f"{what}: missing path")
        fs, rel = _split_mount_rel(machine, path, what)
        if not isinstance(fs, HsmFs):
            raise ScenarioError(
                f"{what}: {path!r} is not on an HSM mount")
        size = _size_of(entry, what)
        cartridge = entry.get("cartridge", "VOL000")
        inode = fs.create_tape_file(rel, size, cartridge)
        from repro.fs.content import SyntheticText
        inode.content = SyntheticText(
            seed=int(entry.get("seed", index)), size=size,
            plants=_plants_of(entry, size, what))

    for path in spec.get("warm", []):
        machine.kernel.warm_file(path)
    return machine


def load_scenario(path: str | Path) -> Machine:
    """Build a machine from a scenario JSON file."""
    text = Path(path).read_text()
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return build_scenario(spec)


#: a ready-to-use default used by the CLI when no --scenario is given
DEFAULT_SCENARIO = {
    "profile": "unix",
    "cache_mb": 4,
    "seed": 42,
    "files": [
        {"path": "/mnt/ext2/demo/big.txt", "size_mb": 8, "seed": 7,
         "plants": {"6291456": "XNEEDLEX"}},
        {"path": "/mnt/ext2/demo/small.txt", "size_kb": 64, "seed": 8},
        {"path": "/mnt/nfs/pub/dataset.txt", "size_mb": 2, "seed": 9},
    ],
    "warm": ["/mnt/ext2/demo/big.txt"],
}
