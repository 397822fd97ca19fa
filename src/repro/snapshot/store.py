"""On-disk snapshot store: versioned, keyed by ``(spec-build-hash, seed)``.

A snapshot file is gzipped JSON::

    {
      "format_version": 2,
      "build_hash": "<16 hex chars>",
      "seed": 3,
      "state": { ... }          # the world dict built by repro.snapshot.capture
    }

The **build hash** digests everything that shapes the world *up to the capture
boundary*: the spec with its identity knobs normalised out (the seed lives in
the filename/envelope instead, only the simulated transport snapshots, and
``warm_start`` is a pure runner knob), the pre-boundary phase list, the peer
total and the format version.  Editing a spec -- a period, a workload, a
config override -- changes the repr, hence the hash, hence the filename: stale
snapshots are never *loaded*, they are simply never looked up again (and a
later cold run writes the new file alongside).  Dataclass reprs are
deterministic for the plain-data specs involved, and a hash mismatch only ever
costs a cold rebuild, never correctness.

:func:`load_snapshot` is deliberately paranoid: *any* failure -- missing file,
truncated gzip, invalid JSON, wrong version, wrong key -- returns ``None`` so
the caller falls back to a cold run.  Corruption must never crash a scenario.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import zlib
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

#: Bump on any change to the state dict layout or the codec representations.
FORMAT_VERSION = 2

#: Snapshot filename suffix.
SNAPSHOT_SUFFIX = ".snap.gz"


def build_hash(spec, pre_phases: Sequence) -> str:
    """Digest of everything shaping the pre-boundary world (see module doc)."""
    from repro.harness.scenarios import TransportSpec  # late: avoid import cycle

    normalized = replace(
        spec,
        seed=0,
        transport=TransportSpec(),
        phases=(),
        warm_start=True,
    )
    blob = repr((FORMAT_VERSION, normalized, tuple(pre_phases), spec.peers))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def snapshot_path(directory, name: str, key: str, seed: int) -> Path:
    """``<dir>/<scenario>-<hash>-s<seed>.snap.gz``."""
    return Path(directory) / f"{name}-{key}-s{seed}{SNAPSHOT_SUFFIX}"


def save_snapshot(path, key: str, seed: int, state: dict) -> None:
    """Write atomically (tmp + rename): a killed run never leaves a torn file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format_version": FORMAT_VERSION,
        "build_hash": key,
        "seed": seed,
        "state": state,
    }
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with gzip.open(tmp, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # a failed dump above; never leave droppings
            tmp.unlink()


def load_snapshot(path, key: str, seed: int) -> Optional[dict]:
    """The state dict, or ``None`` for *any* miss/mismatch/corruption."""
    try:
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, EOFError, ValueError, zlib.error):
        # Missing file, truncated/forged gzip stream, or invalid JSON/UTF-8.
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("format_version") != FORMAT_VERSION:
        return None
    if payload.get("build_hash") != key or payload.get("seed") != seed:
        return None
    state = payload.get("state")
    return state if isinstance(state, dict) else None


__all__ = [
    "FORMAT_VERSION",
    "SNAPSHOT_SUFFIX",
    "build_hash",
    "load_snapshot",
    "save_snapshot",
    "snapshot_path",
]
