"""The environment block every output carries: information, not metrics."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Optional

from perfbench.hostclock import calibration_loop

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def calibration_s(rounds: int = 20) -> float:
    """Best of ``rounds`` passes of the host clock's fixed pure-Python loop.

    A host speed score: dividing a host-clock metric of another machine by the
    ratio of the two scores puts it on this machine's scale.
    """
    return min(calibration_loop() for _ in range(rounds))


def src_loc() -> int:
    """Lines under ``src/`` (the size the roadmap's deletion target tracks)."""
    return sum(len(path.read_bytes().splitlines()) for path in (ROOT / "src").rglob("*.py"))


def environment() -> dict:
    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "REPRO_ENGINE": os.environ.get("REPRO_ENGINE"),
        "src_loc": src_loc(),
        "calibration_s": calibration_s(),
    }
