"""Where the sources live, how children import them, and the result stamp."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LIMITS = ("wall-clock times and counts only: no hardware counters were read; "
          "only this benchmark's own processes were timed; "
          "no machine settings were changed")


def child_env() -> dict[str, str]:
    """The environment for a child interpreter that imports the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return out.stdout.strip() or "unknown (git failed)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "classconv").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(seed: int | None) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": _commit(), "src_sha256": _source_digest(), "seed": seed,
            "limits": LIMITS}
