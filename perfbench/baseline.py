"""One-off baseline notes for targets too slow to repeat in a workload.

Runs each target once in its own interpreter under a wall-clock cap and an
address-space cap, and prints one JSON document with the wall time, peak
RSS and outcome of each:

- ``product_expansion((6), (6))`` and ``product_expansion((4,4), (4,4))``,
  the two large products the CLI accepts at its default size bound;
- every ``classconv verify`` suite at its default size.

A target that hits a cap is reported as "did not finish in N s" (or as
having run out of its memory cap), never as a time.  These are notes, not
metrics: they take minutes, so the repeated workloads in ``run.py`` leave
them out.

    python3 perfbench/baseline.py > perfbench/baseline-seed.json
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from stamp import SRC, child_env, stamp  # noqa: E402

SUITES = ["section6", "section11", "oracle", "fillings", "homomorphism",
          "filtrations", "gamma", "semigroup"]
PRODUCT_CODE = ("from classconv.class_algebra import product_expansion; "
                "from classconv.partitions import Partition; "
                "e = product_expansion(Partition({a}), Partition({b})); "
                "print(len(e), sum(e.values()))")
MEMORY_CAP_BYTES = 2 << 30
CAP_S = 150.0


def targets() -> dict[str, list[str]]:
    out = {
        "product_expansion((6),(6))":
            ["-c", PRODUCT_CODE.format(a=(6,), b=(6,))],
        "product_expansion((4,4),(4,4))":
            ["-c", PRODUCT_CODE.format(a=(4, 4), b=(4, 4))],
    }
    for suite in SUITES:
        out[f"verify --suite {suite}"] = ["-m", "classconv.cli", "verify",
                                          "--suite", suite]
    return out


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def run_once(argv: list[str], cap_s: float) -> dict:
    """Run one target; wall time from launch to exit, peak RSS from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, preexec_fn=_limit_memory)
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() - start > cap_s:
            proc.kill()
            timed_out = True
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = proc.communicate()
    if timed_out:
        outcome = f"did not finish in {cap_s:.0f} s"
    elif "MemoryError" in err:
        outcome = f"ran out of its {MEMORY_CAP_BYTES >> 20} MiB address-space cap"
    elif proc.returncode == 0:
        outcome = "ok"
    else:
        outcome = f"exit {proc.returncode}: {err.strip().splitlines()[-1:]}"
    return {"outcome": outcome, "wall_s": round(elapsed, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "stdout_tail": out.strip().splitlines()[-1:]}


def main() -> int:
    if not (SRC / "classconv" / "__init__.py").is_file():
        print(f"error: no classconv sources under {SRC}", file=sys.stderr)
        return 2
    results = {}
    for name, target in targets().items():
        results[name] = run_once(target, CAP_S)
        print(f"# {name}: {results[name]}", file=sys.stderr, flush=True)
    print(json.dumps({"stamp": stamp(seed=None), "cap_s": CAP_S,
                      "memory_cap_mib": MEMORY_CAP_BYTES >> 20,
                      "results": results}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
