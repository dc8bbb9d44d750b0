"""The classconv benchmark: one workload, one seed, a fixed time.

    python3 perfbench/run.py --workload products --seed 1 --seconds 25 --trace 0

Generates the workload's request stream from the seed, then runs it again
and again, each time in a fresh interpreter (so the memo caches start
empty), while another repetition still fits in ``--seconds``; at least two
untraced ones always run.  Each repetition is a closed loop with one client.  The first
repetition's answers are all checked exactly (``checks.py``); later ones
must give byte-identical answers.  Set-up (launching an interpreter until
``classconv`` and ``classconv.cli`` are imported) is sampled at least
``MIN_SETUPS`` times.

With ``--trace 0`` the metrics are the ``end_to_end`` ones of
BENCHMARK.json, medians over the repetitions, with every time taken to
reference host speed (``reference.py``); with ``--trace 1`` they are
the ``per_layer`` ones, from traced repetitions alternating with untraced
ones (the ratio of the two gives the tracing overhead).  A report goes
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import reference  # noqa: E402
from stamp import ROOT, SRC, child_env, stamp  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

MIN_SETUPS = 7
# A stream that takes half the run or more still runs twice untraced, so
# that no metric rests on one pass through it.
MIN_PLAIN_REPS = 2
RUN_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def launch() -> tuple[subprocess.Popen, float]:
    """A ready worker and its set-up time, scaled to reference speed by
    ticks taken here just before and just after."""
    before = reference.tick()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                            env=child_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    setup_s *= reference.scale(before, reference.tick())
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise WorkerError("worker did not start; is src/classconv present?")
    return proc, setup_s


def repetition(job: dict | None, timeout: float) -> dict:
    """One worker: set-up, then the job's stream (or nothing, for a probe)."""
    start = time.perf_counter()
    proc, setup_s = launch()
    try:
        out, _ = proc.communicate(json.dumps(job) if job else "", timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"repetition did not finish in {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    result = json.loads(out) if job else {}
    result["setup_s"] = setup_s
    result["elapsed_s"] = time.perf_counter() - start - result.get("check_s", 0.0)
    result["errors"] = {int(i): msg for i, msg in result.get("errors", {}).items()}
    return result


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n samples beyond it."""
    return max(0, math.floor(100 * (1 - 10 / n)))


def run_stream(requests: list, seconds: float, trace: bool) -> list[dict]:
    """Repetitions while the next one fits (and at least MIN_PLAIN_REPS
    untraced ones), alternating untraced and traced ones when tracing; the
    first is checked exactly."""
    start = time.perf_counter()
    modes = [False, True] if trace else [False]
    reps: list[dict] = []
    while True:
        traced = modes[len(reps) % len(modes)]
        same = [r["elapsed_s"] for r in reps if r["traced"] == traced]
        elapsed = time.perf_counter() - start
        plain = sum(1 for r in reps if not r["traced"])
        if len(reps) >= len(modes) and plain >= MIN_PLAIN_REPS and (
                not same or elapsed + max(same) > seconds):
            return reps
        job = {"requests": requests, "trace": traced, "verify": not reps}
        rep = repetition(job, timeout=max(5.0, RUN_LIMIT_S - elapsed))
        rep["traced"] = traced
        reps.append(rep)


def failures(reps: list[dict]) -> int:
    """Requests that raised, failed their check, or differ from the checked answer."""
    checked = reps[0]
    bad = {i for i, ok in enumerate(checked["ok"]) if not ok}
    failed = 0
    for rep in reps:
        failed += sum(1 for i, d in enumerate(rep["digests"])
                      if i in bad or i in rep["errors"] or d != checked["digests"][i])
    return failed


def harrell_davis(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics, each weighted by the chance that it is the q-quantile (the
    Beta((n+1)q, (n+1)(1-q)) mass over its rank's slice of [0, 1], found by
    the midpoint rule).  Where requests are sparse around the quantile, a
    single order statistic jumps between neighbours that differ by 10% or
    more as the host jitters; this estimate moves smoothly."""
    ranked = sorted(values)
    n = len(ranked)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    if n < 3 or min(a, b) <= 1:
        return ranked[min(n - 1, max(0, math.ceil(q * n) - 1))]
    steps = 4
    logs = []
    for i in range(n):
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            logs.append((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    top = max(logs)
    weights = [sum(math.exp(v - top) for v in logs[i * steps:(i + 1) * steps])
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, ranked)) / sum(weights)


def scaled(rep: dict) -> list[float]:
    """A repetition's request times at reference speed."""
    return [t * k for t, k in zip(rep["latencies"], rep["scales"])]


def request_times(reps: list[dict]) -> list[float]:
    """Each request's median time at reference speed over the repetitions."""
    per_rep = [scaled(r) for r in reps]
    return [statistics.median(times) for times in zip(*per_rep)]


def end_to_end(reps: list[dict], setups: list[float]) -> dict[str, float]:
    """Times at reference speed: wall_s is the median over repetitions of
    the summed request times; the latencies are Harrell-Davis percentiles
    over requests of each request's median time."""
    plain = [r for r in reps if not r["traced"]]
    times = request_times(plain)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(scaled(r)) for r in plain),
        "latency_p50_ms": 1e3 * harrell_davis(times, 0.5),
        "latency_tail_ms": 1e3 * harrell_davis(times, tail_percentile(len(times)) / 100),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(reps: list[dict], names: list[str]) -> dict[str, float]:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    out = {}
    for name in names:
        if name == "trace.overhead_ratio":
            out[name] = (statistics.median(sum(scaled(r)) for r in traced)
                         / statistics.median(sum(scaled(r)) for r in plain) - 1)
            continue
        function, stat = name.rsplit(".", 1)
        values = []
        for rep in traced:
            stats = rep["layers"].get(function, {})
            if stat == "hit_ratio":
                attempts = stats.get("convolve_under_enumerate_F", 0)
                values.append(stats.get("pairs", 0) / attempts if attempts else 0.0)
            else:
                values.append(stats.get(stat, 0))
        out[name] = statistics.median(values)
    return out


def fillings_split(requests: list, reps: list[dict]) -> str:
    """Share of enumerate_F requests (and of their time) in runs sharing (sigma, r)."""
    keys = [(tuple(r[1]), sum(r[3])) if r[0] == "enumerate_F" else None for r in requests]
    shared = [k is not None and keys.count(k) > 1 for k in keys]
    plain = [r for r in reps if not r["traced"]]
    time_shared = sum(r["latencies"][i] for r in plain for i, s in enumerate(shared) if s)
    time_all = sum(r["latencies"][i] for r in plain for i, k in enumerate(keys) if k)
    count_all = sum(1 for k in keys if k)
    return (f"shared (sigma, r) runs: {sum(shared)}/{count_all} enumerate_F requests, "
            f"{time_shared / time_all:.1%} of their time")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="classconv benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "classconv" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: need {SRC / 'classconv'} and {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]

    requests = generate(args.workload, args.seed)
    try:
        reps = run_stream(requests, args.seconds, bool(args.trace))
        setups = [r["setup_s"] for r in reps]
        while len(setups) < MIN_SETUPS:
            setups.append(repetition(None, timeout=30)["setup_s"])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = len(requests) * len(reps)
    failed = failures(reps)
    values = (per_layer(reps, [m["name"] for m in metrics_spec]) if args.trace
              else end_to_end(reps, setups))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metrics_spec}

    plain = [r for r in reps if not r["traced"]]
    percentile = tail_percentile(len(requests))
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; closed loop, one client")
    print(f"# stamp {json.dumps(stamp(args.seed))}")
    print(f"# {len(reps)} repetitions ({sum(r['traced'] for r in reps)} traced) of "
          f"{len(requests)} requests; {len(setups)} set-ups")
    print("# stream seconds per repetition, raw -> at reference speed: " + ", ".join(
        f"{r['wall_s']:.3f} -> {sum(scaled(r)):.3f}{' (traced)' if r['traced'] else ''}"
        for r in reps))
    print(f"# checking the first repetition's answers took {reps[0]['check_s']:.2f} s")
    print(f"# latency_tail_ms is p{percentile} of {len(requests)} requests per repetition")
    print(f"# failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for rep in reps:
        for i, msg in sorted(rep["errors"].items())[:3]:
            print(f"# request {i} {requests[i]!r} raised {msg}")
    if args.workload == "fillings":
        print(f"# {fillings_split(requests, reps)}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
