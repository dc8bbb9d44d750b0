"""One repetition of a workload stream, in a fresh interpreter.

Protocol with ``run.py``: the worker imports ``classconv`` and
``classconv.cli``, prints ``ready`` (set-up ends there), then reads one
JSON job from stdin: ``{"requests": [...], "trace": bool, "verify": bool}``.
An empty stdin ends it without work, which is how set-up alone is sampled.
It sends the requests one at a time (a closed loop with one client), times
each, and prints one JSON result with the latencies, the scale that takes
each latency to reference speed (``reference.py``; the time its ticks
took inside a request is taken out of that request's latency), the
stream's wall time, peak RSS, a digest of each answer and, when asked,
the exact check of each answer and the per-function span totals.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path


def _canon(x):
    """A JSON-able canonical form of an answer, for digests."""
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return sorted([_canon(k), _canon(v)] for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    for attrs in (("parts",), ("rows",), ("terms", "level"), ("base", "coeffs"),
                  ("labels", "matrix"), ("sigma", "tau", "rho", "theta_rho", "theta_bound"),
                  ("rule", "indices", "lhs", "rhs")):
        if all(hasattr(x, a) for a in attrs):
            return [_canon(getattr(x, a)) for a in attrs]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(answer) -> str:
    return hashlib.sha256(json.dumps(_canon(answer)).encode()).hexdigest()


def prepare(request: list):
    """A zero-argument call for one request.  Library functions are looked
    up when the call runs, so that traced wrappers are the ones called."""
    from classconv import characters as ch
    from classconv import class_algebra as ca
    from classconv import fillings as fi
    from classconv import filtrations as fl
    from classconv.partitions import Partition as P

    op, *args = request
    if op in ("product_expansion", "product_expansion_a"):
        a, b = P(args[0]), P(args[1])
        return lambda: getattr(ca, op)(a, b)
    if op == "multiply":
        a, b = ca.ClassVector.basis(P(args[0])), ca.ClassVector.basis(P(args[1]))
        return lambda: ca.multiply(a, b, n=args[2])
    if op in ("q_polynomial", "f_constant"):
        a, b, c = P(args[0]), P(args[1]), P(args[2])
        return lambda: getattr(ca, op)(a, b, c)
    if op == "convolve_C_classes":
        a, b = P(args[0]), P(args[1])
        return lambda: ca.convolve_C_classes(a, b, args[2])
    if op == "g_table":
        return lambda: ca.g_table(args[0])
    if op == "check_filtration":
        kind, *params = args[0]
        theta = getattr(fl.DegreeFunction, kind)(*params)
        return lambda: fl.check_filtration(theta, args[1])
    if op == "check_gamma_inequalities":
        return lambda: fl.check_gamma_inequalities(args[0], args[1])
    if op == "enumerate_F":
        a, b, c = P(args[0]), P(args[1]), P(args[2])
        return lambda: fi.enumerate_F(a, b, c)
    if op == "convolve":
        s, t = fi.Filling(args[0]), fi.Filling(args[1])
        return lambda: fi.convolve(s, t)
    if op == "CharacterTable":
        return lambda: ch.CharacterTable(args[0])
    if op in ("p_sharp", "s_star"):
        a, b = P(args[0]), P(args[1])
        return lambda: getattr(ch, op)(a, b)
    if op == "F_eval":
        terms: dict = {}
        for num, den, parts in args[0]:
            terms[P(parts)] = terms.get(P(parts), 0) + Fraction(num, den)
        v, lam = ca.ClassVector(terms), P(args[1])
        return lambda: ch.F_eval(v, lam)
    raise ValueError(f"unknown request {op!r}")


def run(requests: list, trace: bool, verify: bool) -> dict:
    """Send the requests in order; everything but the calls is untimed."""
    from classconv import class_algebra

    import checks
    import reference
    import spans

    calls = [prepare(r) for r in requests]
    tracer = spans.Tracer() if trace else None
    patched = spans.install(tracer) if tracer else []
    root = tracer.name_id(spans.REQUEST) if tracer else 0
    answers, latencies, windows, errors = [], [], [], {}
    try:
        with reference.Sampler() as speed:
            stream_start = time.perf_counter()
            for i, call in enumerate(calls):
                span = tracer.begin(root) if tracer else 0
                paused = speed.paused
                start = time.perf_counter()
                try:
                    answers.append(call())
                except Exception as exc:  # a failed request is counted, not fatal
                    answers.append(None)
                    errors[i] = f"{type(exc).__name__}: {exc}"
                end = time.perf_counter()
                latencies.append(end - start - (speed.paused - paused))
                windows.append((start, end))
                if tracer:
                    tracer.finish(span)
            wall_s = time.perf_counter() - stream_start
    finally:
        spans.uninstall(patched)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"wall_s": wall_s, "latencies": latencies, "peak_rss_mb": rss_mb,
              "scales": [speed.scale(*w) for w in windows],
              "errors": errors,
              "digests": [None if i in errors else digest(a) for i, a in enumerate(answers)]}
    if tracer:
        result["layers"] = tracer.summary()
    if verify:
        check_start = time.perf_counter()
        checker = checks.Checker(class_algebra)
        result["ok"] = [i not in errors and _checked(checker, r, a)
                        for i, (r, a) in enumerate(zip(requests, answers))]
        result["check_s"] = time.perf_counter() - check_start
    return result


def _checked(checker, request: list, answer) -> bool:
    try:
        return checker.check(request, answer)
    except (AttributeError, KeyError, TypeError, ValueError):
        return False  # an answer of the wrong shape is a wrong answer


def main() -> int:
    import classconv
    import classconv.cli  # noqa: F401  (part of set-up: the CLI's import cost)

    from stamp import SRC
    if not Path(classconv.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported classconv from {classconv.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    print("ready", flush=True)
    text = sys.stdin.read()
    if not text:
        return 0
    job = json.loads(text)
    json.dump(run(job["requests"], job["trace"], job["verify"]), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
