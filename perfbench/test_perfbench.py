"""Tests of the benchmark itself: seeded inputs, exact checks, tracing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import symmetric  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from classconv import characters, class_algebra, fillings  # noqa: E402
from classconv.partitions import Partition  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_streams_depend_only_on_the_seed(name):
    assert workloads.generate(name, 3) == workloads.generate(name, 3)
    assert workloads.generate(name, 3) != workloads.generate(name, 4)


def test_products_are_distinct_pairs_within_the_bounds():
    pairs = [tuple(sorted((tuple(r[1]), tuple(r[2])))) for r in workloads.products(7)]
    assert len(set(pairs)) == len(pairs)
    assert all(sum(map(sum, p)) <= workloads.PRODUCTS_MAX_TOTAL for p in pairs)


def test_fillings_unshared_combinations_occur_once():
    keys = [(tuple(r[1]), sum(r[3])) for r in workloads.fillings(7) if r[0] == "enumerate_F"]
    counts = {k: keys.count(k) for k in keys}
    assert sorted(set(counts.values())) == [1, workloads.FILLINGS_RUN]
    shared = sum(1 for k in keys if counts[k] > 1)
    assert shared == len(keys) - shared


def test_own_structure_constants_match_the_program():
    for a in symmetric.partitions_up_to(3):
        for b in symmetric.partitions_up_to(3):
            want = class_algebra.product_expansion(Partition(a), Partition(b))
            assert symmetric.structure_constants(a, b) == {
                rho.parts: g for rho, g in want.items()}


def _light(name: str) -> list:
    """A cheap slice of a stream; the sweep's table at bound 3 instead of 5."""
    stream = workloads.generate(name, 5)
    if name == "sweep":
        return [["g_table", 3], ["check_filtration", ["deg1"], 3]] + [
            r for r in stream if r[0] != "g_table" and r[0] != "check_filtration"
            and all(sum(p) <= 3 for p in r[1:3] if isinstance(p, list))][:40]
    if name == "characters":
        return [r for r in stream if r != ["CharacterTable", 18]][:60]
    if name == "products":
        return [r for r in stream if sum(r[1]) + sum(r[2]) <= 8][:25]
    return stream[:40]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_correct_answers_pass_their_checks(name):
    result = worker.run(_light(name), trace=False, verify=True)
    assert not result["errors"]
    assert all(result["ok"])


def _corrupt_first(monkeypatch, module, attr, spoil):
    original = getattr(module, attr)
    state = {"done": False}

    def corrupted(*args, **kwargs):
        out = original(*args, **kwargs)
        if state["done"]:
            return out
        state["done"] = True
        return spoil(out)
    monkeypatch.setattr(module, attr, corrupted)


def _bump_one(expansion: dict) -> dict:
    out = dict(expansion)
    rho = next(iter(out))
    out[rho] += 1
    return out


@pytest.mark.parametrize("request_, module, attr, spoil", [
    (["product_expansion", [2], [2]], class_algebra, "product_expansion", _bump_one),
    (["q_polynomial", [3], [3], [3]], class_algebra, "q_polynomial",
     lambda q: class_algebra.BinomialPolynomial(q.base, [c + 1 for c in q.coeffs])),
    (["enumerate_F", [2], [2], [3]], fillings, "enumerate_F", lambda pairs: pairs[1:]),
    (["p_sharp", [2], [3, 1]], characters, "p_sharp", lambda v: v + Fraction(1, 2)),
    (["CharacterTable", 5], characters, "CharacterTable",
     lambda t: (t.matrix[0].__setitem__(-1, t.matrix[0][-1] + 1), t)[1]),
])
def test_a_corrupted_answer_counts_as_failed(monkeypatch, request_, module, attr, spoil):
    requests = [["convolve", [[1, 2]], [[2, 3]]], request_]
    clean = worker.run(requests, trace=False, verify=True)
    clean["traced"], clean["errors"] = False, {}
    _corrupt_first(monkeypatch, module, attr, spoil)
    bad = worker.run(requests, trace=False, verify=True)
    bad["traced"], bad["errors"] = False, {}
    assert bad["ok"] == [True, False]
    assert run.failures([bad]) == 1
    # a later repetition whose answer differs from the checked one fails too
    assert run.failures([clean, bad]) == 1


def test_spans_nest_across_layers_and_are_undone():
    original = class_algebra.product_expansion
    tracer = spans.Tracer()
    patched = spans.install(tracer)
    try:
        class_algebra._PAIR_CACHE.clear()
        class_algebra._class_tuples.cache_clear()
        class_algebra._reps_inv.cache_clear()
        class_algebra.f_constant(Partition((2,)), Partition((3,)), Partition((3, 1, 1)))
    finally:
        spans.uninstall(patched)
    assert class_algebra.product_expansion is original
    layers = tracer.summary()
    assert layers["class_algebra.f_constant"]["calls"] == 1
    assert layers["class_algebra.product_expansion"]["calls"] == 1
    assert layers["class_algebra.product_expansion"]["terms"] > 0
    assert layers["partial_perm.permutations_of_type"]["yielded"] > 0
    total = sum(stats["self_s"] for stats in layers.values())
    outer = sum(tracer.end[i] - tracer.start[i] for i in range(len(tracer.name))
                if tracer.parent[i] == -1)
    assert all(stats["self_s"] >= 0 for stats in layers.values())
    assert total == pytest.approx(outer, rel=1e-9, abs=1e-9)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(5) == 0


def test_harrell_davis_estimates_the_quantile():
    assert run.harrell_davis([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    assert run.harrell_davis([5.0] * 50, 0.9) == pytest.approx(5.0)
    ranked = [float(i) for i in range(1, 102)]
    assert run.harrell_davis(ranked, 0.5) == pytest.approx(51.0, rel=1e-3)
    assert run.harrell_davis(ranked, 0.9) == pytest.approx(91.8, rel=0.01)
    # far from a gap in the data, the gap does not pull the estimate
    assert run.harrell_davis([1.0] * 70 + [100.0] * 31, 0.5) < 1.01
    assert run.harrell_davis([1.0] * 931 + [100.0] * 70, 0.99) > 99.0


def test_ticks_inside_a_request_are_not_its_time(monkeypatch):
    monkeypatch.setattr(reference, "tick", lambda: 2 * reference.REF_TICK_S)
    with reference.Sampler() as speed:
        paused = speed.paused
        start = time.perf_counter()
        speed._tick()  # as if the timer fired during the request
        end = time.perf_counter()
    assert 0 < speed.paused - paused <= end - start
    assert speed.scale(start, end) == pytest.approx(0.5)
    assert len(speed.took) >= 3  # on entry, in the request, on exit
