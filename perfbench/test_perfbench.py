"""Tests of the benchmark's own arithmetic: self time, span nesting, the tail
percentile rule, binding of wrappers, and the metric table."""

import json
import os
import sys
import threading
import types

import pytest

from perfbench import checks, spans, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _span(span_id, start, end, parent=None, name="x"):
    return (span_id, name, start, end, parent, None)


def test_self_time_subtracts_union_of_clipped_children():
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),    # overlaps span 1: union [1, 5]
        _span(3, 9.0, 12.0, parent=0),   # clipped to the parent's end
        _span(4, 1.5, 2.5, parent=1),    # grandchild counts against span 1 only
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_layer_totals_sum_self_time_calls_and_attributes():
    tree = [(0, "a", 0.0, 1.0, None, {"iters": 3}), (1, "b", 0.2, 0.7, 0, None),
            (2, "a", 2.0, 2.5, None, {"iters": 4})]
    totals = spans.layer_totals(tree)
    assert totals["a"]["calls"] == 2 and totals["a"]["iters"] == 7
    assert totals["a"]["ms"] == pytest.approx(1000.0)
    assert totals["b"]["ms"] == pytest.approx(500.0)


def test_wrapped_calls_nest_and_errors_still_close_spans():
    rec = spans.Recorder("t", traced=True)

    def inner(fail):
        if fail:
            raise ValueError("boom")
        return 1

    inner_w = rec.wrap("inner", inner)
    outer_w = rec.wrap("outer", lambda fail: inner_w(fail), cell={"label": "c"})
    assert outer_w(False) == 1
    with pytest.raises(ValueError):
        outer_w(True)
    by_name = {}
    for span_id, name, start, end, parent, _ in rec.spans:
        by_name.setdefault(name, []).append((span_id, parent, start <= end))
    assert [p for _, p, _ in by_name["outer"]] == [None, None]
    assert [p for _, p, _ in by_name["inner"]] == [i for i, _, _ in by_name["outer"]]
    assert all(ok for rows in by_name.values() for _, _, ok in rows)
    assert [c["error"] for c in rec.cells] == [None, "ValueError: boom"]
    assert all(c["end"] >= c["start"] for c in rec.cells)


def test_untraced_recorder_times_only_cells():
    rec = spans.Recorder("t", traced=False)
    seen = []
    probe = rec.wrap("probe", lambda: 5, inspect=lambda name, r: seen.append((name, r)))
    cell = rec.wrap("cell", lambda: probe(), cell={"label": "c"})
    assert cell() == 5
    assert seen == [("probe", 5)]
    assert [s[1] for s in rec.spans] == ["cell"]


@pytest.mark.parametrize("n, expected", [(36, 74), (18, 47), (11, 9)])
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    samples = [float(v) for v in range(1, n + 1)]
    p, value = spans.tail_percentile(samples)
    assert p == expected
    assert sum(v > value for v in samples) >= 10
    above_next = spans.percentile(samples, p + 1)
    assert sum(v > above_next for v in samples) < 10


def test_tail_with_too_few_samples_is_the_maximum():
    assert spans.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0)


def test_hd_median_matches_scipy_reference():
    from scipy.stats.mstats import hdquantiles

    samples = [5.0, 1.0, 9.0, 2.0, 2.5, 30.0, 7.0]
    assert spans.hd_quantile(samples, 0.5) == pytest.approx(float(hdquantiles(samples, [0.5])[0]))
    assert spans.hd_quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    assert spans.hd_quantile([4.0] * 5, 0.5) == pytest.approx(4.0)


def test_cells_on_worker_threads_keep_their_own_statuses():
    from concurrent.futures import ThreadPoolExecutor

    rec = spans.Recorder("t", traced=False)
    barrier = threading.Barrier(2, timeout=10)

    def solve(k):
        barrier.wait()  # both cells are open when either records its status
        rec.record_status("solve", k == 0)

    cell = rec.wrap("cell", solve, cell={"label": "c"})
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(cell, [0, 1]))
    assert sorted(index for index, _, _ in rec.statuses) == [0, 1]
    for index, _, converged in rec.statuses:
        assert rec.cells[index]["args"] == [0 if converged else 1]


def test_bind_everywhere_replaces_every_copy_under_the_prefix(monkeypatch):
    def f():
        return "original"

    def g():
        return "wrapped"

    for name in ("fakepkg", "fakepkg.a", "fakepkg.b", "otherpkg"):
        module = types.ModuleType(name)
        module.f = f
        monkeypatch.setitem(sys.modules, name, module)
    assert spans.bind_everywhere(f, g, prefix="fakepkg") == 3
    assert sys.modules["fakepkg.b"].f is g
    assert sys.modules["otherpkg"].f is f


def test_missing_target_raises_named_error():
    with pytest.raises(spans.StaleSpanTarget, match="fakemod.gone"):
        spans.lookup(types.ModuleType("fakemod"), "gone")


def test_layer_without_calls_on_its_workload_fails():
    from perfbench import execute

    rec = spans.Recorder("t", traced=True)
    with pytest.raises(spans.LayerNotExercised):
        execute.layer_metrics(rec, workloads.WORKLOADS["sweep-smooth"])


def test_suite_counts_skip_decimal_and_exponent_digits():
    detail = "180/180 runs satisfied (worst margin -3.323e-06); d_s=21 m=84, 3se=54.8603"
    assert checks.suite_counts(detail) == [180, 180, 21, 84]


def test_golden_float_tolerance():
    assert checks.values_match("rel_err_x1", "1.0000000001", "1.0")
    assert not checks.values_match("rel_err_x1", "1.00001", "1.0")
    assert not checks.values_match("m", "16", "16.0")
    assert not checks.values_match("objective", None, "1.0")


def test_benchmark_json_matches_the_metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in bench["per_layer"]] == \
        [{k: m[k] for k in ("name", "unit", "better")} for m in workloads.PER_LAYER]
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in bench["end_to_end"]] == \
        list(workloads.END_TO_END)
