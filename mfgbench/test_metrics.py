"""Tests of the benchmark's own arithmetic.

Run from the repository root with ``python3 -m pytest mfgbench``.
"""
from __future__ import annotations

import statistics

import pytest

from metrics import normalise, self_time, tail, union_length
from tracing import Tracer, summarise


class TestTail:
    def test_small_samples_fall_back_to_the_median(self):
        values = [float(i) for i in range(20)]
        assert tail(values) == (50.0, statistics.median(values))

    @pytest.mark.parametrize("n", [22, 30, 57, 200])
    def test_differs_from_p50_beyond_twenty_samples(self, n):
        values = [float(i) for i in range(n)]
        pct, value = tail(values)
        assert pct > 50.0
        assert value != statistics.median(values)

    @pytest.mark.parametrize("n", [21, 30, 57, 200])
    def test_keeps_exactly_ten_samples_beyond(self, n):
        values = [float(i) for i in range(n)][::-1]  # order must not matter
        pct, value = tail(values)
        assert sum(v > value for v in values) == 10
        assert pct == pytest.approx(100.0 * (n - 10) / n)

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            tail([])


class TestSelfTime:
    def test_no_children(self):
        assert self_time(1.0, 4.0, []) == pytest.approx(3.0)

    def test_overlapping_and_overhanging_children(self):
        # [1,3] and [2,5] overlap (cover 4); [8,12] overhangs the end (covers 2).
        assert self_time(0.0, 10.0, [(1, 3), (2, 5), (8, 12)]) == pytest.approx(4.0)

    def test_union_length(self):
        assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)

    def test_nested_spans_subtract_direct_children_only(self):
        tracer = Tracer()
        tracer.enabled = True
        tracer.group = "q0"
        with tracer.span("runner.run_mfg") as root:
            with tracer.span("gfcore_local") as peel:
                with tracer.span("inner"):
                    pass
                peel["edges_in"], peel["edges_out"] = 10, 4
            with tracer.span("vfree") as kernel:
                kernel["cm"] = 0.0
        inner = tracer.spans[2]
        assert inner["parent"] == peel["id"] and peel["parent"] == root["id"]
        # Replace the clock readings with known ones.
        for rec, (start, end) in zip(
            tracer.spans, [(0.0, 10.0), (1.0, 4.0), (2.0, 3.0), (5.0, 9.0)]
        ):
            rec["start"], rec["end"] = start, end
        out = summarise(tracer, "q0")
        assert out["runner.self_s"] == pytest.approx(10.0 - 3.0 - 4.0)
        assert out["gfcore.peel_s"] == pytest.approx(3.0)
        assert out["gfcore.kept_ratio"] == pytest.approx(0.4)
        assert out["vfree.search_s"] == pytest.approx(4.0)


class TestNormalise:
    def test_formula(self):
        assert normalise(2.0, 0.5, 0.01) == pytest.approx(0.04)

    def test_cancels_a_uniform_slowdown(self):
        assert normalise(0.3, 0.012, 0.012) == pytest.approx(
            normalise(0.3 * 1.7, 0.012 * 1.7, 0.012)
        )

    @pytest.mark.parametrize("ref", [0.0, -1.0])
    def test_rejects_a_non_positive_reference(self, ref):
        with pytest.raises(ValueError):
            normalise(1.0, ref, 0.01)


def test_benchmark_json_lists_the_metrics_run_py_prints():
    import json
    from pathlib import Path

    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
