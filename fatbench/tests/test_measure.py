"""The benchmark's arithmetic: self time, percentiles, sample counts, failures."""

import json
import os

import pytest

import measure
from measure import (
    host_adjusted,
    ops_failed_ratio,
    percentile,
    round_windows,
    self_times,
    summarize,
    tail_percentile,
    uncovered_share,
    union_length,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- self time -----------------------------------------------------------------
def test_self_time_nested_spans():
    spans = [
        (2, 1, "leaf", 3.0, 4.0),
        (1, 0, "mid", 2.0, 5.0),
        (0, -1, "root", 0.0, 10.0),
    ]
    table = self_times(spans)
    assert table["root"]["self_s"] == pytest.approx(7.0)
    assert table["mid"]["self_s"] == pytest.approx(2.0)
    assert table["leaf"]["self_s"] == pytest.approx(1.0)
    assert table["root"]["total_s"] == pytest.approx(10.0)


def test_self_time_adjacent_children_are_not_double_counted():
    spans = [
        (0, -1, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 3.0),
        (2, 0, "b", 3.0, 6.0),
    ]
    assert self_times(spans)["root"]["self_s"] == pytest.approx(5.0)


def test_self_time_overlapping_and_overhanging_children():
    spans = [
        (0, -1, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 0, "b", 3.0, 6.0),
        (3, 0, "c", 9.0, 12.0),  # clipped to the parent's end
    ]
    assert self_times(spans)["root"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_sums_calls_of_one_name():
    spans = [
        (0, -1, "f", 0.0, 1.0),
        (1, -1, "f", 2.0, 2.5),
        (2, 1, "g", 2.1, 2.2),
    ]
    row = self_times(spans)["f"]
    assert row["calls"] == 2
    assert row["total_s"] == pytest.approx(1.5)
    assert row["self_s"] == pytest.approx(1.4)


def test_self_times_add_up_to_the_top_level_span():
    spans = [
        (0, -1, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 1, "b", 2.0, 3.0),
        (3, 0, "c", 5.0, 9.5),
    ]
    table = self_times(spans)
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(10.0)


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (1, 2)]) == pytest.approx(2.0)
    assert union_length([(0, 3), (1, 2), (5, 6)]) == pytest.approx(4.0)
    assert union_length([(2, 1)]) == 0.0


# -- percentiles and sample counts ---------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 100) == 10
    assert percentile(values, 1) == 1
    assert percentile([7.5], 99) == 7.5
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_median_even_and_odd():
    assert measure.median([3.0, 1.0, 2.0]) == 2.0
    assert measure.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        measure.median([])


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (10, None), (99, None), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_summarize_reports_count_and_tail_only_when_allowed():
    small = summarize([1.0, 2.0, 3.0])
    assert small == {"p50": 2.0, "n": 3}
    big = summarize([float(i) for i in range(1, 101)])
    assert big["n"] == 100
    assert big["p50"] == 50.5
    assert big["p90"] == 90.0


# -- failures ------------------------------------------------------------------
def test_ops_failed_ratio():
    assert ops_failed_ratio(10, 0) == 0.0
    assert ops_failed_ratio(10, 3) == pytest.approx(0.3)
    assert ops_failed_ratio(4, 4) == 1.0
    for attempted, failed in ((0, 0), (3, 4), (3, -1)):
        with pytest.raises(ValueError):
            ops_failed_ratio(attempted, failed)


# -- rounds and coverage -------------------------------------------------------
def test_host_adjusted_scales_by_reference_over_calibration():
    assert host_adjusted(2.0, 0.02, 0.02) == pytest.approx(2.0)
    # A host at half speed doubles the run and the kernel alike.
    assert host_adjusted(4.0, 0.04, 0.02) == pytest.approx(2.0)
    assert host_adjusted(1.0, 0.01, 0.02) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        host_adjusted(1.0, 0.0, 0.02)


def test_round_windows_run_to_next_start_or_run_end():
    assert round_windows([0.0, 1.0, 3.0], 6.0) == [(0.0, 1.0), (1.0, 3.0), (3.0, 6.0)]
    assert round_windows([], 1.0) == []
    with pytest.raises(ValueError):
        round_windows([0.0, 2.0, 1.0], 3.0)


def test_uncovered_share_counts_only_top_level_spans():
    spans = [
        (0, -1, "a", 1.0, 3.0),
        (1, -1, "b", 2.0, 5.0),
        (2, 1, "child", 2.5, 9.0),  # a child never adds coverage
        (3, -1, "outside", 20.0, 30.0),
    ]
    assert uncovered_share([(0.0, 10.0)], spans) == pytest.approx(0.6)
    assert uncovered_share([(0.0, 5.0), (20.0, 25.0)], spans) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        uncovered_share([], spans)


# -- the benchmark's declared metrics ------------------------------------------
def test_benchmark_json_matches_the_reported_metrics():
    import run
    from layers import metric_units

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_readme_documents_every_metric_and_layer():
    import run
    from layers import SPAN_NAMES

    with open(os.path.join(ROOT, "fatbench", "README.md"), encoding="utf-8") as f:
        readme = f.read()
    for name in list(run.END_TO_END) + SPAN_NAMES + list(run.WORKLOAD_NAMES):
        assert f"`{name}`" in readme, name
