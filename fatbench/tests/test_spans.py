"""Span recording, function rebinding and the zero-count guard."""

import json

from layers import PREDICTED, metric_units, surprises, zero_count_violations
from measure import self_times
from spans import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_calls_record_parents_and_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        traced_inner()
        traced_inner()
        clock.now += 1.0

    traced_inner = tracer.wrap(inner, "inner")
    tracer.wrap(outer, "outer")()
    by_name = {span[2]: span for span in tracer.spans}
    assert by_name["outer"][1] == -1
    assert all(span[1] == by_name["outer"][0] for span in tracer.spans if span[2] == "inner")
    table = self_times(tracer.spans)
    assert table["outer"]["self_s"] == 2.0
    assert table["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_hooks_accumulate_counters_and_exceptions_still_close_spans():
    tracer = Tracer(clock=FakeClock())
    size = tracer.wrap(len, "size", pre=lambda a, k: 1,
                       post=lambda a, k, result, token: {"items": result + token})
    size([1, 2, 3])
    size([])
    assert tracer.counters["size"]["items"] == 5

    def boom():
        raise RuntimeError("x")

    traced = tracer.wrap(boom, "boom")
    try:
        traced()
    except RuntimeError:
        pass
    assert [s[2] for s in tracer.spans].count("boom") == 1
    assert tracer._stack == []


def test_install_rebinds_every_import_site_and_uninstall_restores():
    import repro.attacks.pgd as pgd
    import repro.core.cascade as cascade
    import repro.flsim.local as local
    from repro.nn.conv import Conv2d

    original_fn, original_forward = pgd.pgd_attack, Conv2d.forward
    tracer = Tracer()
    tracer.install("repro.attacks.pgd", "pgd_attack", "attacks.pgd.pgd_attack")
    tracer.install("repro.nn.conv", "Conv2d.forward", "nn.conv2d.forward")
    try:
        assert pgd.pgd_attack is not original_fn
        assert cascade.pgd_attack is pgd.pgd_attack
        assert local.pgd_attack is pgd.pgd_attack
        assert Conv2d.forward is not original_forward
    finally:
        tracer.uninstall()
    assert pgd.pgd_attack is original_fn
    assert cascade.pgd_attack is original_fn
    assert local.pgd_attack is original_fn
    assert Conv2d.forward is original_forward


def test_chrome_trace_is_valid_trace_event_json(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def work():
        clock.now += 0.5

    clock.now = 10.0
    tracer.wrap(work, "layer.work")()
    path = tmp_path / "trace.json"
    tracer.chrome_trace(str(path), "test", [{"ph": "X", "name": "round", "pid": 1, "tid": 2,
                                             "ts": 10.0, "dur": 0.5}])
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in spans} == {"layer.work", "round"}
    assert all(e["ts"] == 0.0 and e["dur"] == 500000.0 for e in spans)


def test_zero_count_guard_names_missing_predicted_layers():
    calls = {name: 3 for name in PREDICTED["jfat_fused"]}
    assert zero_count_violations("jfat_fused", calls) == []
    calls["attacks.pgd.cohort_pgd_attack"] = 0
    assert zero_count_violations("jfat_fused", calls) == ["attacks.pgd.cohort_pgd_attack"]
    assert surprises("jfat_fused", {"core.cascade.cascade_local_train": 5}) == [
        "core.cascade.cascade_local_train"
    ]


def test_every_predicted_layer_is_a_reported_metric():
    units = metric_units()
    for workload, names in PREDICTED.items():
        for name in names:
            assert f"{name}.calls" in units or name in units, (workload, name)
