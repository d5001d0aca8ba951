"""Tests of the benchmark's own code; run with
``python3 -m pytest perfbench/test_perfbench.py``."""

import json
import sys
import types
from pathlib import Path

import pytest

from measure import (
    E2E_UNITS,
    PER_LAYER_UNITS,
    Patches,
    SpanRecorder,
    install_spans,
    tail_percentile,
)
from reference import REF_PASS_S, HostGauge


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_only_direct_children():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        leaf()
        leaf()

    def outer():
        clock.now += 4.0
        middle()
        leaf()
        clock.now += 8.0

    leaf = rec.wrap("leaf", leaf)
    middle = rec.wrap("middle", middle)
    rec.wrap("outer", outer)()

    assert rec.calls == {"leaf": 3, "middle": 1, "outer": 1}
    assert rec.self_s == {"leaf": 3.0, "middle": 2.0, "outer": 12.0}
    # self times add up to the root span's duration
    assert sum(rec.self_s.values()) == clock.now


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def failing():
        clock.now += 1.0
        raise ValueError("boom")

    def outer():
        try:
            failing()
        except ValueError:
            pass
        clock.now += 2.0

    failing = rec.wrap("failing", failing)
    rec.wrap("outer", outer)()
    assert rec.self_s == {"failing": 1.0, "outer": 2.0}


def test_tail_percentile_needs_ten_samples_beyond():
    fifty = [float(i) for i in range(1, 51)]
    assert tail_percentile(fifty) == (80.0, 40.0)
    assert tail_percentile(fifty[:10]) is None
    assert tail_percentile(fifty[:49]) is None  # p80 would leave 9 beyond
    assert tail_percentile(range(100))[0] == 90.0
    assert tail_percentile(range(250))[0] == 95.0
    assert tail_percentile(range(1000))[0] == 99.0


def test_host_gauge_samples_evenly_and_leaves_out_its_own_time():
    clock = FakeClock()

    def slow_pass():  # the host runs the reference pass at half speed
        clock.now += 2 * REF_PASS_S

    gauge = HostGauge(every_s=1.0, clock=clock, run_pass=slow_pass)
    assert gauge.tick() == 0.0  # the first tick only starts the schedule
    clock.now += 0.5
    assert gauge.tick() == 0.0
    clock.now += 2.0  # 2.5 s since the start: two passes are due
    assert gauge.tick() == pytest.approx(4 * REF_PASS_S)
    assert len(gauge.pass_s) == 2
    clock.now += 0.4  # 0.5 s carried over + 0.4: not yet due
    assert gauge.tick() == 0.0
    clock.now += 0.1
    assert gauge.tick() == pytest.approx(2 * REF_PASS_S)
    assert len(gauge.pass_s) == 3
    assert gauge.speed() == pytest.approx(0.5)


def test_missing_span_targets_are_named_not_fatal(monkeypatch):
    layer = types.ModuleType("fake_layer")
    layer.present = lambda x: x + 1

    class Box:
        def method(self):
            return "m"

    layer.Box = Box
    layer.TABLE = {"a": lambda: "a"}
    monkeypatch.setitem(sys.modules, "fake_layer", layer)
    spans = (
        ("l.present", "fake_layer", "", "present"),
        ("l.gone", "fake_layer", "", "gone"),
        ("l.method", "fake_layer", "Box", "method"),
        ("l.gone_method", "fake_layer", "Box", "gone"),
        ("l.table", "fake_layer", "TABLE", "*"),
        ("l.gone_table", "fake_layer", "NO_TABLE", "*"),
        ("l.gone_module", "fake_layer_absent", "", "f"),
    )
    original = layer.present
    rec = SpanRecorder()
    with Patches() as patches:
        missing = install_spans(rec, patches, spans)
        assert layer.present(1) == 2
        assert Box().method() == "m"
        assert layer.TABLE["a"]() == "a"
    assert missing == ["l.gone", "l.gone_method", "l.gone_table", "l.gone_module"]
    assert rec.calls == {"l.present": 1, "l.method": 1, "l.table": 1}
    assert layer.present is original
    assert layer.TABLE["a"]() == "a" and rec.calls["l.table"] == 1


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
