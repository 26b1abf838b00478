import json

import pytest

from stochint.reports import (
    CheckResult,
    SuiteReport,
    Tracker,
    bound,
    count_zero,
    equality,
    merge_reports,
    render_json,
)


def test_equality_pass_rule():
    assert equality("x", 1.0, 1.0 + 5e-13, 1e-12).passed
    assert not equality("x", 1.0, 1.0 + 2e-12, 1e-12).passed


def test_bound_pass_rule():
    assert bound("x", 0.5, 1.0, 0.0).passed
    assert bound("x", 1.0, 1.0, 1e-10).passed
    assert not bound("x", 1.0 + 1e-9, 1.0, 1e-10).passed


def test_count_zero():
    assert count_zero("violations", 0).passed
    assert not count_zero("violations", 3).passed


def test_tracker_emits_declared_checks_in_order():
    tracker = Tracker({"tight": 1e-12, "loose": 0.5})
    dev = tracker.eq("dev", "tight")
    excess = tracker.bound("excess", "tight")
    misses = tracker.count("misses")
    idle = tracker.eq("idle", "loose")
    for value in (3e-13, 1e-13, 4e-13):
        dev.observe(value)
    excess.observe(-2.0)  # a maximum starts at 0, as max(0.0, ...) does
    for violated in (False, True, True):
        misses.count(violated)
    rep = SuiteReport("demo", 0, "")
    tracker.emit(rep)
    assert rep.checks == [
        equality("dev", 4e-13, 0.0, 1e-12),
        bound("excess", 0.0, 0.0, 1e-12),
        count_zero("misses", 2),
        equality("idle", 0.0, 0.0, 0.5),
    ]


def test_tracker_notes_a_maximum_that_observed_nothing():
    tracker = Tracker({"tight": 1e-12})
    tracker.eq("seen", "tight").observe(-1.0)  # observed, though it reports 0
    tracker.eq("idle_dev", "tight")
    tracker.bound("idle_excess", "tight")
    tracker.count("quiet")  # a counter is only called on a violation
    rep = SuiteReport("demo", 0, "")
    tracker.emit(rep)
    assert [c.lhs for c in rep.checks] == [0.0] * 4
    assert rep.notes == [
        "idle_dev: no value was observed, so it reports 0",
        "idle_excess: no value was observed, so it reports 0",
    ]


@pytest.mark.parametrize("values", [(float("nan"),), (3e-13, float("nan")), (-2.0, 5.0, float("nan"))])
def test_nan_observation_raises_naming_the_check(values):
    # NaN compares False with everything, so a plain maximum would keep 0 and pass
    tracker = Tracker({"tight": 1e-12})
    dev = tracker.eq("dev", "tight")
    *finite, nan = values
    for value in finite:
        dev.observe(value)
    with pytest.raises(FloatingPointError, match="check dev observed NaN"):
        dev.observe(nan)
    assert dev.value == max([0.0, *finite])


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        CheckResult("x", "approx", 0.0, 0.0, 0.0)


def make_report() -> SuiteReport:
    rep = SuiteReport("demo", 42, "uniform, cells=2")
    rep.add(equality("one", 1.0, 1.0, 0.0))
    rep.add(bound("two", 1.0 / 3.0, 0.5, 1e-10))
    rep.notes.append("a note")
    return rep


def test_report_passed_and_failures():
    rep = make_report()
    assert rep.passed
    rep.add(equality("bad", 1.0, 2.0, 1e-12))
    assert not rep.passed
    assert [c.name for c in rep.failures()] == ["bad"]


def test_render_is_valid_json_and_roundtrips():
    text = render_json(make_report())
    obj = json.loads(text)
    assert obj["schema"] == 1
    assert obj["suite"] == "demo"
    assert obj["seed"] == 42
    assert obj["checks"][1]["lhs"] == 1.0 / 3.0  # 17 digits round-trip exactly
    assert obj["checks"][0]["pass"] is True
    assert obj["notes"] == ["a note"]
    assert "wall_time_s" not in obj


def test_render_17_significant_digits():
    text = render_json(make_report())
    assert "0.33333333333333331" in text


def test_render_deterministic():
    assert render_json(make_report()) == render_json(make_report())


def test_render_rejects_non_finite():
    rep = SuiteReport("demo", 0, "g")
    rep.add(equality("inf", float("inf"), 0.0, 0.0))
    with pytest.raises(ValueError):
        render_json(rep)


def test_merge_prefixes_names():
    a = make_report()
    b = SuiteReport("other", 42, "g")
    b.add(count_zero("three", 0))
    merged = merge_reports("all", 42, "g", [a, b])
    assert [c.name for c in merged.checks] == ["demo/one", "demo/two", "other/three"]
    assert merged.passed
    assert merged.notes == ["demo: a note"]
