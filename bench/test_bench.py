"""Tests of the benchmark's own logic: self times, metric names, output checks.

    python3 -m pytest -q bench
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

import checks
import tracing

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# Letters, digits, "_", "." and "-"; a letter or digit first; at most 64.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(name, start, end, parent=-1, rep=0):
    return tracing.Span(name, start, end, parent, rep, 0)


class TestSelfTimes:
    def test_nested_subtracts_direct_children_only(self):
        spans = [_span("a", 0.0, 10.0), _span("b", 1.0, 4.0, 0), _span("c", 2.0, 3.0, 1)]
        assert tracing.self_times(spans) == pytest.approx([7.0, 2.0, 1.0])

    def test_back_to_back_children(self):
        spans = [_span("a", 0.0, 10.0), _span("b", 1.0, 3.0, 0), _span("c", 3.0, 6.0, 0)]
        assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 3.0])

    def test_tracer_records_parents(self):
        t = tracing.Tracer()
        with t.span("outer"):
            with t.span("first"):
                pass
            with t.span("second"):
                pass
        assert [s.parent for s in t.spans] == [-1, 0, 0]
        own = tracing.self_times(t.spans)
        assert own[0] == pytest.approx(t.spans[0].end - t.spans[0].start - sum(own[1:]))

    def test_layer_metrics_per_repetition_and_setup_once(self):
        t = tracing.Tracer()
        t.spans = [
            _span("config.build_problem", 0.0, 1.0, rep=-1),
            _span("resna.train", 1.0, 3.0, rep=0),
            _span("crossbar.mvm.train", 1.5, 2.5, 1, rep=0),
            _span("resna.train", 3.0, 7.0, rep=1),
        ]
        t.counts["resna.train.epochs"] = 4
        m = tracing.layer_metrics(t, n_reps=2, low_fidelity_frac=0.25)
        assert m["config.build_problem.calls"] == 1.0
        assert m["resna.train.calls"] == 1.0
        assert m["resna.train.self_s"] == pytest.approx((1.0 + 4.0) / 2)
        assert m["resna.train.epoch_s"] == pytest.approx(3.0 / 2.0)
        assert m["crossbar.mvm.train.self_s"] == pytest.approx(0.5)
        assert m["mesmo.low_fidelity_frac"] == 0.25
        assert set(m) | {"trace.overhead_frac"} == set(tracing.per_layer_units())


class TestMetricNames:
    @pytest.mark.parametrize("name", ["step_s", "crossbar.mvm.train.self_s", "a-b", "0x", "x" * 64])
    def test_accepted(self, name):
        assert METRIC_NAME.fullmatch(name)

    @pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "µs", "x" * 65, "a\n"])
    def test_rejected(self, name):
        assert not METRIC_NAME.fullmatch(name)

    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        assert per_layer == tracing.per_layer_units()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
        assert len(names) == len(set(names))
        assert all(METRIC_NAME.fullmatch(n) for n in names)
        assert all(UNIT.fullmatch(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])


def _rows(costs, hvs, ok=None, phases=None):
    ok = ok or ["1"] * len(costs)
    phases = phases or ["init"] + ["opt"] * (len(costs) - 1)
    return [
        {"iteration": str(i), "phase": p, "x0": "0.5", "z1": "1.0", "y1": "-3.0", "cum_cost": repr(c),
         "hypervolume": repr(h), "ok": k}
        for i, (c, h, k, p) in enumerate(zip(costs, hvs, ok, phases))
    ]


class TestTraceChecks:
    def test_good_trace_passes(self):
        assert checks.trace_errors(_rows([1.0, 2.0, 2.5], [0.0, 1.0, 1.0]), max_iterations=2) == []

    def test_failed_row_rejected(self):
        rows = _rows([1.0, 2.0, 2.5], [0.0, 1.0, 1.0], ok=["1", "0", "1"])
        rows[1]["y1"] = ""
        errors = checks.trace_errors(rows, max_iterations=2)
        assert any("ok=0" in e for e in errors)
        assert checks.failed_rows(rows) == 1

    def test_cost_not_increasing_rejected(self):
        errors = checks.trace_errors(_rows([1.0, 2.0, 2.0], [0.0, 1.0, 1.0]), max_iterations=2)
        assert any("cum_cost" in e for e in errors)

    def test_hypervolume_decrease_rejected(self):
        errors = checks.trace_errors(_rows([1.0, 2.0, 3.0], [0.0, 1.0, 0.5]), max_iterations=2)
        assert any("hypervolume" in e for e in errors)

    def test_early_stop_rejected(self):
        errors = checks.trace_errors(_rows([1.0, 2.0], [0.0, 1.0]), max_iterations=2)
        assert any("max_iterations" in e for e in errors)

    def test_low_fidelity_picks_only_count_bearing_objectives(self):
        rows = _rows([1.0, 2.0, 3.0], [0.0, 1.0, 1.0])
        for row, z in zip(rows, ["1.0", "0.0", "1.0"]):
            row["z1"], row["z2"] = z, "0.5"
        assert checks.low_fidelity_picks(rows, (True, False)) == (1, 2)


class TestEvaluationChecks:
    def test_exact_hardware_match_passes(self):
        assert checks.evaluation_errors([0.9, -1.5, -2e-6, -3e-9], (1.5, 2e-6, 3e-9)) == []

    @pytest.mark.parametrize(
        "y",
        [[1.2, -1.5, -2e-6, -3e-9], [math.nan, -1.5, -2e-6, -3e-9], [0.9, -1.5, -2e-6, -3.0000001e-9]],
    )
    def test_bad_vectors_rejected(self, y):
        assert checks.evaluation_errors(y, (1.5, 2e-6, 3e-9))


def test_installed_wrappers_record_and_restore():
    import numpy as np
    from reramopt import mesmo, pareto, resna

    originals = (resna.mvm, mesmo.fit, pareto.non_dominated_sort)
    t = tracing.Tracer()
    with tracing.installed(t):
        assert resna.mvm is not originals[0]
        pareto.non_dominated_sort(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert (resna.mvm, mesmo.fit, pareto.non_dominated_sort) == originals
    assert [s.name for s in t.spans] == ["pareto.non_dominated_sort"]
    assert t.counts["pareto.non_dominated_sort.points"] == 3
