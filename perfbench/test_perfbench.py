"""Self-tests of the benchmark's own logic, driven by injected values.

No test here reads a clock or runs a workload: the tail rule, failure
accounting, fingerprint refusal, the bound check, self-time accounting
and the raw -> CSV -> table pipeline all take their inputs as data.
Run with ``python3 -m pytest perfbench -q``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import report  # noqa: E402
from stats import (  # noqa: E402
    check_bound,
    count_degradations,
    count_failures,
    fingerprint_mismatch,
    shm_tracked,
    spread,
    tail,
)
from tracing import Tracer, self_times  # noqa: E402

FP = {
    "cpu_model": "Test CPU", "cpu_count": 2, "l2_bytes": 2 << 20,
    "l3_bytes": 300 << 20, "compiler": "cc 12.2.0", "python": "3.11.7",
    "numpy": "2.4.6", "native_threads": 2,
}


# -- tail percentile --------------------------------------------------------


def test_tail_has_exactly_ten_samples_beyond_it():
    samples = list(range(100))  # 0..99
    rec = tail(samples)
    assert rec["value"] == 89
    assert sum(1 for s in samples if s > rec["value"]) == 10
    assert rec["percentile"] == "p90.00"
    assert rec["samples"] == 100


def test_tail_ignores_sample_order():
    assert tail([5, 1, 9, 3, 7] * 5)["value"] == tail(sorted([5, 1, 9, 3, 7] * 5))["value"]


def test_tail_moves_up_with_more_samples_until_the_cap():
    assert tail(range(150))["percentile"] == "p93.33"
    assert tail(range(150))["value"] == 139
    rec = tail(range(1000))
    assert rec["percentile"] == "p95.00"
    assert rec["value"] == 949
    assert rec["beyond"] == 50


def test_tail_rules_agree_where_they_meet():
    for n in (190, 199, 200, 201, 210):
        rec = tail(range(n))
        assert rec["beyond"] >= 10
        assert rec["value"] == n - 1 - rec["beyond"]
    assert tail(range(199))["beyond"] == 10
    assert tail(range(201))["beyond"] == 10


def test_tail_of_a_short_run_is_labelled_max():
    rec = tail([3.0, 1.0, 2.0])
    assert rec == {"value": 3.0, "percentile": "max", "samples": 3, "beyond": 0}
    assert tail(range(10))["percentile"] == "max"
    assert tail(range(11))["value"] == 0


def test_tail_of_nothing_raises():
    with pytest.raises(ValueError):
        tail([])


# -- failure accounting ------------------------------------------------------


def test_clean_ops_do_not_fail():
    assert count_failures(4, 0) == {"attempted": 4, "failed": 0, "fail_frac": 0.0}


def test_failed_ops_count_against_attempted():
    assert count_failures(4, 3) == {"attempted": 4, "failed": 3, "fail_frac": 0.75}


def test_setup_degradation_fails_every_op():
    assert count_failures(5, 0, setup_degradations=1)["failed"] == 5


def test_failed_reference_fails_every_op():
    assert count_failures(5, 0, reference_ok=False)["fail_frac"] == 1.0


def test_service_faults_add_but_never_exceed_attempted():
    assert count_failures(4, 1, service_faults=2)["failed"] == 3
    assert count_failures(4, 1, service_faults=50)["failed"] == 4


def test_no_ops_counts_as_total_failure():
    assert count_failures(0, 0)["fail_frac"] == 1.0


class _Checks:
    """A stand-in workload whose op outputs say whether they pass."""

    work_per_op = 1

    @staticmethod
    def check(out):
        return out


def _window(log=()):
    import worker

    return worker.Window(_Checks(), list(log), Tracer(False))


def test_window_counts_raised_wrong_and_degraded_ops():
    import warnings

    win = _window()
    win.run_op(lambda i: True)
    win.run_op(lambda i: False)                      # failed its check

    def raises(i):
        raise RuntimeError("timed out")

    win.run_op(raises)
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        win.log = log

        def degrades(i):
            warnings.warn("native build failed; falling back to python",
                          RuntimeWarning)
            return True

        win.run_op(degrades)
    assert win.attempted == 4
    assert win.failed == 3
    assert len(win.ms) == 3                          # raised op has no latency
    assert win.errors == ["RuntimeError: timed out"]
    assert win.work == 3


def test_degradation_messages_are_recognised():
    messages = [
        "backend='native' requested but no C compiler was found; falling "
        "back to the python backend",
        "sharded execution degraded to a single shard: worker died",
        "numpy: overflow encountered in multiply",
    ]
    assert count_degradations(messages) == 2


def test_shm_tracker_warning_is_counted():
    err = ("resource_tracker: There appear to be 100 leaked shared_memory "
           "objects to clean up at shutdown\n")
    assert shm_tracked(err) == 100
    assert shm_tracked("served 3 request(s)\n") == 0


# -- fingerprint refusal -----------------------------------------------------


def test_equal_fingerprints_are_comparable():
    assert fingerprint_mismatch(FP, dict(FP)) == []


def test_fingerprint_mismatch_names_each_field():
    other = dict(FP, cpu_count=1, l2_bytes=4 << 20)
    diff = fingerprint_mismatch(FP, other)
    assert len(diff) == 2
    assert diff[0].startswith("cpu_count") and diff[1].startswith("l2_bytes")


def _record(workload, value, fp=FP, failed=0, trace=0):
    e2e = {"setup_s": value, "restart_s": value, "op_ms_p50": value,
           "op_ms_tail": value, "throughput": 1.0 / value,
           "peak_rss_mb": 100.0, "fail_frac": failed / 10}
    return {"workload": workload, "seed": 1, "trace": trace,
            "fingerprint": fp, "end_to_end": e2e,
            "units": {k: "u" for k in e2e},
            "counts": {"attempted": 10, "failed": failed}}


SPEC = {"end_to_end": [
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "throughput", "unit": "Gpt-steps/s", "better": "higher", "bound": 0.1},
]}


def test_compare_refuses_records_from_another_machine():
    base = [_record("w", 1.0)]
    new = [_record("w", 1.0, fp=dict(FP, cpu_count=1))]
    status, text = report.compare(base, new, SPEC)
    assert status == 3
    assert text.startswith("not comparable")
    assert "cpu_count" in text


# -- bound check -------------------------------------------------------------


def test_within_bound_is_ok():
    v = check_bound([10, 10, 10, 10], [10.5, 10.5, 10.5, 10.5], "lower", 0.1)
    assert v["verdict"] == "ok"
    assert v["worse_by"] == pytest.approx(0.05)


def test_beyond_bound_regresses_in_either_direction():
    assert check_bound([10] * 4, [12] * 4, "lower", 0.1)["verdict"] == "regressed"
    assert check_bound([10] * 4, [8] * 4, "higher", 0.1)["verdict"] == "regressed"
    assert check_bound([10] * 4, [8] * 4, "lower", 0.1)["verdict"] == "ok"


def test_noisy_base_is_unresolved_unless_separated():
    base = [5, 10, 15, 20]
    assert spread(base) > 0.1
    assert check_bound(base, [14, 16, 18, 25], "lower", 0.1)["verdict"] == "unresolved"
    assert check_bound(base, [30, 31, 32, 33], "lower", 0.1)["verdict"] == "regressed"


def test_spread_is_iqr_over_median():
    assert spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


def test_compare_applies_bounds_per_workload():
    base = [_record("a", 1.0), _record("a", 1.0), _record("b", 1.0)]
    new = [_record("a", 1.02), _record("a", 1.02), _record("b", 1.5)]
    status, text = report.compare(base, new, SPEC)
    assert status == 1
    lines = text.splitlines()
    assert any(l.startswith("a ") and "op_ms_p50" in l and " ok " in l for l in lines)
    assert any(l.startswith("b ") and "op_ms_p50" in l and "regressed" in l for l in lines)


def test_compare_flags_more_failed_ops():
    status, text = report.compare([_record("a", 1.0)], [_record("a", 1.0, failed=1)], SPEC)
    assert status == 1
    assert "failed ops   regressed  0 -> 1" in text


# -- tracing -----------------------------------------------------------------


def _span(sid, parent, name, start, end, proc="p"):
    return {"id": sid, "parent": parent, "name": name, "op": 0,
            "proc": proc, "start": start, "end": end}


def test_self_time_subtracts_children_and_merges_overlaps():
    spans = [
        _span(0, None, "op", 0.0, 10.0),
        _span(1, 0, "call", 1.0, 4.0),
        _span(2, 0, "call", 3.0, 6.0),   # overlaps the first child
        _span(3, 2, "inner", 3.5, 4.5),
        _span(0, None, "op", 0.0, 2.0, proc="q"),  # same id, other process
    ]
    st = self_times(spans)
    assert st["op"] == pytest.approx(5.0 + 2.0)  # 10 - union [1, 6]; + 2
    assert st["call"] == pytest.approx(3.0 + 2.0)
    assert st["inner"] == pytest.approx(1.0)


def test_disabled_tracer_records_nothing():
    tr = Tracer(False)
    with tr.span("x"):
        pass
    assert tr.spans == []


def test_spans_nest_and_inherit_the_op_id():
    tr = Tracer(True, proc="t")
    tr.set_op(7)
    with tr.span("call"):
        with tr.span("inner"):
            pass
    inner, outer = tr.spans
    assert inner["parent"] == outer["id"]
    assert inner["op"] == outer["op"] == 7
    assert outer["parent"] is None
    with tr.span("probe", op=None):
        pass
    assert tr.spans[-1]["op"] == 7


# -- pipeline ----------------------------------------------------------------


def test_raw_to_csv_to_table(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    for i, v in enumerate([1.0, 2.0, 3.0]):
        (raw / f"w-{i}.json").write_text(json.dumps(_record("w", v)))
    traced = _record("w", 9.0, trace=1)
    traced["per_layer"] = {"runtime.bound.rev_step_ms": 4.0}
    traced["units"]["runtime.bound.rev_step_ms"] = "ms"
    (raw / "w-t.json").write_text(json.dumps(traced))
    out = tmp_path / "runs.csv"
    assert report.write_csv(report.load_records(raw), out) == 4 * 7 + 1
    text = report.table(report.read_csv(out))
    row = next(l for l in text.splitlines() if l.startswith("op_ms_p50"))
    assert "2 [1.5, 2.5] (3)" in row      # traced run left out
    row = next(l for l in text.splitlines() if l.startswith("runtime.bound.rev_step_ms"))
    assert "4 [4, 4] (1)" in row
