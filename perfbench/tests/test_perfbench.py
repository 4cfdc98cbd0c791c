"""Tests of the benchmark itself: every workload at a tiny size, the
tracer's self-time arithmetic, and traced/untraced output identity.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cdgcn.leiden import Partition  # noqa: E402

TINY = {
    "long_meeting": dict(sessions=1, segments=60, warm_segments=30),
    "dense_raw": dict(sessions=2, segments=40, warm_segments=20),
    "short_batch": dict(sessions=3),
    "train_gcn": dict(epochs=3, heldout=2),
}


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_smoke_traced_matches_untraced(name, tmp_path):
    plan = workloads.WORKLOADS[name](7, tmp_path, **TINY[name])
    plan.warm_up()
    untraced = run.Report(run.run_units(plan, run.HostControl(), passes=1), plan.modes)
    with spans.Tracer() as tracer:
        traced = run.Report(run.run_units(plan, run.HostControl(), passes=1, tracer=tracer),
                            plan.modes)

    assert untraced.failed == 0, untraced.errors
    assert traced.failed == 0, traced.errors
    assert untraced.attempted >= len(plan.units)
    assert set(untraced.accuracy) == set(plan.modes)
    assert traced.digest == untraced.digest
    metrics = run.per_layer(tracer, traced, untraced, setup=(0.5, 0.001))
    assert metrics["leiden.total_s"]["value"] > 0
    assert metrics["trace.spans"]["value"] > 0
    metrics_e2e, named = run.end_to_end(untraced, plan.modes, setup=(0.5, 0.001))
    assert set(metrics_e2e) == {"step_p50_s", "speech_x_realtime", "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in metrics_e2e.values())


def test_timed_loop_cycles_after_the_first_pass(tmp_path):
    plan = workloads.short_batch(3, tmp_path, sessions=2)
    control = run.HostControl()
    done = run.run_units(plan, control, seconds=0.0)
    assert [d.pass_index for d in done] == [0, 0]
    done = run.run_units(plan, control, passes=2)
    assert [d.pass_index for d in done] == [0, 0, 1, 1]
    assert run.Report(done, plan.modes).failed == 0
    # The control loop had about CONTROL_SHARE of the time, and every unit
    # keeps the loop times taken beside it.
    assert control.spent >= run.CONTROL_SHARE * sum(d.seconds for d in done)
    assert all(d.loop_times for d in done)


def _span(name, start, end, parent=-1, session="s"):
    return spans.Span(name, start, end, parent, session)


def test_self_time_subtracts_covered_child_time_once():
    trace = [
        _span("outer", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),      # overlaps a: union 1..5
        _span("c", 9.0, 12.0, parent=0),     # clipped to the parent at 10
        _span("leaf", 1.5, 2.5, parent=1),
    ]
    assert spans.self_times(trace) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_summarize_counts_recursion_once_in_total():
    trace = [
        _span("f", 0.0, 4.0),
        _span("f", 1.0, 2.0, parent=0),
        _span("g", 5.0, 6.0),
        _span("g", 7.0, 8.0, session="other"),
    ]
    summary = spans.summarize(trace, {"s"})
    assert summary["f"] == {"total": pytest.approx(4.0), "self": pytest.approx(4.0),
                            "calls": 2}
    assert summary["g"]["calls"] == 1


def test_tracer_wraps_where_callers_look_and_restores(tmp_path):
    import cdgcn.pipeline as pipeline_module

    original_leiden = pipeline_module.leiden
    original_from_labels = Partition.__dict__["from_labels"]
    plan = workloads.dense_raw(5, tmp_path, **TINY["dense_raw"])
    with spans.Tracer() as tracer:
        assert isinstance(Partition.__dict__["from_labels"], classmethod)
        tracer.session = "x"
        plan.units[0].run()
    names = {s.name for s in tracer.spans}
    assert {"leiden.leiden", "leiden.local_move", "leiden.from_labels",
            "graphs.knn_graph", "pipeline.run_pipeline"} <= names
    assert tracer.counts[("graphs.edges", "x")] > 0
    assert pipeline_module.leiden is original_leiden
    assert Partition.__dict__["from_labels"] is original_from_labels


def test_check_output_rejects_invalid_hypotheses(tmp_path):
    plan = workloads.short_batch(4, tmp_path, sessions=1)
    out = plan.units[0].run().outputs[0]
    assert workloads.check_output(out) is None
    first = out.rttm.splitlines()[0].split()
    bad = [
        "not an rttm line\n",
        "".join(" ".join(first[:7] + [f"spk{i}"] + first[8:]) + "\n" for i in range(3)),
        " ".join(first[:3] + ["99999.000"] + first[4:]) + "\n",
    ]
    for text in bad:
        assert workloads.check_output(workloads.Output(out.key, out.mode, out.session, text))
