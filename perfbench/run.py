#!/usr/bin/env python3
"""Benchmark of the cdgcn speaker-clustering pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload long_meeting --seed 1 --seconds 15 --trace 0

With --trace 0 the run times the workload with tracing off and prints the
end-to-end metrics; with --trace 1 it runs one untraced and one traced pass
over the same corpus and prints per-layer metrics and the tracing overhead.
Gated times are scaled by a control loop timed between units (HostControl).
Every hypothesis RTTM is checked; the last stdout line is a JSON object
{"correct", "attempted", "failed", "metrics"} and the exit code is 1 when
any check fails.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so runs do not depend on how
# many cores the machine lends the process.
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import cdgcn
from pathlib import Path
data = Path(sys.argv[1]).read_bytes()
t1 = time.perf_counter()
cdgcn.load_weights(data)
t2 = time.perf_counter()
print(t2 - t0, t2 - t1)
"""
# On a shared machine a CPU's speed drifts by up to 1.5x within minutes,
# for the program and for any other code alike. A fixed pure-Python loop,
# timed between units for a tenth of the run, follows that drift: over
# runs its median correlated 0.92-0.99 with the median session or epoch
# time. The gated times are scaled by CONTROL_REF_S over its median, so
# they read as seconds on a host on which the loop takes CONTROL_REF_S.
CONTROL_SHARE = 0.1
CONTROL_REF_S = 0.004


def _control_loop() -> None:
    table: dict[int, int] = {}
    for i in range(20000):
        table[i % 977] = table.get(i % 977, 0) + i


class HostControl:
    """Times the control loop interleaved with the workload."""

    def __init__(self):
        self.samples: list[float] = []
        self.start = time.perf_counter()
        self.spent = 0.0

    def keep_up(self) -> None:
        """Run the loop until it has had CONTROL_SHARE of the time so far."""
        while self.spent < CONTROL_SHARE * (time.perf_counter() - self.start):
            t0 = time.perf_counter()
            _control_loop()
            self.samples.append(time.perf_counter() - t0)
            self.spent += self.samples[-1]


def slowness(loop_times: list[float]) -> float:
    """Median loop time over CONTROL_REF_S; above 1 the host ran slow."""
    return statistics.median(loop_times) / CONTROL_REF_S


# The fastest of several fresh interpreters: import time is mostly the
# numpy/scipy import, and a busy host only ever adds to it.
SETUP_REPEATS = 6


def measure_setup(weights: Path) -> tuple[float, float]:
    """(import cdgcn plus load_weights, load_weights alone): each the
    fastest of SETUP_REPEATS fresh interpreters, scaled by the control
    loop run between them."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    control = HostControl()
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(weights)], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(tuple(map(float, done.stdout.split())))
        control.keep_up()
    slow = slowness(control.samples)
    return min(t for t, _ in times) / slow, min(load for _, load in times) / slow


@dataclass
class Done:
    unit: object
    pass_index: int
    seconds: float
    result: object       # UnitResult, or None when the unit raised
    error: str | None
    loop_times: list     # control loop times taken during and right after the unit


def run_units(plan, control: HostControl, seconds: float | None = None,
              passes: int | None = None, tracer=None) -> list[Done]:
    """Run full passes over plan.units: `passes` of them, or else one pass
    and then round the list again until `seconds` have gone by. A unit is
    started only if half of its first-pass time still fits. The control
    loop runs after every unit and between a unit's own timed steps."""
    units = plan.units
    n = len(units)
    done: list[Done] = []
    start = time.perf_counter()
    i = 0
    while True:
        if i >= n:
            if passes is not None:
                if i >= passes * n:
                    return done
            elif time.perf_counter() - start + done[i % n].seconds / 2 >= seconds:
                return done
        unit = units[i % n]
        if tracer is not None:
            tracer.session = f"{i // n}:{unit.name}"
        mark = len(control.samples)
        t0 = time.perf_counter()
        try:
            result, error = unit.run(control.keep_up), None
        except Exception as exc:  # a failed unit is counted, never dropped
            result, error = None, f"{type(exc).__name__}: {exc}"
        took = time.perf_counter() - t0
        if tracer is not None:
            tracer.session = None
        control.keep_up()
        done.append(Done(unit, i // n, took, result, error, control.samples[mark:]))
        i += 1


class Report:
    """Checks every output of a run and collects its samples."""

    def __init__(self, done: list[Done], modes):
        import workloads

        self.seconds = sum(d.seconds for d in done)
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first_pass = []       # outputs of pass 0, in unit order
        self.sessions = []         # (seconds, speech seconds) per session unit
        self.epochs = []
        self.losses = []
        seen: dict[str, str] = {}
        for d in done:
            problems = []
            if d.error is not None:
                problems.append(d.error)
            result = d.result or workloads.UnitResult()
            self.epochs += result.epoch_seconds
            if d.pass_index == 0 and result.losses:
                self.losses = result.losses
                losses = result.losses
                if not all(map(math.isfinite, losses)) or losses[-1] >= losses[0]:
                    problems.append("training loss did not fall")
            for out in result.outputs:
                if out.key not in seen:
                    seen[out.key] = out.rttm
                    problem = workloads.check_output(out)
                    if problem:
                        problems.append(f"{out.key}: {problem}")
                elif seen[out.key] != out.rttm:
                    problems.append(f"{out.key}: output differs from the first pass")
                if d.pass_index == 0:
                    self.first_pass.append(out)
            if d.unit.session:
                self.attempted += 1
                self.sessions.append((d.seconds, result.speech_seconds))
            else:
                self.attempted += max(1, len(result.epoch_seconds))
            if problems:
                self.failed += 1
                self.errors += [f"{d.unit.name} (pass {d.pass_index}): {p}" for p in problems]
        # Each kind of step is scaled by the loop times taken beside it.
        self.slowness = slowness([t for d in done for t in d.loop_times])
        self.session_slowness = slowness([t for d in done if d.unit.session
                                          for t in d.loop_times])
        self.step_slowness = self.session_slowness if not self.epochs else slowness(
            [t for d in done if not d.unit.session for t in d.loop_times])
        self.accuracy = workloads.accuracy(self.first_pass, modes) if not self.failed else {}
        self.digest = hashlib.sha256(
            "".join(o.rttm for o in self.first_pass).encode()).hexdigest()


def end_to_end(report: Report, modes, setup: tuple[float, float]) -> tuple[dict, list]:
    """(gated metrics, every printed metric as (name, value, unit, note))."""
    session_s = [s for s, _ in report.sessions]
    steps = report.epochs or session_s
    speech = sum(sp for _, sp in report.sessions)
    setup_s, load_weights_s = setup
    gated = {
        "step_p50_s": (statistics.median(steps) / report.step_slowness, "s"),
        "speech_x_realtime": (speech * report.session_slowness / sum(session_s), "x"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    named = [("step_p50_s", gated["step_p50_s"][0], "s", "scaled to the control loop"),
             ("speech_x_realtime", gated["speech_x_realtime"][0], "x",
              f"scaled to the control loop, {speech:.0f} s of speech"),
             ("host_slowness", report.slowness, "1", "control loop median / CONTROL_REF_S"),
             ("session_p50_s", statistics.median(session_s), "s",
              f"wall, {len(session_s)} sessions")]
    if len(session_s) >= 100:
        p90 = statistics.quantiles(session_s, n=10)[-1]
        named.append(("session_p90_s", p90, "s", f"wall, {len(session_s)} sessions"))
    named.append(("speech_x_realtime_wall", speech / sum(session_s), "x", ""))
    headline = modes[-1]
    for mode in modes:
        acc = report.accuracy.get(mode, {})
        suffix = "" if mode == headline else f".{mode}"
        named.append((f"der_pct{suffix}", acc.get("der_pct", float("nan")), "%", mode))
        named.append((f"spk_count_mse{suffix}", acc.get("spk_count_mse", float("nan")),
                      "spk^2", mode))
    named.append(("failed_frac", report.failed / report.attempted, "1",
                  f"{report.failed}/{report.attempted}"))
    named.append(("peak_rss_mb", gated["peak_rss_mb"][0], "MB", ""))
    named.append(("setup_s", setup_s, "s",
                  f"fastest of {SETUP_REPEATS} interpreters, scaled to the control loop"))
    named.append(("setup_load_weights_s", load_weights_s, "s", "part of setup_s"))
    if report.epochs:
        named.append(("train_epoch_s", statistics.median(report.epochs), "s",
                      f"wall, {len(report.epochs)} epochs"))
        named.append(("train_loss_final", report.losses[-1], "bce", ""))
    named.append(("rttm_sha256", report.digest, "", "first pass, informational"))
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in gated.items()}
    return metrics, named


# per-layer metric -> (span name, field); field "total" is inclusive time
# of outermost calls, "self" is time not covered by traced callees.
LAYER_SPANS = {
    "leiden.total_s": ("leiden.leiden", "total"),
    "leiden.self_s": ("leiden.leiden", "self"),
    "leiden.local_move_s": ("leiden.local_move", "total"),
    "leiden.local_move_calls": ("leiden.local_move", "calls"),
    "leiden.refine_partition_s": ("leiden.refine_partition", "total"),
    "leiden.aggregate_graph_s": ("leiden.aggregate_graph", "total"),
    "leiden.aggregate_graph_calls": ("leiden.aggregate_graph", "calls"),
    "leiden.from_labels_s": ("leiden.from_labels", "total"),
    "leiden.from_labels_calls": ("leiden.from_labels", "calls"),
    "leiden.quality_s": ("leiden.quality", "total"),
    "leiden.quality_calls": ("leiden.quality", "calls"),
    "graphs.cosine_affinity_s": ("graphs.cosine_affinity", "total"),
    "graphs.knn_graph_s": ("graphs.knn_graph", "total"),
    "graphs.build_subgraph_s": ("graphs.build_subgraph", "total"),
    "graphs.build_subgraph_calls": ("graphs.build_subgraph", "calls"),
    "graphs.merge_subgraphs_s": ("graphs.merge_subgraphs", "total"),
    "graphs.read_embeddings_s": ("graphs.read_embeddings", "total"),
    "gcn.forward_s": ("gcn.forward", "total"),
    "gcn.forward_calls": ("gcn.forward", "calls"),
    "gcn.train_s": ("gcn.train", "total"),
    "gcn.load_weights_s": ("gcn.load_weights", "total"),
    "pipeline.run_pipeline_s": ("pipeline.run_pipeline", "total"),
    "pipeline.refine_graph_s": ("pipeline.refine_graph", "total"),
    "pipeline.self_s": ("pipeline.run_pipeline", "self"),
    "osd.belonging_s": ("osd.belonging", "total"),
    "osd.second_community_s": ("osd.second_community", "total"),
    "osd.apply_overlap_s": ("osd.apply_overlap", "total"),
    "osd.read_mask_s": ("osd.read_mask", "total"),
    "timeline.to_records_s": ("timeline.to_records", "total"),
    "timeline.write_rttm_s": ("timeline.write_rttm", "total"),
    "timeline.read_rttm_s": ("timeline.read_rttm", "total"),
    "scoring.der_s": ("scoring.der", "total"),
    "cli.main_s": ("cli.main", "total"),
    "cli.self_s": ("cli.main", "self"),
}


def per_layer(tracer, traced: Report, untraced: Report, setup) -> dict:
    """Per-layer numbers for one pass over the corpus, from the traced pass."""
    import spans

    sessions = {s.session for s in tracer.spans if s.session is not None}
    summary = spans.summarize(tracer.spans, sessions)
    pass_s, untraced_s = traced.seconds, untraced.seconds
    out = {}
    for metric, (span, field) in LAYER_SPANS.items():
        entry = summary.get(span)
        value = entry[field] if entry else 0
        out[metric] = (value, "count" if field == "calls" else "s")
    out["graphs.edges"] = (sum(v for (name, s), v in tracer.counts.items()
                               if name == "graphs.edges" and s in sessions), "count")
    graphs_per_pass = summary["leiden.leiden"]["calls"] if "leiden.leiden" in summary else 0
    out["graphs.edges_per_graph"] = (out["graphs.edges"][0] / max(1, graphs_per_pass), "count")
    out["setup.load_weights_s"] = (setup[1], "s")
    out["gcn.epoch_s"] = (statistics.median(traced.epochs) if traced.epochs else 0.0, "s")
    for metric, base in (("leiden.share_pct", "leiden.total_s"),
                         ("pipeline.refine_graph_share_pct", "pipeline.refine_graph_s"),
                         ("gcn.train_share_pct", "gcn.train_s")):
        out[metric] = (100.0 * out[base][0] / pass_s, "%")
    out["trace.pass_s"] = (pass_s, "s")
    out["trace.untraced_pass_s"] = (untraced_s, "s")
    # Each pass against its own control loop, so host drift between them cancels.
    out["trace.overhead_pct"] = (100.0 * (pass_s / traced.slowness
                                         / (untraced_s / untraced.slowness) - 1.0), "%")
    out["trace.spans"] = (len([s for s in tracer.spans if s.session in sessions]), "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cdgcn" / "__init__.py").is_file():
        print(f"perfbench: no cdgcn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = measure_setup(workloads.WEIGHTS)
        plan = workloads.WORKLOADS[args.workload](args.seed, workdir)
        plan.warm_up()
        if args.trace:
            untraced = Report(run_units(plan, HostControl(), passes=1), plan.modes)
            with Tracer() as tracer:
                report = Report(run_units(plan, HostControl(), passes=1, tracer=tracer),
                                plan.modes)
            tracer.dump(workdir.parent / f"trace-{args.workload}-{args.seed}.jsonl")
            if report.digest != untraced.digest:
                report.failed += 1
                report.errors.append("traced and untraced passes give different RTTM")
            report.attempted += untraced.attempted
            report.failed += untraced.failed
            report.errors += untraced.errors
            metrics = per_layer(tracer, report, untraced, setup)
            for name, m in metrics.items():
                print(f"{name:36s} {m['value']:>14.6g} {m['unit']}")
        else:
            report = Report(run_units(plan, HostControl(), seconds=args.seconds), plan.modes)
            metrics, named = end_to_end(report, plan.modes, setup)
            for name, value, unit, note in named:
                shown = value if isinstance(value, str) else f"{value:.6g}"
                print(f"{args.workload} {name:28s} {shown:>14s} {unit:6s} {note}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in report.errors:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    print(json.dumps({"correct": report.failed == 0, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
