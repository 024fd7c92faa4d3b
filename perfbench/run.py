"""Benchmark of the T10 compiler and the serving fleet built on it.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` sets up several times, replays the timed pass for ``--seconds``
seconds and prints the end-to-end metrics, with throughput counted in
host-speed-normalised calibration units (see ``clock.py``).  ``--trace 1``
runs the same code once untraced and once through the per-layer timing
wrappers (with the program's own ``repro.obs`` tracer enabled), checks both
agree, and prints the per-layer metrics.  Every output check runs outside the timed
region; a failed check prints ``"correct": false`` and exits 1.  The last
line of standard output is always the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: An untraced run sets up at least SETUP_REPEATS times, and until set-up
#: has taken SETUP_MIN_SECONDS, so that a quick set-up is sampled often
#: enough for its median (``setup_s``) to be steady.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 2.0

#: Per-layer metrics and their units, in the order BENCHMARK.json lists them.
#: A metric of a layer the workload does not load reads 0.
PER_LAYER_UNITS = {
    "core.intra_op.search_s": "s",
    "core.intra_op.sketched": "count",
    "core.intra_op.materialized": "count",
    "core.intra_op.frontier_yield": "ratio",
    "core.inter_op.reconcile_s": "s",
    "core.inter_op.greedy_steps": "count",
    "core.codegen.codegen_s": "s",
    "core.codegen.program_steps": "count",
    "hw.simulator.simulate_s": "s",
    "hw.simulator.comm_fraction": "ratio",
    "serving.traffic.generate_s": "s",
    "serving.plan_cache.lookups": "count",
    "serving.plan_cache.misses": "count",
    "serving.plan_cache.compile_s": "s",
    "serving.router.route_calls": "count",
    "serving.router.route_s": "s",
    "serving.router.refused": "count",
    "serving.router.rebinds": "count",
    "serving.fleet.self_s": "s",
    "serving.fleet.iterations": "count",
    "serving.fleet.preemptions": "count",
    "serving.fleet.shed": "count",
    "serving.fleet.queue_wait_p99_ms": "ms_virtual",
    "serving.fleet.tokens_per_iteration": "ratio",
    "serving.faults.requeued": "count",
    "serving.faults.failovers": "count",
    "serving.faults.lost_tokens": "count",
    "serving.faults.retry_drops": "count",
    "serving.faults.brownout_sheds": "count",
    "serving.faults.restart_compile_s": "s",
    "serving.planner.plan_calls": "count",
    "serving.planner.plan_s": "s",
    "serving.planner.provision_ups": "count",
    "serving.planner.provisioned_chip_s": "s_virtual",
    "obs.trace_overhead_frac": "ratio",
    "obs.events": "count",
    "obs.operator_search_s": "s",
    "obs.reconcile_s": "s",
    "obs.codegen_s": "s",
    "outcome.sent": "count",
    "outcome.succeeded": "count",
    "outcome.failed": "count",
    "outcome.failed_frac": "ratio",
    "outcome.sim_model_latency_ms": "ms_virtual",
    "outcome.slo_attainment": "ratio",
    "outcome.goodput_per_chip_s": "1/s_virtual",
    "outcome.ttft_p50_ms": "ms_virtual",
    "outcome.ttft_p99_ms": "ms_virtual",
    "outcome.tpot_p50_ms": "ms_virtual",
    "outcome.tpot_p99_ms": "ms_virtual",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_cal": "1/cal",
    "peak_rss_mb": "MB",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(workload, seed: int, seconds: float) -> tuple[dict, int]:
    from workloads import check

    setup_times = []
    fingerprints = set()
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        state = None  # release the previous set-up before building the next
        start = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - start)
        fingerprints.add(workload.fingerprint(state))
    check(len(fingerprints) == 1, "set-ups from one seed made different inputs")

    # Repeat the pass while another one still fits in the window.
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1].wall_s <= seconds:
        passes.append(workload.timed(state))
    for result in passes[1:]:
        check(result.digest == passes[0].digest, "replays of one input differ")
        check(result.counts == passes[0].counts, "replays of one input differ in counts")
    workload.check_pass(state, passes[0])

    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_per_cal": statistics.median(p.items / p.cal for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(
        f"{len(passes)} passes, {len(setup_times)} set-ups; wall throughput "
        f"{statistics.median(p.items / p.wall_s for p in passes):.1f}/s, calibration kernel "
        f"{statistics.median(p.wall_s / p.cal for p in passes) * 1e3:.2f} ms",
        file=sys.stderr,
    )
    return metrics, sum(p.items for p in passes)


def traced_run(workload, seed: int, out_dir: Path) -> tuple[dict, int]:
    from layers import INTER_OP, INTRA_OP, SpanRecorder
    from repro.obs import Tracer, use_tracer
    from workloads import check, obs_span_total

    state = workload.setup(seed)
    untraced = workload.timed(state)
    workload.check_pass(state, untraced)
    state = None

    recorder = SpanRecorder()
    tracer = Tracer()
    with use_tracer(tracer):
        state = workload.setup(seed, recorder)
        traced = workload.timed(state, recorder)
    workload.check_pass(state, traced)
    check(traced.digest == untraced.digest, "traced and untraced runs differ")
    check(traced.outcome == untraced.outcome, "traced and untraced outcomes differ")
    for name, value in untraced.counts.items():
        check(traced.counts[name] == value, f"traced and untraced runs differ in {name}")
    workload.check_traced(untraced, traced)
    recorder.write_jsonl(out_dir / f"{workload.name}-seed{seed}.spans.jsonl.gz")

    metrics = dict.fromkeys(PER_LAYER_UNITS, 0)
    metrics.update(workload.layer_metrics(state, traced, recorder, tracer))
    metrics.update(
        {
            "core.intra_op.search_s": recorder.total(INTRA_OP),
            "core.inter_op.reconcile_s": recorder.total(INTER_OP),
            "obs.trace_overhead_frac": (traced.wall_s - untraced.wall_s) / untraced.wall_s,
            "obs.events": len(tracer),
            "obs.operator_search_s": obs_span_total(tracer, "operator-search"),
            "obs.reconcile_s": obs_span_total(tracer, "reconcile"),
            "obs.codegen_s": obs_span_total(tracer, "codegen"),
        }
    )
    for name in PER_LAYER_UNITS:
        if name.startswith("outcome."):
            metrics[name] = traced.outcome.get(name.removeprefix("outcome."), 0)
    return metrics, untraced.items + traced.items


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One process, no helper threads: the numeric libraries stay serial.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]()
    try:
        if args.trace:
            metrics, attempted = traced_run(workload, args.seed, OUT_DIR)
            units = PER_LAYER_UNITS
        else:
            metrics, attempted = untraced_run(workload, args.seed, args.seconds)
            units = END_TO_END_UNITS
    except CheckFailed as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    # An operation that errs or does not compile fails a check above.
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
