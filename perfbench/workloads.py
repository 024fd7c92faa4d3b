"""The three benchmark workloads, built only from the program's public API.

Each workload has a ``setup`` (make the seeded inputs, build and warm what
the timed region needs) and a ``timed`` pass (the work the end-to-end
throughput is measured on).  Both take an optional :class:`SpanRecorder`;
with one, the same work runs through the timing wrappers of ``layers``.
A pass returns a :class:`PassResult` whose ``digest`` and ``counts`` must
repeat exactly between passes and between traced and untraced runs.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field

from repro.core import DEFAULT_CONSTRAINTS, FAST_CONSTRAINTS, T10Compiler, default_cost_model
from repro.core.codegen import generate_program
from repro.hw.simulator import ChipSimulator
from repro.hw.spec import A100_CHIP, IPU_MK2
from repro.models import build_bert, build_model, build_vit, opt_decode_session
from repro.runtime.metrics import percentile
from repro.serving import (
    BlueprintPlanner,
    CostAwareRouter,
    DecodeModel,
    FaultSchedule,
    FleetEngine,
    ForecastScaler,
    LinearTrendForecaster,
    PlanCache,
    TenantSpec,
    TrafficShape,
    Watchdog,
    batch_buckets,
    bursty_workload,
    diurnal_workload,
    flash_crowd_workload,
    merge_decode_workloads,
)

from clock import HostClock
from layers import (
    CODEGEN,
    FLEET,
    PLAN_CACHE,
    PLANNER,
    ROUTER,
    SIMULATOR,
    TRAFFIC,
    CompileCounts,
    SpanRecorder,
    TimedInterOp,
    TimedPlanCache,
    TimedRouter,
    TimedScaler,
    TimedSearchEngine,
)

#: Registry models of the existing compile bench, compiled alongside the
#: fleet's own graphs.
REGISTRY_MODELS = ("opt-125m", "bert-base", "nerf")

#: The fig30 three-tenant mix: tenant, model, share of requests, output
#: tokens, deadline factor (times ideal service time), interactive share,
#: fairness floor.
TENANT_MIX = (
    ("chat", "opt-125m", 0.6, (4, 48), 1.5, 0.75, 0.35),
    ("search", "bert", 0.25, (1, 1), 8.0, 1.0, 0.6),
    ("vision", "vit", 0.15, (1, 1), 8.0, 1.0, 0.6),
)
PROMPT_TOKENS = (16, 64)
#: Mean offered load as a share of fleet capacity; the diurnal swing of
#: +-MIX_AMPLITUDE, MIX_CYCLES times over the trace, puts the peaks above
#: capacity.
MIX_LOAD = 0.8
MIX_AMPLITUDE = 0.5
MIX_CYCLES = 2
MIX_CHIPS = 4


class CheckFailed(Exception):
    """An output check failed: the program produced a wrong result."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()[:16]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class PassResult:
    """One timed pass: wall seconds, cost in calibration units (see
    ``clock``), work items, and what must repeat."""

    wall_s: float
    items: int
    cal: float = 0.0
    digest: str = ""
    counts: dict = field(default_factory=dict)
    outcome: dict = field(default_factory=dict)
    """Virtual, seed-determined results (exact guards)."""
    detail: object = None


def mix_deployments(num_layers: int) -> list[DecodeModel]:
    """The fig30 deployments: OPT-125m decode plus single-pass BERT and ViT."""
    return [
        DecodeModel(
            name="opt-125m",
            decode_builder=opt_decode_session("125m", num_layers=num_layers, kv_len=1024),
            max_batch_size=8,
            prefill_chunk=64,
        ),
        DecodeModel(
            name="bert",
            decode_builder=lambda batch: build_bert(batch, seq_len=64, num_layers=num_layers),
            max_batch_size=4,
            prefill_chunk=64,
        ),
        DecodeModel(
            name="vit",
            decode_builder=lambda batch: build_vit(batch, num_layers=num_layers),
            max_batch_size=4,
            prefill_chunk=64,
        ),
    ]


# --------------------------------------------------------------------------- #
# compile-fleet
# --------------------------------------------------------------------------- #
@dataclass
class CompileState:
    graphs: list
    simulators: dict


class CompileFleet:
    """Cold-compile every graph the fig30 fleet serves, then simulate it."""

    name = "compile-fleet"

    def setup(self, seed: int, recorder: SpanRecorder | None = None) -> CompileState:
        graphs = []
        for chip in (IPU_MK2, A100_CHIP):
            default_cost_model(chip)
            for model in mix_deployments(num_layers=2):
                for bucket in batch_buckets(model.max_batch_size):
                    graphs.append((chip, model.decode_builder(bucket)))
        graphs += [(IPU_MK2, build_model(name, 1)) for name in REGISTRY_MODELS]
        random.Random(seed).shuffle(graphs)
        simulators = {chip.name: ChipSimulator(chip) for chip in (IPU_MK2, A100_CHIP)}
        return CompileState(graphs, simulators)

    def fingerprint(self, state: CompileState) -> str:
        return digest((chip.name, graph.name, len(graph)) for chip, graph in state.graphs)

    def timed(self, state: CompileState, recorder: SpanRecorder | None = None) -> PassResult:
        if recorder is not None:
            return self._timed_stages(state, recorder)

        def compile_and_simulate(chip, graph):
            cache = PlanCache(jobs=1)
            compiled = cache.get_or_compile(graph, chip, DEFAULT_CONSTRAINTS).compiled
            cache.close()
            simulated = state.simulators[chip.name].run(compiled.program) if compiled.ok else None
            return chip, graph, compiled, simulated

        # One clock segment per graph, so the calibration follows the host's
        # speed through the pass.
        clock = HostClock()
        results = [clock.time(lambda: compile_and_simulate(*item)) for item in state.graphs]
        counts = {
            "sketched": sum(c.sketched_candidates for _, _, c, _ in results),
            "materialized": sum(c.materialized_plans for _, _, c, _ in results),
            "greedy_steps": sum(
                len(c.schedule.search_history) for _, _, c, _ in results if c.ok
            ),
            "program_steps": sum(len(c.program) for _, _, c, _ in results if c.ok),
        }
        result = self._result(clock.wall_s, results, counts, detail=results)
        result.cal = clock.cal
        return result

    def _timed_stages(self, state: CompileState, recorder: SpanRecorder) -> PassResult:
        """The same compiles with each stage called (and timed) on its own:
        intra-op search, inter-op reconcile, codegen, simulate."""
        counts = CompileCounts()
        results = []
        stages = []
        start = time.perf_counter()
        for chip, graph in state.graphs:
            compiler = T10Compiler(
                chip,
                cost_model=default_cost_model(chip),
                constraints=DEFAULT_CONSTRAINTS,
                jobs=1,
            )
            engine = TimedSearchEngine(compiler.engine, recorder, counts)
            inter_op = TimedInterOp(compiler.inter_op, recorder, counts)
            search = engine.search_graph(graph, compiler.intra_op)
            check(search.ok, f"{graph.name} on {chip.name}: {search.error}")
            schedule = inter_op.reconcile(search.pareto)
            span = recorder.begin(CODEGEN, detail=graph.name)
            program = generate_program(graph, schedule, chip)
            recorder.end(span)
            span = recorder.begin(SIMULATOR, detail=graph.name)
            simulated = state.simulators[chip.name].run(program)
            recorder.end(span)
            stages.append((chip, graph, compiler, search, schedule, program))
            results.append((chip, graph, None, simulated))
        wall = time.perf_counter() - start
        compile_counts = {
            "sketched": counts.sketched,
            "materialized": counts.materialized,
            "greedy_steps": counts.greedy_steps,
            "program_steps": sum(len(s[5]) for s in stages),
        }
        result = self._result(wall, results, compile_counts, detail=stages)
        result.counts["frontier_plans"] = counts.frontier_plans
        return result

    def _result(self, wall, results, counts, detail) -> PassResult:
        ok = [sim for _, _, _, sim in results if sim is not None and sim.ok]
        failed = len(results) - len(ok)
        outcome = {
            "sent": len(results),
            "succeeded": len(ok),
            "failed": failed,
            "failed_frac": failed / len(results),
            "sim_model_latency_ms": geomean(sim.total_time * 1e3 for sim in ok) if ok else 0.0,
            "comm_fraction": (
                sum(sim.intercore_time for sim in ok) / sum(sim.total_time for sim in ok)
                if ok
                else 0.0
            ),
        }
        pass_digest = digest(
            (chip.name, graph.name, sim.status if sim else "oom", sim.total_time if sim else 0)
            for chip, graph, _, sim in results
        )
        return PassResult(
            wall_s=wall,
            items=len(results),
            digest=pass_digest,
            counts=counts,
            outcome=outcome,
            detail=detail,
        )

    def check_pass(self, state: CompileState, result: PassResult) -> None:
        check(
            result.outcome["succeeded"] == result.outcome["sent"],
            f"{result.outcome['failed']} of {result.outcome['sent']} graphs did not compile ok",
        )

    def check_traced(self, untraced: PassResult, traced: PassResult) -> None:
        """The stage-by-stage compile must equal ``T10Compiler.compile`` via
        the plan cache, and every streaming frontier must equal the eager
        reference search."""
        for (_, _, compiled, _), stage in zip(untraced.detail, traced.detail):
            chip, graph, _, search, schedule, program = stage
            label = f"{graph.name} on {chip.name}"
            check(compiled.pareto_plans == search.pareto, f"{label}: frontiers differ")
            check(compiled.schedule == schedule, f"{label}: schedules differ")
            check(compiled.program == program, f"{label}: programs differ")
        seen: dict[tuple, list] = {}
        for chip, graph, compiler, search, _, _ in traced.detail:
            for operator in graph.operators:
                key = (chip.name, operator.signature())
                seen.setdefault(key, [compiler, operator, []])[2].append(
                    search.pareto[operator.name]
                )
        for (chip_name, _), (compiler, operator, frontiers) in seen.items():
            reference, _ = compiler.intra_op.search_reference(operator)
            for frontier in frontiers:
                check(
                    frontier == reference,
                    f"{operator.name} on {chip_name}: streaming frontier differs "
                    "from search_reference",
                )

    def layer_metrics(
        self, state: CompileState, result: PassResult, recorder: SpanRecorder, tracer
    ) -> dict:
        counts = result.counts
        return {
            "core.intra_op.sketched": counts["sketched"],
            "core.intra_op.materialized": counts["materialized"],
            "core.intra_op.frontier_yield": counts["frontier_plans"] / counts["materialized"],
            "core.inter_op.greedy_steps": counts["greedy_steps"],
            "core.codegen.codegen_s": recorder.total(CODEGEN),
            "core.codegen.program_steps": counts["program_steps"],
            "hw.simulator.simulate_s": recorder.total(SIMULATOR),
            "hw.simulator.comm_fraction": result.outcome["comm_fraction"],
        }


# --------------------------------------------------------------------------- #
# The serving workloads
# --------------------------------------------------------------------------- #
@dataclass
class FleetState:
    engine: FleetEngine
    requests: list
    run_kwargs: dict
    make_scaler: object = None
    programs_ms: list = field(default_factory=list)


def _build_engine(deployments, tenants, *, num_chips, chip_classes, recorder):
    cache = TimedPlanCache(recorder) if recorder is not None else PlanCache(jobs=1)
    router = CostAwareRouter()
    if recorder is not None:
        router = TimedRouter(router, recorder)
    return FleetEngine(
        deployments,
        tenants=tenants,
        chip=IPU_MK2,
        num_chips=num_chips,
        chip_classes=chip_classes,
        router=router,
        constraints=FAST_CONSTRAINTS,
        plan_cache=cache,
    )


def _warm(engine: FleetEngine, classes) -> list:
    """Warm every deployment on every class; return the simulated latency
    (ms) of every warmed program."""
    engine.warm()
    return [
        engine.iteration_latency(model.name, bucket, chip_class=chip) * 1e3
        for model in engine.deployments
        for chip in classes
        for bucket in batch_buckets(model.max_batch_size)
    ]


def _span(recorder, name, fn):
    if recorder is None:
        return fn()
    span = recorder.begin(name)
    value = fn()
    recorder.end(span)
    return value


class FleetWorkload:
    """Common replay, checks and metrics of the fleet workloads."""

    def fingerprint(self, state: FleetState) -> str:
        return digest(
            (r.request_id, r.tenant, r.model, r.arrival_time, r.prompt_tokens,
             r.max_new_tokens, r.deadline)
            for r in state.requests
        ) + digest(state.programs_ms)

    def before_replay(self, state: FleetState) -> None:
        """Reset what a previous replay left behind in the engine."""

    def timed(self, state: FleetState, recorder: SpanRecorder | None = None) -> PassResult:
        self.before_replay(state)
        kwargs = dict(state.run_kwargs)
        scaler = None
        if state.make_scaler is not None:
            scaler = state.make_scaler()
            if recorder is not None:
                scaler = TimedScaler(scaler, recorder)
            kwargs["scaler"] = scaler
        clock = HostClock()
        report = clock.time(
            lambda: _span(recorder, FLEET, lambda: state.engine.run(state.requests, **kwargs))
        )
        faults = report.faults
        counts = {
            "iterations": report.iterations,
            "preemptions": report.preemptions,
            "shed": report.shed,
            "rebinds": report.rebinds,
            "plan_cache_misses": report.cache.misses,
            "requeued": faults.requeued,
            "failovers": faults.failovers,
            "lost_tokens": faults.lost_tokens,
            "retry_drops": faults.retry_drops,
            "brownout_sheds": faults.brownout_sheds,
            "provision_ups": report.provision_ups,
        }
        if recorder is not None:
            router = state.engine.router
            counts["route_calls"] = router.calls
            counts["route_refused"] = router.refused
            counts["scaler_ticks"] = scaler.calls if scaler is not None else 0
        ok = [record for record in report.completed if record.ok]
        tpot = [record.time_per_output_token for record in ok]
        outcome = {
            "sent": len(state.requests),
            "succeeded": len(ok),
            "failed": report.shed,
            "failed_frac": report.shed / len(state.requests),
            "sim_model_latency_ms": geomean(state.programs_ms),
            "slo_attainment": report.slo_attainment,
            "goodput_per_chip_s": report.goodput_per_chip_second,
            "ttft_p50_ms": percentile([r.time_to_first_token for r in ok], 50) * 1e3,
            "ttft_p99_ms": percentile([r.time_to_first_token for r in ok], 99) * 1e3,
            "tpot_p50_ms": percentile(tpot, 50) * 1e3,
            "tpot_p99_ms": percentile(tpot, 99) * 1e3,
            "queue_wait_p99_ms": percentile(
                [r.admitted_time - r.request.arrival_time for r in ok], 99
            ) * 1e3,
            "tokens_per_iteration": report.total_tokens / report.iterations,
            "provisioned_chip_s": report.provisioned_chip_seconds,
        }
        pass_digest = digest(
            (r.request.request_id, r.status, r.replica, r.tokens_generated,
             r.admitted_time, r.first_token_time, r.completion_time, r.preemptions,
             r.requeues)
            for r in report.completed
        )
        return PassResult(
            wall_s=clock.wall_s,
            items=len(state.requests),
            cal=clock.cal,
            digest=pass_digest,
            counts=counts,
            outcome=outcome,
            detail=report,
        )

    def check_pass(self, state: FleetState, result: PassResult) -> None:
        report = result.detail
        ids = [record.request.request_id for record in report.completed]
        check(len(ids) == len(set(ids)), "a request id appears more than once")
        check(
            sorted(ids) == sorted(r.request_id for r in state.requests),
            "the report's request ids differ from the ids sent",
        )
        sent: dict[str, int] = {}
        for request in state.requests:
            sent[request.tenant] = sent.get(request.tenant, 0) + 1
        for tenant, count in sent.items():
            served = [r for r in report.completed if r.request.tenant == tenant]
            ok = sum(1 for r in served if r.ok)
            shed = sum(1 for r in served if not r.ok)
            check(ok + shed == count, f"tenant {tenant}: ok {ok} + shed {shed} != sent {count}")
        for record in report.completed:
            if record.ok:
                check(
                    record.request.arrival_time
                    <= record.admitted_time
                    <= record.first_token_time
                    <= record.completion_time,
                    f"request {record.request.request_id}: arrival <= admitted <= "
                    "first token <= completion does not hold",
                )

    def check_traced(self, untraced: PassResult, traced: PassResult) -> None:
        pass

    def layer_metrics(
        self, state: FleetState, result: PassResult, recorder: SpanRecorder, tracer
    ) -> dict:
        cache = state.engine.plan_cache
        counts = cache.counts
        programs = cache.compiled
        outcome = result.outcome
        return {
            "core.intra_op.sketched": counts.sketched,
            "core.intra_op.materialized": counts.materialized,
            "core.intra_op.frontier_yield": (
                counts.frontier_plans / counts.materialized if counts.materialized else 0.0
            ),
            "core.inter_op.greedy_steps": counts.greedy_steps,
            # Codegen runs inside T10Compiler.compile with no public seam to
            # wrap, so the fleet reports the program's own "codegen" span.
            "core.codegen.codegen_s": obs_span_total(tracer, "codegen"),
            "core.codegen.program_steps": sum(len(c.program) for c in programs if c.ok),
            "serving.traffic.generate_s": recorder.total(TRAFFIC),
            "serving.plan_cache.lookups": cache.lookups,
            "serving.plan_cache.misses": cache.misses,
            "serving.plan_cache.compile_s": recorder.total(PLAN_CACHE, detail_prefix="compile"),
            "serving.router.route_calls": result.counts["route_calls"],
            "serving.router.route_s": recorder.total(ROUTER),
            "serving.router.refused": result.counts["route_refused"],
            "serving.router.rebinds": result.counts["rebinds"],
            "serving.fleet.self_s": recorder.self_time(FLEET),
            "serving.fleet.iterations": result.counts["iterations"],
            "serving.fleet.preemptions": result.counts["preemptions"],
            "serving.fleet.shed": result.counts["shed"],
            "serving.fleet.queue_wait_p99_ms": outcome["queue_wait_p99_ms"],
            "serving.fleet.tokens_per_iteration": outcome["tokens_per_iteration"],
            "serving.faults.requeued": result.counts["requeued"],
            "serving.faults.failovers": result.counts["failovers"],
            "serving.faults.lost_tokens": result.counts["lost_tokens"],
            "serving.faults.retry_drops": result.counts["retry_drops"],
            "serving.faults.brownout_sheds": result.counts["brownout_sheds"],
            "serving.faults.restart_compile_s": recorder.total(
                PLAN_CACHE, detail_prefix="compile replica"
            ),
            "serving.planner.plan_calls": result.counts["scaler_ticks"],
            "serving.planner.plan_s": recorder.total(PLANNER),
            "serving.planner.provision_ups": result.counts["provision_ups"],
            "serving.planner.provisioned_chip_s": (
                outcome["provisioned_chip_s"] if result.counts["scaler_ticks"] else 0.0
            ),
        }


def obs_span_total(tracer, name: str) -> float:
    """Summed duration of the program's own wall spans called ``name``."""
    return sum(event.dur for event in tracer.events() if event.name == name)


class FleetOutage(FleetWorkload):
    """The fig30 three-tenant mix on fig31's fleet (2 IPU + 2 A100-class
    chips): the GPU class dies mid-run and restarts cold, under fig31's
    watchdog policy."""

    name = "fleet-outage"
    num_requests = 8_000
    gpu_chips = (2, 3)
    #: The class dies near the second diurnal peak, while it holds work, and
    #: is down for 2% of the trace.  Longer outages leave two IPU replicas
    #: for three models; the router is then re-offered every parked request
    #: at every freed iteration, and replay time swings 5x between seeds.
    kill_at = 0.6
    downtime = 0.02

    def setup(self, seed: int, recorder: SpanRecorder | None = None) -> FleetState:
        deployments = mix_deployments(num_layers=1)
        tenants = [TenantSpec(name, fairness_floor=floor) for name, *_, floor in TENANT_MIX]
        chip_classes = {index: A100_CHIP for index in self.gpu_chips}
        engine = _build_engine(
            deployments, tenants, num_chips=MIX_CHIPS, chip_classes=chip_classes, recorder=recorder
        )
        classes = [IPU_MK2, A100_CHIP]
        programs_ms = _warm(engine, classes)
        requests, span = _span(recorder, TRAFFIC, lambda: self.traffic(engine, seed))
        state = FleetState(engine, requests, {}, programs_ms=programs_ms)
        state.run_kwargs = self.run_kwargs(engine, span)
        return state

    def traffic(self, engine: FleetEngine, seed: int):
        """Diurnal per-tenant streams at MIX_LOAD of the fleet's capacity for
        this request mix; deadlines scale with each request's ideal service
        time, as in fig30."""
        rng = random.Random(seed)
        models = {model.name: model for model in engine.deployments}
        fleet = [A100_CHIP if i in self.gpu_chips else IPU_MK2 for i in range(engine.num_chips)]
        # Requests per second the whole fleet sustains when serving only
        # model m at full batch, for the mean request shape.
        inverse = 0.0
        for _, name, share, output, *_ in TENANT_MIX:
            model = models[name]
            iterations = model.ideal_iterations(sum(PROMPT_TOKENS) // 2, sum(output) // 2)
            capacity = sum(
                model.max_batch_size
                / (iterations * engine.iteration_latency(name, model.max_batch_size, chip_class=c))
                for c in fleet
            )
            inverse += share / capacity
        total_rate = MIX_LOAD / inverse
        duration = self.num_requests / total_rate
        streams = []
        for tenant, name, share, output, factor, interactive, _ in TENANT_MIX:
            model = models[name]
            unit = engine.iteration_latency(name, 1)
            streams.append(
                diurnal_workload(
                    name,
                    base_rate=share * total_rate,
                    period=duration / MIX_CYCLES,
                    amplitude=MIX_AMPLITUDE,
                    duration=duration,
                    seed=rng.randrange(2**31),
                    prompt_tokens=PROMPT_TOKENS,
                    output_tokens=output,
                    interactive_fraction=interactive,
                    slo_seconds=lambda p, o, u=unit, f=factor, m=model: (
                        f * m.ideal_iterations(p, o) * u
                    ),
                    tenant=tenant,
                )
            )
        requests = merge_decode_workloads(*streams)
        spans = [max(r.arrival_time for r in stream) for stream in streams]
        return requests, (min(spans), max(spans))

    def run_kwargs(self, engine, span) -> dict:
        min_span, max_span = span
        unit = engine.iteration_latency("opt-125m", 1)
        schedule = FaultSchedule.class_outage(
            list(self.gpu_chips),
            at=self.kill_at * min_span,
            downtime=self.downtime * max_span,
            cold_cache=True,
            warmup_delay=2.0 * unit,
        )
        watchdog = Watchdog(
            detection_delay=2.0 * unit,
            degraded_shed_queue=4,
            retry_budget=4,
            brownout_watermark=0.9,
        )
        return {"faults": schedule, "watchdog": watchdog}

    def before_replay(self, state: FleetState) -> None:
        # A cold restart re-warms under the scope replica<i>-gen<g>; drop
        # those entries so every replay re-compiles them as the first did.
        for index in range(state.engine.num_replicas):
            for generation in range(1, 16):
                state.engine.plan_cache.evict_scope(f"replica{index}-gen{generation}")


class FleetFlashScaler(FleetWorkload):
    """fig32's single-model trace (diurnal, MMPP-spiky and 16x flash-crowd
    tenants) on 6 IPU chips under the forecast-ahead scaler."""

    name = "fleet-flash-scaler"
    model = "opt-125m"
    horizon_intervals = 800
    prompt_tokens = (16, 128)
    output_tokens = (4, 48)

    def setup(self, seed: int, recorder: SpanRecorder | None = None) -> FleetState:
        deployment = DecodeModel(
            name=self.model,
            decode_builder=opt_decode_session("125m", num_layers=1, kv_len=1024),
            max_batch_size=4,
            prefill_chunk=64,
        )
        tenants = [TenantSpec("steady"), TenantSpec("spiky"), TenantSpec("flash")]
        engine = _build_engine(
            [deployment], tenants, num_chips=6, chip_classes=None, recorder=recorder
        )
        programs_ms = _warm(engine, [IPU_MK2])
        unit = engine.iteration_latency(self.model, 1)
        mean_prompt, mean_output = sum(self.prompt_tokens) // 2, sum(self.output_tokens) // 2
        mean_iterations = deployment.ideal_iterations(mean_prompt, mean_output)
        replica_rate = deployment.max_batch_size / (
            mean_iterations * engine.iteration_latency(self.model, deployment.max_batch_size)
        )
        interval = 24 * unit
        provision_delay = 8 * interval
        requests = _span(
            recorder,
            TRAFFIC,
            lambda: self.traffic(seed, deployment, unit, replica_rate, interval),
        )
        shapes = {
            self.model: TrafficShape(
                mean_prompt=mean_prompt,
                mean_output=mean_output,
                slo_seconds=1.25 * mean_iterations * unit,
            )
        }

        def make_scaler():
            return ForecastScaler(
                BlueprintPlanner.for_engine(engine, headroom=1.2),
                shapes,
                interval=interval,
                provision_delay=provision_delay,
                make_forecaster=lambda: LinearTrendForecaster(window=8),
            )

        state = FleetState(
            engine, requests, {}, make_scaler=make_scaler, programs_ms=programs_ms
        )
        return state

    def traffic(self, seed, deployment, unit, replica_rate, interval):
        rng = random.Random(seed)
        horizon = self.horizon_intervals * interval
        shared = dict(
            prompt_tokens=self.prompt_tokens,
            output_tokens=self.output_tokens,
            interactive_fraction=0.9,
            slo_seconds=lambda p, o: 1.25 * deployment.ideal_iterations(p, o) * unit,
        )
        return merge_decode_workloads(
            diurnal_workload(
                self.model,
                base_rate=0.9 * replica_rate,
                period=0.6 * horizon,
                amplitude=0.7,
                duration=horizon,
                seed=rng.randrange(2**31),
                tenant="steady",
                **shared,
            ),
            bursty_workload(
                self.model,
                quiet_rate=0.15 * replica_rate,
                burst_rate=2.2 * replica_rate,
                mean_quiet=20 * interval,
                mean_burst=7 * interval,
                duration=horizon,
                seed=rng.randrange(2**31),
                tenant="spiky",
                **shared,
            ),
            flash_crowd_workload(
                self.model,
                base_rate=0.15 * replica_rate,
                start=0.3 * horizon,
                ramp=12 * interval,
                hold=12 * interval,
                decay=8 * interval,
                peak_multiplier=16.0,
                duration=horizon,
                seed=rng.randrange(2**31),
                tenant="flash",
                **shared,
            ),
        )


WORKLOADS = {
    workload.name: workload
    for workload in (CompileFleet, FleetFlashScaler, FleetOutage)
}
