"""Per-layer timing from outside the program: a span recorder plus thin
delegating wrappers around the public entry points of each layer.

Every wrapper only times and counts the call it forwards; none of them
changes an argument or a result, which the benchmark verifies by comparing
the virtual outcomes of traced and untraced runs.
"""

from __future__ import annotations

import gzip
import json
import time
from pathlib import Path

from repro.core import T10Compiler, default_cost_model
from repro.serving import PlanCache
from repro.serving.planner import FleetScaler
from repro.serving.plan_cache import COMPILE
from repro.serving.router import Router

#: Layer names, after the modules they time.
INTRA_OP = "core.intra_op"
INTER_OP = "core.inter_op"
CODEGEN = "core.codegen"
SIMULATOR = "hw.simulator"
TRAFFIC = "serving.traffic"
PLAN_CACHE = "serving.plan_cache"
ROUTER = "serving.router"
FLEET = "serving.fleet"
PLANNER = "serving.planner"


class SpanRecorder:
    """In-memory spans: name, start, end, parent index, request id, detail.

    ``begin``/``end`` rather than a context manager keeps the per-call cost
    of the router wrapper (one span per routed request) small.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, request_id: int | None = None, detail: str = "") -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, request_id, detail])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def self_time(self, name: str) -> float:
        """Summed self time of the spans called ``name``: each span's
        duration minus the time covered by its child spans."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        return sum(
            span[2] - span[1] - children[index]
            for index, span in enumerate(self.spans)
            if span[0] == name
        )

    def total(self, name: str, *, detail_prefix: str = "") -> float:
        """Summed duration of the spans called ``name`` whose detail starts
        with ``detail_prefix``."""
        return sum(
            span[2] - span[1]
            for span in self.spans
            if span[0] == name and span[5].startswith(detail_prefix)
        )

    def write_jsonl(self, path: Path) -> None:
        """One gzipped JSON line per span: name, start and end (seconds
        since the first span), parent index (-1 for none), request id,
        detail."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as handle:
            for name, start, end, parent, request_id, detail in self.spans:
                record = [name, start - origin, end - origin, parent, request_id, detail]
                handle.write(json.dumps(record) + "\n")


class CompileCounts:
    """Exact compiler work counted by the stage wrappers."""

    def __init__(self) -> None:
        self.sketched = 0
        self.materialized = 0
        self.frontier_plans = 0
        self.greedy_steps = 0


class TimedSearchEngine:
    """Delegates ``search_graph`` (intra-op sketch, prune, materialize and
    Pareto frontier) to a compiler's engine inside a ``core.intra_op`` span."""

    def __init__(self, inner, recorder: SpanRecorder, counts: CompileCounts) -> None:
        self._inner = inner
        self._recorder = recorder
        self._counts = counts

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def search_graph(self, graph, intra_op):
        pending = {
            op.signature() for op in graph.operators if intra_op.peek(op.signature()) is None
        }
        span = self._recorder.begin(INTRA_OP, detail=graph.name)
        result = self._inner.search_graph(graph, intra_op)
        self._recorder.end(span)
        self._counts.sketched += result.sketched_candidates
        self._counts.materialized += result.materialized_plans
        for signature in pending:
            cached = intra_op.peek(signature)
            if cached is not None:
                self._counts.frontier_plans += len(cached[0])
        return result


class TimedInterOp:
    """Delegates ``reconcile`` to a compiler's inter-op scheduler inside a
    ``core.inter_op`` span."""

    def __init__(self, inner, recorder: SpanRecorder, counts: CompileCounts) -> None:
        self._inner = inner
        self._recorder = recorder
        self._counts = counts

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def reconcile(self, pareto, *args, **kwargs):
        span = self._recorder.begin(INTER_OP)
        schedule = self._inner.reconcile(pareto, *args, **kwargs)
        self._recorder.end(span)
        self._counts.greedy_steps += len(schedule.search_history)
        return schedule


def timed_compiler(chip, constraints, recorder: SpanRecorder, counts: CompileCounts):
    """A ``T10Compiler`` (built exactly as ``PlanCache`` builds its own) whose
    search engine and inter-op scheduler are wrapped in timing spans."""
    compiler = T10Compiler(
        chip, cost_model=default_cost_model(chip), constraints=constraints, jobs=1
    )
    compiler.engine = TimedSearchEngine(compiler.engine, recorder, counts)
    compiler.inter_op = TimedInterOp(compiler.inter_op, recorder, counts)
    return compiler


class TimedPlanCache(PlanCache):
    """A ``PlanCache`` timing every ``get_or_compile`` in a
    ``serving.plan_cache`` span, with compilers whose stages are timed as
    well.  A span's detail is the lookup outcome, then the scope if any
    (``"compile replica2-gen1"`` is a cold-restart re-warm)."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.counts = CompileCounts()
        self.lookups = 0
        self.misses = 0
        self.compiled: list = []
        super().__init__(
            compiler_factory=lambda chip, constraints: timed_compiler(
                chip, constraints, recorder, self.counts
            ),
            jobs=1,
        )

    def get_or_compile(self, graph, chip, *args, **kwargs):
        span = self.recorder.begin(PLAN_CACHE)
        lookup = super().get_or_compile(graph, chip, *args, **kwargs)
        self.recorder.end(span)
        self.recorder.spans[span][5] = f"{lookup.outcome} {kwargs.get('scope', '')}".strip()
        self.lookups += 1
        if lookup.outcome == COMPILE:
            self.misses += 1
            self.compiled.append(lookup.compiled)
        return lookup


class TimedRouter(Router):
    """Delegates ``route`` inside a ``serving.router`` span per request."""

    def __init__(self, inner: Router, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder
        self.name = inner.name
        if hasattr(inner, "health_aware"):
            self.health_aware = inner.health_aware
        self.calls = 0
        self.refused = 0

    def route(self, request, view):
        span = self._recorder.begin(ROUTER, request.request_id)
        index = self._inner.route(request, view)
        self._recorder.end(span)
        self.calls += 1
        if index is None:
            self.refused += 1
        return index


class TimedScaler(FleetScaler):
    """Delegates ``plan`` (forecast plus blueprint choice) inside a
    ``serving.planner`` span per scaler tick."""

    def __init__(self, inner: FleetScaler, recorder: SpanRecorder) -> None:
        super().__init__(
            interval=inner.interval,
            provision_delay=inner.provision_delay,
            min_replicas=inner.min_replicas,
        )
        self._inner = inner
        self._recorder = recorder
        self.name = inner.name
        self.calls = 0

    def plan(self, obs):
        span = self._recorder.begin(PLANNER)
        target = self._inner.plan(obs)
        self._recorder.end(span)
        self.calls += 1
        return target
