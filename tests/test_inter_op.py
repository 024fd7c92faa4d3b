"""Tests for the inter-operator memory-reconciliation scheduler (Algorithm 1)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DEFAULT_CONSTRAINTS,
    FAST_CONSTRAINTS,
    InterOpScheduler,
    IntraOpOptimizer,
    ModelSchedule,
    OperatorSchedule,
    T10Compiler,
    default_cost_model,
)
from repro.core.inter_op import _OpGroup
from repro.experiments.fig30_multitenant import _deployments
from repro.hw.memory import OutOfChipMemoryError
from repro.hw.spec import A100_CHIP, IPU_MK2, ChipSpec, KiB
from repro.ir import matmul
from repro.models import build_model, list_models
from repro.models.registry import get_entry
from repro.serving import batch_buckets


@pytest.fixture()
def scheduler(small_chip, small_cost_model):
    return InterOpScheduler(small_chip, small_cost_model)


@pytest.fixture()
def frontier_for(small_chip, small_cost_model, fast_constraints):
    optimizer = IntraOpOptimizer(small_chip, small_cost_model, fast_constraints)

    def build(name: str, m: int, k: int, n: int):
        return optimizer.pareto_plans(matmul(name, m=m, k=k, n=n))

    return build


class TestReconcile:
    def test_single_operator(self, scheduler, frontier_for):
        plans = frontier_for("mm", 256, 256, 256)
        schedule = scheduler.reconcile({"mm": plans})
        assert set(schedule.per_op) == {"mm"}
        entry = schedule.per_op["mm"]
        assert entry.active_plan in plans
        assert entry.idle_plan in plans
        assert entry.setup_time_est >= 0
        assert schedule.est_total_time > 0

    def test_multiple_operators_fit_memory(self, scheduler, frontier_for, small_chip):
        pareto = {
            "a": frontier_for("a", 256, 256, 256),
            "b": frontier_for("b", 128, 512, 128),
            "c": frontier_for("c", 512, 64, 256),
        }
        schedule = scheduler.reconcile(pareto)
        assert schedule.idle_memory_per_core <= small_chip.sram_per_core
        for name, entry in schedule.per_op.items():
            available = (
                small_chip.sram_per_core
                - schedule.idle_memory_per_core
                + entry.idle_plan.idle_bytes
            )
            assert entry.active_plan.memory_bytes <= available

    def test_identical_operators_grouped(self, scheduler, frontier_for):
        plans = frontier_for("mm", 256, 256, 256)
        schedule = scheduler.reconcile({"x": plans, "y": plans, "z": plans})
        entries = list(schedule.per_op.values())
        assert len(entries) == 3
        assert all(entry.active_plan is entries[0].active_plan for entry in entries)

    def test_history_recorded(self, scheduler, frontier_for):
        schedule = scheduler.reconcile({"mm": frontier_for("mm", 256, 256, 256)})
        assert schedule.search_history
        idle_memories = [mem for mem, _ in schedule.search_history]
        assert idle_memories == sorted(idle_memories)

    def test_best_configuration_selected(self, scheduler, frontier_for):
        schedule = scheduler.reconcile({"mm": frontier_for("mm", 256, 256, 256)})
        best_history_time = min(time for _, time in schedule.search_history)
        assert schedule.est_total_time == pytest.approx(best_history_time, rel=1e-6)

    def test_empty_frontier_rejected(self, scheduler):
        with pytest.raises(ValueError):
            scheduler.reconcile({"mm": []})

    def test_setup_plus_active_totals(self, scheduler, frontier_for):
        schedule = scheduler.reconcile({"mm": frontier_for("mm", 256, 256, 256)})
        assert schedule.est_total_time == pytest.approx(
            schedule.est_setup_time + schedule.est_active_time, rel=1e-9
        )


class TestMemoryPressure:
    def test_more_memory_never_hurts(self, small_cost_model, frontier_for, small_chip):
        """With a bigger scratchpad the reconciled estimate can only improve."""
        pareto = {
            "a": frontier_for("a", 256, 256, 256),
            "b": frontier_for("b", 512, 256, 128),
        }
        small_schedule = InterOpScheduler(small_chip, small_cost_model).reconcile(pareto)
        bigger_chip = ChipSpec(
            name="bigger",
            num_cores=small_chip.num_cores,
            sram_per_core=small_chip.sram_per_core * 4,
            core_flops=small_chip.core_flops,
            link_bandwidth=small_chip.link_bandwidth,
            link_latency=small_chip.link_latency,
            offchip_bandwidth=small_chip.offchip_bandwidth,
        )
        big_schedule = InterOpScheduler(bigger_chip, small_cost_model).reconcile(pareto)
        assert big_schedule.est_total_time <= small_schedule.est_total_time * 1.001

    def test_raises_when_nothing_fits(self, small_cost_model, frontier_for):
        tiny = ChipSpec(
            name="impossible",
            num_cores=64,
            sram_per_core=16 * KiB,
            core_flops=100e9,
            link_bandwidth=5.5e9,
            link_latency=0.4e-6,
            offchip_bandwidth=8e9,
        )
        scheduler = InterOpScheduler(tiny, small_cost_model)
        pareto = {f"op{i}": frontier_for(f"op{i}", 512, 512, 512) for i in range(4)}
        with pytest.raises(OutOfChipMemoryError):
            scheduler.reconcile(pareto)

    def test_max_search_steps_respected(self, small_chip, small_cost_model, frontier_for):
        scheduler = InterOpScheduler(small_chip, small_cost_model, max_search_steps=3)
        schedule = scheduler.reconcile({"mm": frontier_for("mm", 256, 256, 256)})
        assert len(schedule.search_history) <= 3


# --------------------------------------------------------------------------- #
# Differential oracle: the table lookup against the full rescan
# --------------------------------------------------------------------------- #
class RescanScheduler(InterOpScheduler):
    """The reconciliation as it was before the prefix-argmin tables: every
    step rescans each frontier through ``_select_active_reference`` and
    re-prices every transition."""

    def _estimate_total_time(self, groups, idle_total):
        total = 0.0
        for group in groups:
            idle_plan = group.idle_plan
            available = self._available_active(idle_total, idle_plan)
            active = self._select_active_reference(group.frontier, idle_plan, available)
            if active is None:
                return float("inf")
            setup_bytes = active.setup_bytes_from(idle_plan)
            per_op = self.cost_model.setup_time(setup_bytes) + active.time_est
            total += per_op * group.count
        return total

    def _best_promotion(self, groups, idle_total, capacity):
        best_index = None
        best_ratio = 0.0
        for index, group in enumerate(groups):
            if group.idle_index + 1 >= len(group.frontier):
                continue
            current_idle = group.frontier[group.idle_index]
            next_idle = group.frontier[group.idle_index + 1]
            delta_mem = (next_idle.idle_bytes - current_idle.idle_bytes) * group.count
            if idle_total + max(delta_mem, 0) > capacity:
                continue
            available = self._available_active(idle_total, current_idle)
            active = self._select_active_reference(group.frontier, current_idle, available)
            if active is None:
                continue
            current_setup = self.cost_model.setup_time(active.setup_bytes_from(current_idle))
            next_setup = self.cost_model.setup_time(active.setup_bytes_from(next_idle))
            saved = (current_setup - next_setup) * group.count
            if delta_mem <= 0:
                if saved >= 0:
                    return index
                continue
            ratio = saved / delta_mem
            if ratio > best_ratio:
                best_ratio = ratio
                best_index = index
        return best_index

    def _build_schedule(self, groups, history):
        idle_total = self._idle_total(groups)
        per_op = {}
        total_time = 0.0
        for group in groups:
            idle_plan = group.idle_plan
            available = self._available_active(idle_total, idle_plan)
            active = self._select_active_reference(group.frontier, idle_plan, available)
            if active is None:
                raise OutOfChipMemoryError(idle_total, self.chip.sram_per_core, group.names[0])
            setup_bytes = active.setup_bytes_from(idle_plan)
            setup_time = self.cost_model.setup_time(setup_bytes)
            for name in group.names:
                per_op[name] = OperatorSchedule(
                    op_name=name,
                    idle_plan=idle_plan,
                    active_plan=active,
                    setup_bytes=setup_bytes,
                    setup_time_est=setup_time,
                    active_time_est=active.time_est,
                )
                total_time += setup_time + active.time_est
        return ModelSchedule(
            per_op=per_op,
            idle_memory_per_core=idle_total,
            est_total_time=total_time,
            search_history=history,
        )


def reconcile_both(chip, cost_model, pareto):
    """Reconcile with the table lookup and with the rescan; each side is the
    schedule or the ``OutOfChipMemoryError`` message."""
    outcomes = []
    for scheduler in (InterOpScheduler(chip, cost_model), RescanScheduler(chip, cost_model)):
        try:
            outcomes.append(scheduler.reconcile(pareto))
        except OutOfChipMemoryError as error:
            outcomes.append(str(error))
    return outcomes


def assert_same_schedule(fast, reference):
    if isinstance(reference, str):
        assert fast == reference
        return
    assert fast.per_op == reference.per_op
    assert fast.est_total_time == reference.est_total_time
    assert fast.idle_memory_per_core == reference.idle_memory_per_core
    assert fast.search_history == reference.search_history


def _reconcile_cases():
    cases = [
        (IPU_MK2, name, lambda name=name: build_model(name, get_entry(name).batch_sizes[0]))
        for name in list_models()
    ]
    for chip in (IPU_MK2, A100_CHIP):
        for model in _deployments(num_layers=2, kv_len=1024, seq_len=64):
            for bucket in batch_buckets(model.max_batch_size):
                label = f"fig30-{model.name}-b{bucket}"
                cases.append((chip, label, lambda m=model, b=bucket: m.decode_builder(b)))
    return cases


RECONCILE_CASES = _reconcile_cases()


@pytest.mark.parametrize(
    "constraints", [DEFAULT_CONSTRAINTS, FAST_CONSTRAINTS], ids=["default", "fast"]
)
@pytest.mark.parametrize(
    ("chip", "label", "build"),
    RECONCILE_CASES,
    ids=[f"{chip.name}-{label}" for chip, label, _ in RECONCILE_CASES],
)
def test_table_lookup_matches_rescan_on_real_graphs(chip, label, build, constraints):
    compiler = T10Compiler(
        chip, cost_model=default_cost_model(chip), constraints=constraints, jobs=1
    )
    search = compiler.engine.search_graph(build(), compiler.intra_op)
    assert search.ok, search.error
    fast, reference = reconcile_both(chip, compiler.cost_model, search.pareto)
    assert_same_schedule(fast, reference)


@dataclass(frozen=True, eq=False)
class StubPlan:
    """The four things reconciliation reads from a plan."""

    memory_bytes: int
    time_est: float
    weights: tuple[int, int]
    """Per-core bytes of two weight tensors."""

    @property
    def idle_bytes(self) -> int:
        return sum(self.weights)

    def setup_bytes_from(self, idle: "StubPlan") -> int:
        return sum(max(0, mine - theirs) for mine, theirs in zip(self.weights, idle.weights))


class StubCostModel:
    @staticmethod
    def setup_time(nbytes: float) -> float:
        return 0.5 * nbytes


@st.composite
def stub_frontiers(draw):
    """Memory-sorted frontiers over small integers, so equal ``memory_bytes``
    and exact cost ties are common; an infinite ``time_est`` never wins."""
    size = draw(st.integers(min_value=1, max_value=7))
    memories = sorted(draw(st.lists(st.integers(0, 24), min_size=size, max_size=size)))
    return [
        StubPlan(
            memory_bytes=memory,
            time_est=draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf])),
            weights=(draw(st.integers(0, 4)), draw(st.integers(0, 4))),
        )
        for memory in memories
    ]


def stub_chip(sram: int) -> ChipSpec:
    return ChipSpec(
        name="stub",
        num_cores=1,
        sram_per_core=sram,
        core_flops=1.0,
        link_bandwidth=1.0,
        link_latency=0.0,
        offchip_bandwidth=1.0,
    )


@settings(max_examples=400, deadline=None)
@given(frontier=stub_frontiers(), data=st.data())
def test_select_active_matches_rescan_on_random_frontiers(frontier, data):
    """Ties go to the earliest index; a budget below every plan falls back to
    the idle plan, or to ``None`` when even that does not fit."""
    scheduler = InterOpScheduler(stub_chip(64), StubCostModel())
    idle_index = data.draw(st.integers(0, len(frontier) - 1))
    available = data.draw(st.integers(-1, 26))
    group = _OpGroup(names=["op"], frontier=frontier, idle_index=idle_index)
    index = scheduler._select_active(group, available)
    reference = scheduler._select_active_reference(
        frontier, frontier[idle_index], available
    )
    assert (None if index is None else frontier[index]) is reference


@settings(max_examples=200, deadline=None)
@given(frontiers=st.lists(stub_frontiers(), min_size=1, max_size=4), sram=st.integers(0, 60))
def test_reconcile_matches_rescan_on_random_frontiers(frontiers, sram):
    pareto = {f"op{i}": frontier for i, frontier in enumerate(frontiers)}
    # Repeated operators share their frontier list, as the plan cache does.
    pareto["op0-copy"] = frontiers[0]
    fast, reference = reconcile_both(stub_chip(sram), StubCostModel(), pareto)
    assert_same_schedule(fast, reference)


def test_unsorted_frontier_rejected(scheduler):
    plans = [StubPlan(8, 1.0, (1, 1)), StubPlan(4, 2.0, (1, 1))]
    with pytest.raises(ValueError, match="sorted"):
        scheduler.reconcile({"op": plans})
