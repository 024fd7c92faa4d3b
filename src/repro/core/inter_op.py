"""Holistic inter-operator memory reconciliation (paper §4.3.2, Algorithm 1).

To execute a whole model from on-chip memory, every operator is given two
plans: an *idle* plan (memory-efficient layout of its persistent tensors held
while other operators run) and an *active* plan (latency-efficient layout used
while executing).  Transitioning idle → active costs a setup phase that
redistributes weight data over the inter-core links.

Starting from the most memory-efficient idle plan for every operator, the
scheduler repeatedly "promotes" the idle plan of the operator with the best
setup-time-saved per idle-byte-added ratio, re-evaluating the end-to-end time
estimate at each step and keeping the best configuration seen.

Identical operators (e.g. the repeated layers of a transformer) share the same
Pareto frontier, so the search groups them and promotes whole groups at once —
this keeps the reconciliation pass fast even for models with hundreds of
operators, mirroring the paper's observation that the policy explores only
``sum(num idle plans)`` promising combinations instead of their product.
Each step then picks every group's active plan with one bisection into a
prefix-argmin table priced once per (group, idle plan), never a rescan.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.cost_model import CostModel
from repro.core.plan import OperatorPlan
from repro.hw.memory import OutOfChipMemoryError
from repro.hw.spec import ChipSpec


@dataclass(frozen=True)
class OperatorSchedule:
    """Final (idle, active) plan pair chosen for one operator."""

    op_name: str
    idle_plan: OperatorPlan
    active_plan: OperatorPlan
    setup_bytes: int
    setup_time_est: float
    active_time_est: float

    @property
    def total_time_est(self) -> float:
        """Setup plus active execution time estimate."""
        return self.setup_time_est + self.active_time_est


@dataclass
class ModelSchedule:
    """End-to-end schedule for a whole operator graph."""

    per_op: dict[str, OperatorSchedule]
    idle_memory_per_core: int
    est_total_time: float
    search_history: list[tuple[int, float]] = field(default_factory=list)
    """(idle memory per core, estimated end-to-end time) at every search step."""

    @property
    def est_setup_time(self) -> float:
        """Total estimated setup time across operators."""
        return sum(entry.setup_time_est for entry in self.per_op.values())

    @property
    def est_active_time(self) -> float:
        """Total estimated active execution time across operators."""
        return sum(entry.active_time_est for entry in self.per_op.values())


@dataclass
class _ActiveTable:
    """Active-plan choices of one (group, idle plan) pair at every memory budget.

    ``setup_bytes[k]`` and ``setup_time[k]`` price the idle → ``frontier[k]``
    transition; ``best[k]`` is the index minimising ``time_est + setup time``
    over ``frontier[:k + 1]`` (the earliest index wins ties, ``-1`` while no
    cost is finite).  Frontiers are memory-sorted, so the plans fitting a
    budget form a prefix and one bisection finds the best of them.
    """

    setup_bytes: list[int]
    setup_time: list[float]
    best: list[int]


@dataclass
class _OpGroup:
    """Operators that share one Pareto frontier (identical signature)."""

    names: list[str]
    frontier: list[OperatorPlan]
    idle_index: int = 0
    memories: list[int] = field(init=False, repr=False)
    """``memory_bytes`` of every frontier plan (non-decreasing)."""
    tables: dict[int, _ActiveTable] = field(default_factory=dict, repr=False)
    """Lazily built :class:`_ActiveTable` per idle index."""

    def __post_init__(self) -> None:
        self.memories = [plan.memory_bytes for plan in self.frontier]
        if any(a > b for a, b in zip(self.memories, self.memories[1:])):
            raise ValueError(f"frontier of {self.names[0]!r} is not sorted by memory_bytes")

    @property
    def count(self) -> int:
        return len(self.names)

    @property
    def idle_plan(self) -> OperatorPlan:
        return self.frontier[self.idle_index]


class InterOpScheduler:
    """Implements the greedy memory-reconciliation policy of Algorithm 1."""

    def __init__(
        self, chip: ChipSpec, cost_model: CostModel, *, max_search_steps: int = 512
    ) -> None:
        self.chip = chip
        self.cost_model = cost_model
        self.max_search_steps = max_search_steps

    # ------------------------------------------------------------------ #
    def reconcile(
        self, pareto_plans: Mapping[str, Sequence[OperatorPlan]]
    ) -> ModelSchedule:
        """Choose idle/active plans for every operator of a model.

        ``pareto_plans`` maps operator names to their Pareto frontier sorted
        by increasing memory footprint (``ValueError`` if empty or unsorted).
        Raises :class:`~repro.hw.memory.OutOfChipMemoryError` if even the most
        memory-efficient configuration cannot fit on the chip.
        """
        groups = self._group_operators(pareto_plans)
        capacity = self.chip.sram_per_core

        history: list[tuple[int, float]] = []
        best_time = float("inf")
        best_state: list[int] | None = None

        for _ in range(self.max_search_steps):
            idle_total = self._idle_total(groups)
            if idle_total > capacity:
                break
            total_time = self._estimate_total_time(groups, idle_total)
            history.append((idle_total, total_time))
            if total_time < best_time:
                best_time = total_time
                best_state = [group.idle_index for group in groups]
            promotion = self._best_promotion(groups, idle_total, capacity)
            if promotion is None:
                break
            groups[promotion].idle_index += 1

        if best_state is None or best_time == float("inf"):
            raise OutOfChipMemoryError(
                self._idle_total(groups), capacity, "inter-operator reconciliation"
            )

        for group, index in zip(groups, best_state):
            group.idle_index = index
        return self._build_schedule(groups, history)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _group_operators(
        pareto_plans: Mapping[str, Sequence[OperatorPlan]]
    ) -> list[_OpGroup]:
        groups: dict[int, _OpGroup] = {}
        for name, frontier in pareto_plans.items():
            frontier_list = list(frontier)
            if not frontier_list:
                raise ValueError(f"operator {name!r} has no feasible plan")
            # Frontiers are cached per operator signature, so identical
            # operators share the same list object; group them by identity.
            key = id(frontier)
            if key in groups:
                groups[key].names.append(name)
            else:
                groups[key] = _OpGroup(names=[name], frontier=frontier_list)
        return list(groups.values())

    @staticmethod
    def _idle_total(groups: Sequence[_OpGroup]) -> int:
        return sum(group.idle_plan.idle_bytes * group.count for group in groups)

    def _available_active(self, idle_total: int, idle_plan: OperatorPlan) -> int:
        """Per-core memory available to one operator's active plan.

        While an operator executes, its own idle (weight) footprint is
        subsumed by the active plan; every other operator keeps its idle
        footprint resident.
        """
        return self.chip.sram_per_core - idle_total + idle_plan.idle_bytes

    def _table(self, group: _OpGroup, idle_index: int) -> _ActiveTable:
        """The :class:`_ActiveTable` of ``group`` idling at ``idle_index``."""
        table = group.tables.get(idle_index)
        if table is None:
            idle_plan = group.frontier[idle_index]
            setup_bytes = [plan.setup_bytes_from(idle_plan) for plan in group.frontier]
            setup_time = [self.cost_model.setup_time(nbytes) for nbytes in setup_bytes]
            best: list[int] = []
            best_index, best_cost = -1, float("inf")
            for index, (plan, seconds) in enumerate(zip(group.frontier, setup_time)):
                cost = plan.time_est + seconds
                if cost < best_cost:
                    best_index, best_cost = index, cost
                best.append(best_index)
            table = group.tables[idle_index] = _ActiveTable(setup_bytes, setup_time, best)
        return table

    def _select_active(self, group: _OpGroup, available: int) -> int | None:
        """Frontier index of the best-fitting active plan for ``group``.

        Among the plans whose active footprint fits in ``available`` bytes,
        pick the one minimising setup-plus-execution time: a slightly slower
        plan whose weight layout matches the idle plan can beat the raw
        fastest plan once the idle→active transition is accounted for.  Falls
        back to the idle plan itself, or ``None`` when nothing fits.
        """
        fitting = bisect_right(group.memories, available)
        best = self._table(group, group.idle_index).best[fitting - 1] if fitting else -1
        if best >= 0:
            return best
        if group.idle_plan.memory_bytes <= available:
            return group.idle_index
        return None

    def _select_active_reference(
        self,
        frontier: Sequence[OperatorPlan],
        idle_plan: OperatorPlan,
        available: int,
    ) -> OperatorPlan | None:
        """Reference for :meth:`_select_active`: re-prices every plan.

        Scans all of ``frontier`` against ``idle_plan`` on each call.  Only the
        differential tests call it, to check the table lookup picks the same
        plan.
        """
        best: OperatorPlan | None = None
        best_cost = float("inf")
        for plan in frontier:
            if plan.memory_bytes > available:
                continue
            cost = plan.time_est + self.cost_model.setup_time(plan.setup_bytes_from(idle_plan))
            if cost < best_cost:
                best = plan
                best_cost = cost
        if best is None and idle_plan.memory_bytes <= available:
            best = idle_plan
        return best

    def _estimate_total_time(self, groups: Sequence[_OpGroup], idle_total: int) -> float:
        total = 0.0
        for group in groups:
            available = self._available_active(idle_total, group.idle_plan)
            active = self._select_active(group, available)
            if active is None:
                return float("inf")
            setup_time = self._table(group, group.idle_index).setup_time[active]
            total += (setup_time + group.frontier[active].time_est) * group.count
        return total

    def _best_promotion(
        self, groups: Sequence[_OpGroup], idle_total: int, capacity: int
    ) -> int | None:
        """Group whose idle-plan promotion saves the most setup time per byte."""
        best_index: int | None = None
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
            active = self._select_active(group, available)
            if active is None:
                continue
            current_setup = self._table(group, group.idle_index).setup_time[active]
            next_setup = self._table(group, group.idle_index + 1).setup_time[active]
            saved = (current_setup - next_setup) * group.count
            if delta_mem <= 0:
                if saved >= 0:
                    # A free promotion: no extra idle memory, take it eagerly.
                    return index
                continue
            ratio = saved / delta_mem
            if ratio > best_ratio:
                best_ratio = ratio
                best_index = index
        return best_index

    def _build_schedule(
        self, groups: Sequence[_OpGroup], history: list[tuple[int, float]]
    ) -> ModelSchedule:
        idle_total = self._idle_total(groups)
        per_op: dict[str, OperatorSchedule] = {}
        total_time = 0.0
        for group in groups:
            idle_plan = group.idle_plan
            available = self._available_active(idle_total, idle_plan)
            index = self._select_active(group, available)
            if index is None:
                raise OutOfChipMemoryError(
                    idle_total, self.chip.sram_per_core, group.names[0]
                )
            active = group.frontier[index]
            table = self._table(group, group.idle_index)
            setup_bytes = table.setup_bytes[index]
            setup_time = table.setup_time[index]
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
