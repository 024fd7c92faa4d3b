"""Search constraints for the intra-operator plan enumeration (paper §4.3.1/§5).

Two user-configurable constraints prune the combinatorial plan space before
any plan reaches the cost model:

* the **parallelism constraint** requires a plan to use at least a given
  fraction of the cores (an operator spread over too few cores wastes the
  chip);
* the **padding constraint** bounds how much a partitioned axis may be padded
  to make the split even (excessive padding wastes memory and FLOPs).

The remaining knobs bound the enumeration effort itself (how many core-count
targets and factorizations are explored); tightening them trades compile time
for plan quality, which is exactly the trade-off Figure 19 of the paper
studies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.fingerprint import memoized_hash


@dataclass(frozen=True)
class SearchConstraints:
    """Tunable limits applied during intra-operator plan enumeration."""

    min_core_utilization: float = 0.9
    """A plan must use at least this fraction of the achievable cores."""
    padding_threshold: float = 0.9
    """Minimum allowed ratio (original length) / (padded length) per axis."""
    core_count_samples: int = 8
    """How many total-core-count targets to sample inside the allowed band."""
    max_factorizations_per_target: int = 250
    """Cap on the operator partition factors enumerated per core-count target."""
    max_temporal_combos: int = 36
    """Cap on temporal-factor combinations evaluated per operator partition."""
    max_plans: int = 50_000
    """Hard cap on candidate plans evaluated per operator."""

    def __post_init__(self) -> None:
        if not 0.0 < self.min_core_utilization <= 1.0:
            raise ValueError("min_core_utilization must be in (0, 1]")
        if not 0.0 < self.padding_threshold <= 1.0:
            raise ValueError("padding_threshold must be in (0, 1]")
        if self.core_count_samples < 1:
            raise ValueError("core_count_samples must be >= 1")
        if self.max_factorizations_per_target < 1:
            raise ValueError("max_factorizations_per_target must be >= 1")
        if self.max_temporal_combos < 1:
            raise ValueError("max_temporal_combos must be >= 1")
        if self.max_plans < 1:
            raise ValueError("max_plans must be >= 1")

    # ------------------------------------------------------------------ #
    def padding_ok(self, length: int, parts: int) -> bool:
        """Whether splitting ``length`` into ``parts`` respects the padding bound."""
        if parts <= 0:
            return False
        if parts > length:
            return False
        part_len = -(-length // parts)
        ratio = length / (part_len * parts)
        return ratio >= self.padding_threshold

    def max_padding_overhead(self) -> float:
        """Maximum fractional padding overhead implied by the threshold."""
        return 1.0 / self.padding_threshold - 1.0

    def relaxed(self, **overrides: object) -> "SearchConstraints":
        """Copy with selected fields overridden (used by the constraint sweep)."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    def fingerprint(self) -> str:
        """Stable content hash of the constraint setting.

        Different constraints explore different plan spaces and therefore
        produce different compiled programs; the serving plan cache includes
        this in its key.
        """
        return memoized_hash(self, "search-constraints")


#: Default constraints used by the end-to-end experiments.
DEFAULT_CONSTRAINTS = SearchConstraints()

#: A stricter/faster setting used where compile time matters more than the
#: last few percent of performance (paper §6.3: "a strict constraint setting
#: that takes only one minute to compile already yields near-optimal
#: performance").
FAST_CONSTRAINTS = SearchConstraints(
    core_count_samples=3,
    max_factorizations_per_target=60,
    max_temporal_combos=12,
)

#: A thorough setting for small operators or small simulated chips (tests).
THOROUGH_CONSTRAINTS = SearchConstraints(
    min_core_utilization=0.5,
    core_count_samples=16,
    max_factorizations_per_target=2000,
    max_temporal_combos=128,
)
