"""Hardware specifications for the simulated accelerators.

The numbers for the Graphcore IPU MK2 and the NVIDIA A100 follow Table 3 of
the paper (and §2.1): 1,472 cores with 624 KB of scratchpad each (896 MB
total), 5.5 GB/s per-core inter-core links (~8 TB/s aggregate), 250 TFLOPS
FP16 for the IPU; 108 SMs, 312 TFLOPS FP16, ~2 TB/s HBM and a 40 MB L2 for
the A100.  ``scaled_ipu`` and ``virtual_ipu`` build the smaller/larger chips
used by the scalability study (§6.5).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.fingerprint import memoized_hash


KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB


@dataclass(frozen=True)
class ChipSpec:
    """An inter-core connected accelerator with distributed on-chip memory."""

    name: str
    num_cores: int
    sram_per_core: int
    """Scratchpad bytes available to one core."""
    core_flops: float
    """Peak FLOP/s of a single core."""
    link_bandwidth: float
    """Bytes/s one core can send (or receive) over the inter-core fabric."""
    link_latency: float
    """Fixed latency of one inter-core transfer (seconds)."""
    offchip_bandwidth: float
    """Bytes/s to off-chip memory (host links or HBM if present)."""
    vector_width: int = 64
    """Preferred alignment of the innermost dimension for the AMP unit."""
    compute_launch_overhead: float = 1.2e-6
    """Fixed per-step overhead of launching a compute set (seconds)."""
    sync_overhead: float = 0.8e-6
    """BSP-style synchronisation overhead between steps (seconds)."""
    local_mem_bandwidth: float = 100e9
    """Bytes/s a core can stream from its own scratchpad."""
    shift_buffer_bytes: int = 8 * KiB
    """Temporary buffer reserved per core for the pseudo-shift (paper §5)."""
    num_chips: int = 1
    """Number of physical chips exposed as one device (virtual IPU)."""
    inter_chip_bandwidth: float = 160e9
    """Aggregate bandwidth of the inter-chip links (bytes/s)."""

    @property
    def total_sram(self) -> int:
        """Total distributed on-chip memory in bytes."""
        return self.num_cores * self.sram_per_core

    @property
    def total_flops(self) -> float:
        """Chip-wide peak FLOP/s."""
        return self.num_cores * self.core_flops

    @property
    def aggregate_link_bandwidth(self) -> float:
        """All-to-all inter-core bandwidth (bytes/s)."""
        return self.num_cores * self.link_bandwidth

    @property
    def cores_per_chip(self) -> int:
        """Cores on one physical chip."""
        return self.num_cores // self.num_chips

    def effective_link_bandwidth(self) -> float:
        """Per-core link bandwidth accounting for inter-chip bottlenecks.

        On a virtual IPU a fraction of shift traffic crosses the chip
        boundary and is bottlenecked by the IPU-Link; the paper reports the
        average effective inter-core bandwidth dropping by 26%–33% with more
        than one chip.  We derive the same effect from first principles: the
        probability that a ring neighbour lives on another chip is
        ``1 - 1/num_chips`` scaled by the ratio of link to inter-chip
        bandwidth per crossing core.
        """
        if self.num_chips <= 1:
            return self.link_bandwidth
        cross_fraction = 1.0 - 1.0 / self.num_chips
        # Cores whose ring neighbour is off-chip share the inter-chip links.
        crossing_cores = max(1, int(self.cores_per_chip * cross_fraction * 0.25))
        cross_bw = min(self.link_bandwidth, self.inter_chip_bandwidth / crossing_cores)
        return (1.0 - cross_fraction) * self.link_bandwidth + cross_fraction * cross_bw

    def with_cores(self, num_cores: int) -> "ChipSpec":
        """Copy of this spec restricted/expanded to ``num_cores`` cores."""
        return replace(self, name=f"{self.name}-{num_cores}c", num_cores=num_cores)

    def fingerprint(self) -> str:
        """Stable content hash of every field of the spec.

        Programs compiled for one chip are only valid on a chip with
        identical resources, so the fingerprint covers all fields (including
        the display name, which disambiguates presets that happen to share
        numbers).  Used by the serving plan cache as part of its key.
        """
        return memoized_hash(self, "chip-spec")


@dataclass(frozen=True)
class GPUSpec:
    """A global-shared-memory GPU modelled with a roofline (paper §6.6)."""

    name: str
    num_sms: int
    peak_flops: float
    hbm_bandwidth: float
    l2_cache_bytes: int
    shared_mem_per_sm: int
    kernel_launch_overhead: float = 4.0e-6
    compute_efficiency: float = 0.72
    """Fraction of peak FLOPS real kernels sustain (TensorRT-tuned)."""
    bandwidth_efficiency: float = 0.85
    """Fraction of peak HBM bandwidth real kernels sustain."""

    @property
    def effective_flops(self) -> float:
        """Sustained FLOP/s."""
        return self.peak_flops * self.compute_efficiency

    @property
    def effective_bandwidth(self) -> float:
        """Sustained HBM bytes/s."""
        return self.hbm_bandwidth * self.bandwidth_efficiency


# --------------------------------------------------------------------------- #
# Presets (Table 3)
# --------------------------------------------------------------------------- #
IPU_MK2 = ChipSpec(
    name="IPU-MK2",
    num_cores=1472,
    sram_per_core=624 * KiB,
    core_flops=250e12 / 1472,
    link_bandwidth=5.5e9,
    link_latency=0.4e-6,
    offchip_bandwidth=8e9,
    compute_launch_overhead=1.0e-6,
    sync_overhead=0.5e-6,
)

A100 = GPUSpec(
    name="A100",
    num_sms=108,
    peak_flops=312e12,
    hbm_bandwidth=1.94e12,
    l2_cache_bytes=40 * MiB,
    shared_mem_per_sm=192 * KiB,
)


def gpu_chip(gpu: GPUSpec = A100) -> ChipSpec:
    """The fig22 GPU baseline recast as a :class:`ChipSpec` hardware class.

    The serving fleet routes over one heterogeneous :class:`WorkerPool`, so
    the GPU must be expressible in the same per-core vocabulary the compiler
    and simulator target.  The mapping treats each SM as a core and HBM as
    the fabric every core shares:

    * ``core_flops`` — sustained FLOPS split evenly across SMs;
    * ``sram_per_core`` — an HBM-sized slice per SM.  A GPU stages weights
      through HBM rather than pinning them in scratchpad, so on-chip
      capacity never binds at these model sizes; a large per-core budget
      models exactly that (feasibility non-binding), while the bandwidth
      numbers below carry the real cost;
    * ``link_bandwidth`` / ``local_mem_bandwidth`` — each SM's share of
      sustained HBM bandwidth: inter-core traffic and local streaming both
      round-trip through the same global memory;
    * launch/sync overheads — kernel-launch-scale (microseconds), an order
      above the IPU's BSP sync, which is what makes small decode iterations
      comparatively expensive on the GPU and routing genuinely non-trivial.
    """
    per_sm_bandwidth = gpu.effective_bandwidth / gpu.num_sms
    return ChipSpec(
        name=f"{gpu.name}-chip",
        num_cores=gpu.num_sms,
        sram_per_core=256 * MiB,
        core_flops=gpu.effective_flops / gpu.num_sms,
        link_bandwidth=per_sm_bandwidth,
        link_latency=1.5e-6,
        offchip_bandwidth=25e9,
        vector_width=32,
        compute_launch_overhead=gpu.kernel_launch_overhead,
        sync_overhead=gpu.kernel_launch_overhead / 2,
        local_mem_bandwidth=per_sm_bandwidth,
    )


#: Default second hardware class of the heterogeneous serving pool (fig30).
A100_CHIP = gpu_chip(A100)


def scaled_ipu(num_cores: int) -> ChipSpec:
    """An IPU-like chip with a different number of cores (same per-core specs).

    Used to emulate smaller chips for the scalability study by restricting the
    number of cores the compiler may use (paper §6.5).
    """
    if num_cores <= 0:
        raise ValueError(f"num_cores must be positive, got {num_cores}")
    return IPU_MK2.with_cores(num_cores)


def virtual_ipu(num_chips: int) -> ChipSpec:
    """A Virtual IPU exposing ``num_chips`` MK2 chips as a single device.

    Matches the V-IPU configuration of §6.5: 2,944 or 5,888 cores with the
    inter-chip traffic funnelled through 160 GB/s IPU-Links, which lowers the
    effective inter-core bandwidth.
    """
    if num_chips < 1:
        raise ValueError(f"num_chips must be >= 1, got {num_chips}")
    cores = IPU_MK2.num_cores * num_chips
    return ChipSpec(
        name=f"V-IPU-{num_chips}x",
        num_cores=cores,
        sram_per_core=IPU_MK2.sram_per_core,
        core_flops=IPU_MK2.core_flops,
        link_bandwidth=IPU_MK2.link_bandwidth,
        link_latency=IPU_MK2.link_latency,
        offchip_bandwidth=IPU_MK2.offchip_bandwidth * num_chips,
        vector_width=IPU_MK2.vector_width,
        compute_launch_overhead=IPU_MK2.compute_launch_overhead,
        sync_overhead=IPU_MK2.sync_overhead,
        local_mem_bandwidth=IPU_MK2.local_mem_bandwidth,
        shift_buffer_bytes=IPU_MK2.shift_buffer_bytes,
        num_chips=num_chips,
        inter_chip_bandwidth=160e9,
    )
