"""CUDA occupancy calculation.

Given a kernel's per-block resource usage, compute how many thread blocks an
SM can host concurrently (the minimum over the thread, shared-memory,
register-file, and block-count limits) and the resulting warp occupancy.
This reproduces the resource story in paper §2.1: "The number of maximum
resident thread blocks per SM is limited by the size of shared memory,
register file, and warp scheduling units."
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .device import DeviceSpec

__all__ = ['Occupancy', 'compute_occupancy',
           'occupancy_features', 'OCCUPANCY_FEATURE_NAMES']


@dataclass(frozen=True)
class Occupancy:
    resident_blocks_per_sm: int
    resident_warps_per_sm: int
    occupancy: float          # resident warps / max warps, in [0, 1]
    limited_by: str           # 'threads' | 'shared_memory' | 'registers' | 'blocks' | 'launch'

    @property
    def viable(self) -> bool:
        return self.resident_blocks_per_sm >= 1


@lru_cache(maxsize=4096, typed=True)
def compute_occupancy(device: DeviceSpec, threads_per_block: int,
                      smem_bytes_per_block: int, regs_per_thread: int) -> Occupancy:
    """Resident blocks/SM and occupancy for the given per-block footprint.

    A pure function of its (hashable) arguments returning a frozen value,
    so it is memoized: the measure loop asks about the same few footprints
    for every candidate of every problem.
    """
    if threads_per_block <= 0:
        raise ValueError('threads_per_block must be positive')
    if threads_per_block > device.max_threads_per_block:
        return Occupancy(0, 0, 0.0, 'launch')
    if smem_bytes_per_block > device.max_shared_memory_per_block:
        return Occupancy(0, 0, 0.0, 'shared_memory')
    if regs_per_thread > device.max_registers_per_thread:
        # the compiler would spill instead; callers model spilling separately,
        # occupancy treats the request as clamped
        regs_per_thread = device.max_registers_per_thread

    limits = {
        'threads': device.max_threads_per_sm // threads_per_block,
        'blocks': device.max_blocks_per_sm,
    }
    if smem_bytes_per_block > 0:
        limits['shared_memory'] = device.shared_memory_per_sm // smem_bytes_per_block
    if regs_per_thread > 0:
        limits['registers'] = device.registers_per_sm // (regs_per_thread * threads_per_block)

    limiting = min(limits, key=lambda k: limits[k])
    resident_blocks = limits[limiting]
    if resident_blocks == 0:
        return Occupancy(0, 0, 0.0, limiting)

    warps_per_block = (threads_per_block + device.warp_size - 1) // device.warp_size
    resident_warps = resident_blocks * warps_per_block
    occupancy = min(1.0, resident_warps / device.max_warps_per_sm)
    return Occupancy(resident_blocks, resident_warps, occupancy, limiting)


#: the limiter one-hot is ordered to match :attr:`Occupancy.limited_by`'s
#: documented categories — a stable order is part of the feature contract
#: (learned cost models persist nothing, but their determinism tests compare
#: feature vectors across runs)
_LIMITERS = ('threads', 'shared_memory', 'registers', 'blocks', 'launch')

OCCUPANCY_FEATURE_NAMES: tuple[str, ...] = (
    'occupancy',
    'resident_blocks_per_sm',
    'resident_warps_per_sm',
) + tuple(f'limited_by_{name}' for name in _LIMITERS)


def occupancy_features(device: DeviceSpec, threads_per_block: int,
                       smem_bytes_per_block: int,
                       regs_per_thread: int) -> tuple[float, ...]:
    """Occupancy summary as a fixed-width numeric feature vector.

    Returns, in the order of :data:`OCCUPANCY_FEATURE_NAMES`: the warp
    occupancy in ``[0, 1]``, the resident block and warp counts per SM, and
    a one-hot encoding of the limiting resource.  Learned cost models
    (:mod:`repro.tune`) consume this — the limiter one-hot is what lets a
    linear model discover e.g. that register-limited schedules underperform
    on a given device without hand-crafting that interaction.
    """
    occ = compute_occupancy(device, threads_per_block,
                            smem_bytes_per_block, regs_per_thread)
    return (float(occ.occupancy),
            float(occ.resident_blocks_per_sm),
            float(occ.resident_warps_per_sm),
            ) + tuple(1.0 if occ.limited_by == name else 0.0
                      for name in _LIMITERS)
