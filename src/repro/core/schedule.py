"""Schedule configurations for template-based scheduling (paper §5.1.3).

A :class:`MatmulSchedule` parameterizes the matmul template's task mappings.
The block tile decomposes hierarchically, mirroring the paper's running
example ``spatial(4, 2) * repeat(2, 2) * spatial(4, 8) * repeat(4, 4)``:

* ``block_warps`` — the spatial grid of warps in the thread block;
* ``warp_outer`` — how many times each warp's tile repeats;
* ``thread_layout`` — the spatial grid of the 32 lanes inside a warp;
* ``thread_tile`` — the per-thread register tile (repeat).

All tile sizes derive from hardware resources, never from input extents:
boundary tiles use predicated loads/stores, so one schedule serves every
input size (§4.3, hardware-centric schedule space).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from operator import attrgetter

from ..gpusim.device import DeviceSpec, RTX3090

__all__ = ['MatmulSchedule', 'ReduceSchedule', 'schedule_fields',
           'schedule_dict']


@dataclass(frozen=True)
class MatmulSchedule:
    block_warps: tuple[int, int] = (2, 2)      # spatial: warps in block (m, n)
    warp_outer: tuple[int, int] = (2, 2)       # repeat: warp tile repetitions
    thread_layout: tuple[int, int] = (4, 8)    # spatial: lanes in warp (m, n)
    thread_tile: tuple[int, int] = (4, 4)      # repeat: per-thread C elements
    block_k: int = 8
    double_buffer: bool = True
    split_k: int = 1

    # -- derived geometry -----------------------------------------------------
    # The measure loop and featurize read these millions of times per compile;
    # each is computed once per schedule and kept in the instance ``__dict__``,
    # outside the dataclass fields, so equality, hashing and JSON ignore it.

    @cached_property
    def block_m(self) -> int:
        return (self.block_warps[0] * self.warp_outer[0]
                * self.thread_layout[0] * self.thread_tile[0])

    @cached_property
    def block_n(self) -> int:
        return (self.block_warps[1] * self.warp_outer[1]
                * self.thread_layout[1] * self.thread_tile[1])

    @property
    def num_warps(self) -> int:
        return self.block_warps[0] * self.block_warps[1]

    @cached_property
    def threads(self) -> int:
        return self.num_warps * 32

    @property
    def smem_stages(self) -> int:
        return 2 if self.double_buffer else 1

    @cached_property
    def smem_bytes(self) -> int:
        tile_floats = self.block_m * self.block_k + self.block_k * self.block_n
        return tile_floats * 4 * self.smem_stages

    @cached_property
    def regs_per_thread(self) -> int:
        """Estimated register footprint per thread."""
        tm, tn = self.thread_tile
        wom, won = self.warp_outer
        accum = wom * tm * won * tn
        frags = wom * tm + won * tn
        staging = 0
        if self.double_buffer:
            tile_floats = self.block_m * self.block_k + self.block_k * self.block_n
            staging = tile_floats // self.threads
        return accum + frags + staging + 24  # +24 for indices/pointers

    # -- validity ---------------------------------------------------------------

    def is_valid(self, device: DeviceSpec = RTX3090) -> bool:
        """Can this schedule's kernel launch on the device at all?"""
        if self.thread_layout[0] * self.thread_layout[1] != 32:
            return False
        if self.threads > device.max_threads_per_block or self.threads < 32:
            return False
        if self.smem_bytes > device.max_shared_memory_per_block:
            return False
        if self.regs_per_thread > device.max_registers_per_thread:
            return False
        # cooperative loading must evenly cover both smem tiles
        if (self.block_m * self.block_k) % self.threads != 0:
            return False
        if (self.block_k * self.block_n) % self.threads != 0:
            return False
        if self.split_k < 1:
            return False
        return True

    def grid(self, m: int, n: int) -> tuple[int, int, int]:
        """Launch grid for a problem of size m×n (x: n-tiles, y: m-tiles, z: k-split)."""
        return (math.ceil(n / self.block_n), math.ceil(m / self.block_m), self.split_k)

    def short_repr(self) -> str:
        bm, bn, bk = self.block_m, self.block_n, self.block_k
        tag = 'db' if self.double_buffer else 'sb'
        sk = f',k{self.split_k}' if self.split_k > 1 else ''
        return (f'{bm}x{bn}x{bk}.w{self.block_warps[0]}x{self.block_warps[1]}'
                f'.t{self.thread_tile[0]}x{self.thread_tile[1]}.{tag}{sk}')


@dataclass(frozen=True)
class ReduceSchedule:
    """Schedule for the reduction template: one block per output element group."""

    block_size: int = 256          # threads per block
    items_per_thread: int = 4      # sequential reduction depth before the tree

    @property
    def tile(self) -> int:
        return self.block_size * self.items_per_thread

    def is_valid(self, device: DeviceSpec = RTX3090) -> bool:
        return (32 <= self.block_size <= device.max_threads_per_block
                and self.block_size % 32 == 0
                and (self.block_size & (self.block_size - 1)) == 0  # power of two tree
                and self.items_per_thread >= 1)


#: field names of each schedule class, in declaration order
_FIELD_NAMES = {cls: tuple(f.name for f in fields(cls))
                for cls in (MatmulSchedule, ReduceSchedule)}
_FIELD_GETTERS = {cls: attrgetter(*names)
                  for cls, names in _FIELD_NAMES.items()}


def schedule_fields(schedule) -> tuple:
    """The schedule's field values as a plain tuple, in declaration order.

    Equal to ``dataclasses.astuple(schedule)`` (every field is a scalar or a
    tuple of ints) without its recursive deep copy.  This is a schedule's
    canonical identity in record keys, rank tie-breaks and space digests.
    """
    return _FIELD_GETTERS[type(schedule)](schedule)


def schedule_dict(schedule) -> dict:
    """Field name → value, equal to ``dataclasses.asdict(schedule)``."""
    return dict(zip(_FIELD_NAMES[type(schedule)], schedule_fields(schedule)))
