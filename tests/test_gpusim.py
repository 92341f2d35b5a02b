"""The GPU simulator substrate: occupancy, latency model, tuning clock."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim import (A100, RTX3090, KernelStats, ModelParams, PerfModel,
                          SimulatedClock, TuningCosts, compute_occupancy,
                          estimate_latency)
from repro.gpusim.stats import OVERLAP_DOUBLE_BUFFER, OVERLAP_NONE


def _stats(**kwargs):
    base = dict(name='k', grid_blocks=256, threads_per_block=256,
                flops=1e9, gmem_read_bytes=1e7, gmem_write_bytes=1e6,
                smem_bytes_per_block=16 * 1024, regs_per_thread=64)
    base.update(kwargs)
    return KernelStats(**base)


class TestOccupancy:
    def test_thread_limited(self):
        occ = compute_occupancy(RTX3090, 512, 0, 32)
        assert occ.resident_blocks_per_sm == 3           # 1536 / 512
        assert occ.limited_by == 'threads'

    def test_shared_memory_limited(self):
        occ = compute_occupancy(RTX3090, 128, 40 * 1024, 32)
        assert occ.limited_by == 'shared_memory'
        assert occ.resident_blocks_per_sm == 2           # 100KB / 40KB

    def test_register_limited(self):
        occ = compute_occupancy(RTX3090, 256, 0, 128)
        assert occ.limited_by == 'registers'
        assert occ.resident_blocks_per_sm == 2           # 65536/(128*256)

    def test_unlaunchable(self):
        assert not compute_occupancy(RTX3090, 2048, 0, 32).viable
        assert not compute_occupancy(RTX3090, 128, 64 * 1024, 32).viable

    def test_occupancy_fraction(self):
        occ = compute_occupancy(RTX3090, 256, 0, 32)
        assert occ.resident_warps_per_sm == occ.resident_blocks_per_sm * 8
        assert 0 < occ.occupancy <= 1

    def test_memo_equals_the_uncached_function(self):
        for device in (RTX3090, A100):
            for threads in (32, 96, 128, 256, 512, 1024, 1056, 2048):
                for smem in (0, 1024, 16 * 1024, 48 * 1024, 100 * 1024,
                             200 * 1024):
                    for regs in (0, 16, 64, 128, 255, 300):
                        want = compute_occupancy.__wrapped__(
                            device, threads, smem, regs)
                        assert compute_occupancy(device, threads, smem,
                                                 regs) == want
                        assert compute_occupancy(device, threads, smem,
                                                 regs) == want

    def test_memo_keeps_argument_types_apart(self):
        # shared-memory limited, so the block count takes the smem type
        as_int = compute_occupancy(RTX3090, 128, 40 * 1024, 32)
        as_float = compute_occupancy(RTX3090, 128, 40 * 1024.0, 32)
        assert as_int.limited_by == as_float.limited_by == 'shared_memory'
        assert type(as_int.resident_blocks_per_sm) is int
        assert type(as_float.resident_blocks_per_sm) is float

    @pytest.mark.parametrize('threads', [0, -32])
    def test_non_positive_threads_still_raise(self, threads):
        for _ in range(2):          # a raise is never memoized
            with pytest.raises(ValueError):
                compute_occupancy(RTX3090, threads, 0, 32)


class TestPerfModel:
    def test_more_flops_more_time(self):
        model = PerfModel(RTX3090)
        fast = model.latency(_stats(flops=1e9))
        slow = model.latency(_stats(flops=4e9))
        assert slow > fast

    def test_double_buffering_helps_balanced_kernels(self):
        """Overlap only matters when compute and memory are comparable (§3.1)."""
        model = PerfModel(RTX3090)
        balanced = dict(flops=2e9, gmem_read_bytes=6e7)
        sb = model.latency(_stats(overlap=OVERLAP_NONE, **balanced))
        db = model.latency(_stats(overlap=OVERLAP_DOUBLE_BUFFER, **balanced))
        assert db < sb
        assert sb / db > 1.2

    def test_wave_quantization(self):
        """Latency jumps at the resident-capacity boundary (Figure 20)."""
        model = PerfModel(RTX3090)
        est = model.estimate(_stats())
        capacity = est.resident_blocks_per_sm * RTX3090.num_sms
        one_wave = model.latency(_stats(grid_blocks=capacity))
        just_over = model.latency(_stats(grid_blocks=capacity + 1))
        assert just_over > one_wave * 1.5

    def test_underfilled_gpu_penalized(self):
        model = PerfModel(RTX3090)
        few = model.latency(_stats(grid_blocks=8))
        many = model.latency(_stats(grid_blocks=8 * 82, flops=1e9 * 82,
                                    gmem_read_bytes=1e7 * 82))
        # 82x the work on 82x the blocks takes far less than 82x the time
        assert many < few * 82 * 0.5

    def test_register_spill_penalty(self):
        model = PerfModel(RTX3090)
        ok = model.latency(_stats(regs_per_thread=255, threads_per_block=64))
        spilled = model.latency(_stats(regs_per_thread=300, threads_per_block=64))
        assert spilled > ok

    def test_launch_overhead_floor(self):
        tiny = _stats(grid_blocks=1, threads_per_block=32, flops=1.0,
                      gmem_read_bytes=4.0, gmem_write_bytes=4.0,
                      smem_bytes_per_block=0, regs_per_thread=16)
        assert estimate_latency(tiny) >= RTX3090.kernel_launch_overhead

    def test_unlaunchable_raises(self):
        with pytest.raises(ValueError, match='cannot launch'):
            estimate_latency(_stats(smem_bytes_per_block=64 * 1024))

    def test_ilp_lowers_occupancy_demand(self):
        model = PerfModel(RTX3090)
        low_ilp = model.latency(_stats(threads_per_block=64, grid_blocks=82, ilp=1.0))
        high_ilp = model.latency(_stats(threads_per_block=64, grid_blocks=82, ilp=16.0))
        assert high_ilp < low_ilp

    def test_devices_differ(self):
        s = _stats(gmem_read_bytes=5e8)   # memory bound
        assert estimate_latency(s, A100) < estimate_latency(s, RTX3090)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_more_overlap_never_slower(self, a, b):
        lo, hi = sorted([a, b])
        model = PerfModel(RTX3090)
        t_lo = model.latency(_stats(overlap=lo, flops=2e9, gmem_read_bytes=6e7))
        t_hi = model.latency(_stats(overlap=hi, flops=2e9, gmem_read_bytes=6e7))
        assert t_hi <= t_lo + 1e-12


class TestStatsValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            _stats(grid_blocks=0)
        with pytest.raises(ValueError):
            _stats(overlap=1.5)
        with pytest.raises(ValueError):
            _stats(coalesce_factor=0.0)

    def test_scaled(self):
        s = _stats().scaled(4)
        assert s.grid_blocks == 1024 and s.flops == 4e9

    def test_bound_classification(self):
        model = PerfModel(RTX3090)
        est = model.estimate(_stats(flops=1e12, gmem_read_bytes=1e3))
        assert est.bound == 'compute'


class TestSimulatedClock:
    def test_charges_accumulate(self):
        clock = SimulatedClock()
        clock.charge('a', 10.0)
        clock.charge('a', 5.0)
        clock.charge('b', 1.0)
        assert clock.elapsed_seconds == 16.0
        assert clock.summary() == {'a': 15.0, 'b': 1.0}

    def test_parallel_compile_batches(self):
        clock = SimulatedClock()
        costs = TuningCosts(compile_seconds=2.0, measure_seconds=0.1,
                            parallel_compile_workers=8)
        clock.charge_compile_batch(costs, 20)     # ceil(20/8)=3 batches
        assert clock.elapsed_seconds == 6.0
        clock.charge_measurements(costs, 20)
        assert clock.elapsed_seconds == 8.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().charge('x', -1.0)
