"""Additional properties of the device specs, occupancy calculator and timing model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import (
    GTX_280,
    GPUTimingModel,
    HostTimingModel,
    KernelCostProfile,
    XEON_3GHZ,
    grid_for,
    occupancy,
)


class TestOccupancyNumbers:
    def test_full_occupancy_block_sizes(self):
        # On the GTX 280 (1024 resident threads/SM, 8 blocks/SM) blocks of
        # 128, 256 and 512 threads can all reach 100% theoretical occupancy.
        for block in (128, 256, 512):
            occ = occupancy(GTX_280, grid_for(10**6, block))
            assert occ.occupancy == 1.0, block

    def test_small_blocks_are_block_limited(self):
        # 32-thread blocks: at most 8 resident blocks = 256 threads of 1024.
        occ = occupancy(GTX_280, grid_for(10**6, 32))
        assert occ.limiter == "blocks"
        assert occ.occupancy == pytest.approx(0.25)

    def test_partial_last_block_counts_whole_warps(self):
        occ = occupancy(GTX_280, grid_for(100, 96))
        assert occ.blocks_per_mp >= 1
        assert occ.warps_per_mp >= 3

    @settings(max_examples=60, deadline=None)
    @given(
        threads=st.integers(min_value=1, max_value=2_000_000),
        block=st.sampled_from([32, 64, 128, 192, 256, 384, 512]),
    )
    def test_occupancy_is_always_within_bounds(self, threads, block):
        occ = occupancy(GTX_280, grid_for(threads, block))
        assert 0.0 <= occ.occupancy <= 1.0
        assert 0.0 <= occ.active_warps_per_mp <= GTX_280.max_warps_per_mp


class TestTimingModelProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        flops=st.floats(min_value=1, max_value=1e6),
        gmem=st.floats(min_value=1, max_value=1e6),
        threads=st.integers(min_value=1, max_value=10**6),
    )
    def test_kernel_time_is_positive_and_bounded_below_by_overhead(self, flops, gmem, threads):
        model = GPUTimingModel(GTX_280)
        t = model.kernel_time(grid_for(threads, 256), KernelCostProfile(flops, gmem),
                              active_threads=threads)
        assert t.kernel_time > 0
        assert t.total_time >= GTX_280.kernel_launch_overhead

    def test_kernel_time_monotone_in_work(self):
        model = GPUTimingModel(GTX_280)
        cfg = grid_for(10**5, 256)
        base = model.kernel_time(cfg, KernelCostProfile(flops=100, gmem_bytes=100))
        more_flops = model.kernel_time(cfg, KernelCostProfile(flops=1000, gmem_bytes=100))
        more_bytes = model.kernel_time(cfg, KernelCostProfile(flops=100, gmem_bytes=1000))
        assert more_flops.kernel_time >= base.kernel_time
        assert more_bytes.kernel_time >= base.kernel_time

    def test_idle_padding_threads_do_not_add_work(self):
        model = GPUTimingModel(GTX_280)
        cfg = grid_for(1000, 256)  # 1024 threads launched
        full = model.kernel_time(cfg, KernelCostProfile(1000, 100), active_threads=1024)
        active = model.kernel_time(cfg, KernelCostProfile(1000, 100), active_threads=1000)
        assert active.kernel_time < full.kernel_time

    def test_zero_threads_costs_only_overhead(self):
        model = GPUTimingModel(GTX_280)
        t = model.kernel_time(grid_for(64, 64), KernelCostProfile(100, 100), active_threads=0)
        assert t.kernel_time == 0.0
        assert t.total_time == GTX_280.kernel_launch_overhead

    def test_unschedulable_kernel_raises(self):
        model = GPUTimingModel(GTX_280)
        with pytest.raises(ValueError):
            model.kernel_time(grid_for(1000, 256),
                              KernelCostProfile(1, 1, smem_bytes=10**6))

    def test_custom_latency_hiding_override(self):
        lenient = GPUTimingModel(GTX_280, latency_hiding_warps=1.0)
        strict = GPUTimingModel(GTX_280, latency_hiding_warps=32.0)
        cfg = grid_for(256, 256)  # one block -> low occupancy
        cost = KernelCostProfile(flops=10, gmem_bytes=4000)
        assert lenient.kernel_time(cfg, cost).memory_time < strict.kernel_time(cfg, cost).memory_time


class TestKernelTimeMemo:
    @settings(max_examples=60, deadline=None)
    @given(
        threads=st.integers(min_value=1, max_value=200_000),
        block=st.sampled_from([32, 64, 128, 256, 512]),
        flops=st.floats(min_value=0.0, max_value=1e4),
        gmem=st.floats(min_value=0.0, max_value=1e3),
        texture=st.sampled_from([0.0, 16.0]),
    )
    def test_repeated_shapes_reuse_an_identical_breakdown(
        self, threads, block, flops, gmem, texture
    ):
        warm = GPUTimingModel(GTX_280)
        cfg = grid_for(threads, block)
        cost = KernelCostProfile(flops=flops, gmem_bytes=gmem, texture_bytes=texture)
        first = warm.kernel_time(cfg, cost, active_threads=threads)
        # An equal (not identical) key hits the memo; a fresh model agrees.
        again = warm.kernel_time(
            grid_for(threads, block),
            KernelCostProfile(flops=flops, gmem_bytes=gmem, texture_bytes=texture),
            active_threads=threads,
        )
        assert again is first
        assert GPUTimingModel(GTX_280).kernel_time(cfg, cost, active_threads=threads) == first

    def test_memo_is_bounded_and_per_model(self):
        from repro.gpu.timing import KERNEL_TIME_MEMO_SIZE

        model = GPUTimingModel(GTX_280)
        other = GPUTimingModel(GTX_280, latency_hiding_warps=1.0)
        cost = KernelCostProfile(flops=10, gmem_bytes=4000)
        cfg = grid_for(256, 256)
        assert model.kernel_time(cfg, cost) != other.kernel_time(cfg, cost)
        for threads in range(1, 3 * KERNEL_TIME_MEMO_SIZE):
            model.kernel_time(cfg, cost, active_threads=threads)
            assert len(model._kernel_times) <= KERNEL_TIME_MEMO_SIZE
        assert model == GPUTimingModel(GTX_280)


class TestHostModelProperties:
    def test_memory_bound_host_workload(self):
        host = HostTimingModel(XEON_3GHZ)
        # Tiny arithmetic, huge traffic: the memory term must dominate.
        t = host.evaluation_time(total_flops=1.0, total_bytes=1e9)
        assert t == pytest.approx(1e9 / XEON_3GHZ.sustained_bandwidth)

    def test_cores_capped_at_host_core_count(self):
        a = HostTimingModel(XEON_3GHZ, cores_used=8)
        b = HostTimingModel(XEON_3GHZ, cores_used=64)
        assert a.evaluation_time(1e9) == b.evaluation_time(1e9)

    @settings(max_examples=50, deadline=None)
    @given(flops=st.floats(min_value=0, max_value=1e12))
    def test_host_time_scales_linearly(self, flops):
        host = HostTimingModel(XEON_3GHZ)
        assert host.evaluation_time(2 * flops) == pytest.approx(2 * host.evaluation_time(flops))
