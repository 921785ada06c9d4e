"""Performance model (Eq. 5): lookup table, speedup math, decisions."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import AdaptiveCompso, CompsoCompressor, PerformanceModel, StepLrSchedule
from repro.core import perf_model
from repro.core.perf_model import CommLookupTable, ProfiledStats
from repro.distributed import SLINGSHOT10, SLINGSHOT11


@pytest.fixture
def grads(rng):
    return [
        (rng.standard_normal(s) * np.exp(rng.standard_normal(s))).astype(np.float32) * 1e-3
        for s in (100_000, 20_000, 300_000, 5_000)
    ]


class TestCommLookupTable:
    def test_throughput_interpolates_model(self):
        from repro.distributed.collectives import allgather_time

        lut = CommLookupTable(SLINGSHOT10)
        n = 7.3e6  # off-grid size
        direct = n / allgather_time(SLINGSHOT10, 64, n / 64, 4)
        assert lut.throughput(64, n) == pytest.approx(direct, rel=0.1)

    def test_larger_messages_higher_throughput(self):
        lut = CommLookupTable(SLINGSHOT10)
        assert lut.throughput(64, 1e8) > lut.throughput(64, 1e4)

    def test_single_rank_free(self):
        lut = CommLookupTable(SLINGSHOT10)
        assert lut.time(1, 1e9) == 0.0

    def test_nearest_gpu_count(self):
        lut = CommLookupTable(SLINGSHOT10, gpu_counts=(8, 64))
        # p=60 snaps to 64's column.
        assert lut.throughput(60, 1e7) == lut.throughput(64, 1e7)


class TestEq5:
    def test_end_to_end_speedup_formula(self):
        # Paper's example: r=50%, s=10x -> 1.8x end to end.
        assert PerformanceModel.end_to_end_speedup(10.0, 0.5) == pytest.approx(1.818, abs=0.01)

    def test_no_comm_no_gain(self):
        assert PerformanceModel.end_to_end_speedup(100.0, 0.0) == 1.0

    def test_comm_speedup_accounts_overhead(self):
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        fast = ProfiledStats(L_o=1e8, L_c=5e6, T_comp=1e11, T_decomp=1e11, r=0.4)
        slow = ProfiledStats(L_o=1e8, L_c=5e6, T_comp=1e8, T_decomp=1e8, r=0.4)
        assert pm.comm_speedup(fast) > pm.comm_speedup(slow)
        assert pm.comm_speedup(slow) < 1.0  # slow compressor is a net loss

    def test_better_ratio_better_speedup(self):
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        hi = ProfiledStats(1e8, 4e6, 1e11, 1e11, 0.4)
        lo = ProfiledStats(1e8, 4e7, 1e11, 1e11, 0.4)
        assert pm.comm_speedup(hi) > pm.comm_speedup(lo)


class TestProfiling:
    def test_profile_measures_real_sizes(self, grads):
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        stats = pm.profile(grads, CompsoCompressor(4e-3, 4e-3), r=0.4)
        assert stats.L_o == sum(g.nbytes for g in grads)
        assert 1 < stats.ratio < 200

    def test_aggregation_reduces_compressed_size_overheads(self, grads):
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        c = CompsoCompressor(4e-3, 4e-3)
        s1 = pm.profile(grads, c, r=0.4, aggregation=1)
        s4 = pm.profile(grads, c, r=0.4, aggregation=4)
        assert s4.T_comp > s1.T_comp  # fewer kernel invocations

    def test_choose_aggregation_prefers_m_gt_1(self, grads):
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        m, scores = pm.choose_aggregation(grads, CompsoCompressor(4e-3, 4e-3), r=0.4)
        assert m > 1
        assert scores[m] == max(scores.values())

    def test_choose_encoder_returns_candidate(self, grads):
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        c = CompsoCompressor(4e-3, 4e-3)
        best, results = pm.choose_encoder(
            grads, c, candidates=("ans", "bitcomp", "zstd"), aggregation=4
        )
        assert best in results
        assert c.encoder_name == "ans"  # restored after probing

    def test_ans_wins_encoder_selection(self, grads):
        """Paper Table 2: ANS is the overall best encoder."""
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        best, _ = pm.choose_encoder(grads, CompsoCompressor(4e-3, 4e-3))
        assert best == "ans"

    def test_slower_network_bigger_gain(self, grads):
        """Paper section 5.2: slower fabrics benefit more from compression."""
        c = CompsoCompressor(4e-3, 4e-3)
        pm10 = PerformanceModel(SLINGSHOT10, world_size=64)
        pm11 = PerformanceModel(SLINGSHOT11, world_size=64)
        s10 = pm10.comm_speedup(pm10.profile(grads, c, r=0.4))
        s11 = pm11.comm_speedup(pm11.profile(grads, c, r=0.4))
        assert s10 >= s11 * 0.95  # at worst comparable; typically larger


class _Counting:
    """Counts aggregated compressions (one per sample at m >= len(grads))."""

    many = 0

    def compress_many(self, tensors):
        self.many += 1
        return super().compress_many(tensors)


class CountingCompso(_Counting, CompsoCompressor):
    pass


class CountingAdaptive(_Counting, AdaptiveCompso):
    pass


@pytest.fixture
def small_grads(rng):
    return [
        (rng.standard_normal(s) * np.exp(rng.standard_normal(s))).astype(np.float32) * 1e-3
        for s in (6_000, 2_000, 9_000, 500)
    ]


class TestSizeCache:
    """L_c is measured once per gradient set and reused across decisions."""

    def test_cached_decisions_equal_uncached_with_fresh_compressors(
        self, small_grads, monkeypatch
    ):
        def decide():
            pm16 = PerformanceModel(SLINGSHOT10, world_size=16)
            pm64 = PerformanceModel(SLINGSHOT10, world_size=64)
            fresh = lambda: CompsoCompressor(4e-3, 4e-3, seed=3)  # noqa: E731
            return (
                pm16.choose_aggregation(small_grads, fresh(), r=0.45),
                pm64.choose_aggregation(small_grads, fresh(), r=0.45),
                pm64.choose_encoder(small_grads, fresh(), candidates=("ans", "zstd")),
                pm64.profile(small_grads, fresh(), r=0.45, aggregation=2, k=3),
            )

        cached = decide()
        monkeypatch.setattr(perf_model, "_size_settings", lambda compressor: None)
        assert decide() == cached

    def test_in_place_mutation_misses(self, small_grads):
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        c = CountingCompso(4e-3, 4e-3)
        pm.profile(small_grads, c, r=0.4, aggregation=4, k=1)
        pm.profile(small_grads, c, r=0.4, aggregation=4, k=1)
        assert c.many == 1
        small_grads[1][7] += 1.0
        pm.profile(small_grads, c, r=0.4, aggregation=4, k=1)
        assert c.many == 2

    @pytest.mark.parametrize(
        "make, change",
        [
            (lambda: CountingCompso(4e-3, 4e-3), lambda c: c.set_bounds(2e-3, 4e-3)),
            (lambda: CountingCompso(4e-3, 4e-3), lambda c: c.set_encoder("zstd")),
            (lambda: CountingAdaptive(StepLrSchedule(first_lr_drop=1)), lambda c: c.step()),
        ],
        ids=["set_bounds", "set_encoder", "adaptive_step"],
    )
    def test_setting_change_misses(self, small_grads, make, change):
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        c = make()
        pm.profile(small_grads, c, r=0.4, aggregation=4, k=1)
        change(c)
        pm.profile(small_grads, c, r=0.4, aggregation=4, k=1)
        assert c.many == 2

    def test_ans_candidate_reuses_aggregation_measurement(self, small_grads):
        c = CountingCompso(4e-3, 4e-3)
        PerformanceModel(SLINGSHOT10, world_size=16).choose_aggregation(
            small_grads, c, r=0.4, candidates=(4,)
        )
        pm64 = PerformanceModel(SLINGSHOT10, world_size=64)
        pm64.choose_aggregation(small_grads, c, r=0.4, candidates=(4,))
        assert c.many == 1  # shared across PerformanceModel instances
        _, results = pm64.choose_encoder(
            small_grads, c, candidates=("ans", "zstd"), aggregation=4
        )
        assert c.many == 2  # only zstd was compressed
        assert results["ans"][0] == pm64.profile(small_grads, c, r=0.4, aggregation=4, k=1).L_c

    def test_profile_compresses_only_missing_samples(self, small_grads):
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        c = CountingCompso(4e-3, 4e-3)
        pm.profile(small_grads, c, r=0.4, aggregation=4, k=1)
        pm.profile(small_grads, c, r=0.4, aggregation=4, k=3)
        assert c.many == 3

    def test_hit_leaves_rng_untouched(self, small_grads):
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        c = CompsoCompressor(4e-3, 4e-3)
        pm.choose_aggregation(small_grads, c, r=0.4)
        state = c._rng.bit_generator.state
        pm.choose_aggregation(small_grads, c, r=0.4)
        assert c._rng.bit_generator.state == state

    def test_entry_dropped_with_compressor(self, small_grads):
        gc.collect()
        before = len(perf_model._SIZES)
        c = CompsoCompressor(4e-3, 4e-3)
        PerformanceModel(SLINGSHOT10, world_size=64).profile(small_grads, c, r=0.4, k=1)
        assert len(perf_model._SIZES) == before + 1
        ref = weakref.ref(c)
        del c
        gc.collect()
        assert ref() is None
        assert len(perf_model._SIZES) == before

    def test_choose_encoder_restores_encoder_when_a_candidate_raises(self, small_grads):
        class FailsOnZstd(CompsoCompressor):
            def compress_many(self, tensors):
                if self.encoder_name == "zstd":
                    raise RuntimeError("zstd unavailable")
                return super().compress_many(tensors)

        c = FailsOnZstd(4e-3, 4e-3)
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        with pytest.raises(RuntimeError):
            pm.choose_encoder(small_grads, c, candidates=("ans", "zstd"), aggregation=4)
        assert c.encoder_name == "ans"
