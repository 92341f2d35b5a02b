"""The serving subsystem: registry, batcher, simulator — and the cache
satellites that back it (LRU eviction, merge-on-save, schedule transfer,
compile/serve accounting split).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schedule import MatmulSchedule
from repro.graph import ops, symbol, trace
from repro.models import bert_base
from repro.models.common import WeightFactory, conv_bn_relu
from repro.runtime import (CompileReport, HidetExecutor, ScheduleCache,
                           task_family_signature)
from repro.serve import (BatchingPolicy, DynamicBatcher, ModelRegistry,
                         Request, ServerSimulator, bucket_ladder, bursty_trace,
                         format_serving_report, merge_traces, poisson_trace,
                         smallest_covering_bucket)

RNG = np.random.default_rng(7)


def tiny_cnn(batch: int):
    x = symbol([batch, 4, 12, 12], name='x')
    wf = WeightFactory(5)
    y = conv_bn_relu(wf, x, 8, kernel=3, padding=1, name='c1')
    y = ops.global_avg_pool(y)
    return trace(y, name=f'tiny_b{batch}')


@pytest.fixture(scope='module')
def registry():
    reg = ModelRegistry()
    reg.register('tiny', tiny_cnn, max_batch=8)
    return reg


# ---------------------------------------------------------------------------
# cache satellites


class TestCacheLRU:
    def test_eviction_order_and_counter(self):
        cache = ScheduleCache(max_entries=2)
        cache.put('a', 'matmul', MatmulSchedule())
        cache.put('b', 'matmul', MatmulSchedule())
        cache.put('c', 'matmul', MatmulSchedule())       # evicts 'a'
        assert 'a' not in cache and 'b' in cache and 'c' in cache
        assert cache.stats['evictions'] == 1

    def test_hit_refreshes_recency(self):
        cache = ScheduleCache(max_entries=2)
        cache.put('a', 'matmul', MatmulSchedule())
        cache.put('b', 'matmul', MatmulSchedule())
        assert cache.get('a', kind='matmul') is not None  # 'a' is now young
        cache.put('c', 'matmul', MatmulSchedule())        # evicts 'b', not 'a'
        assert 'a' in cache and 'b' not in cache

    def test_unbounded_by_default(self):
        cache = ScheduleCache()
        for i in range(100):
            cache.put(f's{i}', 'matmul', MatmulSchedule())
        assert len(cache) == 100 and cache.stats['evictions'] == 0

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError, match='max_entries'):
            ScheduleCache(max_entries=0)


class TestMergeOnSave:
    def test_two_caches_saving_interleaved_do_not_clobber(self, tmp_path):
        path = str(tmp_path / 'shared.json')
        a, b = ScheduleCache(), ScheduleCache()
        a.put('sig-a', 'matmul', MatmulSchedule())
        b.put('sig-b', 'matmul', MatmulSchedule(block_k=16))
        a.save(path)
        b.save(path)                     # last writer used to win outright
        merged = ScheduleCache.load(path)
        assert 'sig-a' in merged and 'sig-b' in merged

    def test_memory_wins_conflicts(self, tmp_path):
        path = str(tmp_path / 'shared.json')
        a, b = ScheduleCache(), ScheduleCache()
        a.put('sig', 'matmul', MatmulSchedule(block_k=8))
        a.save(path)
        b.put('sig', 'matmul', MatmulSchedule(block_k=16))
        b.save(path)
        assert ScheduleCache.load(path).get('sig', 'matmul').block_k == 16

    def test_version_mismatch_file_is_overwritten(self, tmp_path):
        path = tmp_path / 'old.json'
        path.write_text('{"version": -1, "entries": {"x": {}}}')
        cache = ScheduleCache()
        cache.put('sig', 'matmul', MatmulSchedule())
        cache.save(str(path))
        assert 'x' not in ScheduleCache.load(str(path))

    def test_warm_count_respects_entry_cap(self, tmp_path):
        path = str(tmp_path / 'big.json')
        big = ScheduleCache()
        for i in range(5):
            big.put(f's{i}', 'matmul', MatmulSchedule())
        big.save(path)
        capped = ScheduleCache(max_entries=2)
        added = capped.warm(path)
        assert added == len(capped) == 2     # not 5: merged entries evicted

    def test_namespace_slice_save(self, tmp_path):
        cache = ScheduleCache()
        cache.put('r1', 'matmul', MatmulSchedule(), namespace='resnet')
        cache.put('b1', 'matmul', MatmulSchedule(), namespace='bert')
        assert cache.namespace_stats() == {'resnet': 1, 'bert': 1}
        path = str(tmp_path / 'resnet.json')
        cache.save(path, namespace='resnet')
        loaded = ScheduleCache.load(path)
        assert 'r1' in loaded and 'b1' not in loaded
        assert loaded.namespace_stats() == {'resnet': 1}


class TestScheduleTransfer:
    def test_family_signature_ignores_batch_sizes_only(self):
        from repro.gpusim import RTX3090
        from repro.graph import from_numpy
        g1 = tiny_cnn(1).nodes[0].task
        g8 = tiny_cnn(8).nodes[0].task
        assert task_family_signature(g1, RTX3090) == task_family_signature(g8, RTX3090)
        # different layers (different n/k) must NOT share a family — or a
        # cold compile would serve one layer another layer's schedule
        def mm(m, n, k):
            a = symbol([m, k], name='a')
            w = from_numpy(RNG.standard_normal((k, n)).astype(np.float32))
            return trace(ops.matmul(a, w)).nodes[0].task
        assert (task_family_signature(mm(32, 64, 128), RTX3090)
                == task_family_signature(mm(256, 64, 128), RTX3090))
        assert (task_family_signature(mm(32, 64, 128), RTX3090)
                != task_family_signature(mm(32, 64, 256), RTX3090))
        assert (task_family_signature(mm(32, 64, 128), RTX3090)
                != task_family_signature(mm(32, 16, 128), RTX3090))

    def test_cold_compile_with_transfer_tunes_every_distinct_layer(self):
        """Regression: the family key must not collapse different layers, so
        a cold single-bucket compile with transfer on is fully tuned and
        reports the same modeled latency optimize() would."""
        def two_layer(batch):
            x = symbol([batch, 4, 12, 12], name='x')
            wf = WeightFactory(5)
            y = conv_bn_relu(wf, x, 8, kernel=3, padding=1, name='c1')
            y = conv_bn_relu(wf, y, 16, kernel=3, padding=1, name='c2')
            return trace(ops.global_avg_pool(y), name=f'two_b{batch}')

        plain = HidetExecutor(cache=ScheduleCache()).compile(two_layer(1))
        transf = HidetExecutor(cache=ScheduleCache(),
                               enable_transfer=True).compile(two_layer(1))
        assert transf.compile_report.transfer_hits == 0
        assert transf.tuning_seconds == plain.tuning_seconds
        assert transf.latency == plain.latency

    def test_second_bucket_pays_measurement_not_compilation(self):
        cache = ScheduleCache()
        ex = HidetExecutor(cache=cache, enable_transfer=True)
        cold = ex.compile(tiny_cnn(1))
        marker = len(ex.clock.events)
        warm = ex.compile(tiny_cnn(8))
        assert cold.compile_report.transfer_hits == 0
        assert warm.compile_report.transfer_hits > 0
        # the family's candidates are already compiled: the new size charges
        # measurements only (compilation dominates the tuning bill)
        labels = [label for label, _ in ex.clock.events[marker:]]
        assert labels and all(label.startswith('measure') for label in labels)
        assert 0 < warm.tuning_seconds < cold.tuning_seconds
        # and the schedule is still the true optimum for the new size:
        # identical modeled latency to an isolated full tune
        full = HidetExecutor(cache=ScheduleCache()).compile(tiny_cnn(8))
        assert warm.latency == full.latency

    def test_eviction_relinks_family_to_surviving_member(self):
        """Regression: evicting the newest family member must not disable
        the transfer tier while older members are still cached."""
        cache = ScheduleCache(max_entries=2)
        old = MatmulSchedule(block_k=8)
        cache.put('m-old', 'matmul', old, family='fam')
        cache.put('m-new', 'matmul', MatmulSchedule(block_k=16), family='fam')
        cache.get('m-old', kind='matmul')           # make 'm-new' the LRU
        cache.put('other', 'matmul', MatmulSchedule())   # evicts 'm-new'
        assert 'm-new' not in cache and 'm-old' in cache
        assert cache.get_transfer('fam', kind='matmul') == old

    def test_transfer_off_by_default(self):
        cache = ScheduleCache()
        ex = HidetExecutor(cache=cache)
        ex.compile(tiny_cnn(1))
        again = ex.compile(tiny_cnn(8))
        assert again.compile_report.transfer_hits == 0
        assert again.tuning_seconds > 0


class TestCompileReport:
    def test_accounting_split(self):
        compiled = HidetExecutor(cache=ScheduleCache()).compile(tiny_cnn(1))
        report = compiled.compile_report
        assert isinstance(report, CompileReport)
        assert report.tuning_seconds == compiled.tuning_seconds > 0
        assert report.cache_misses == compiled.cache_misses > 0
        # serve-time latency is not part of the compile report
        assert compiled.latency > 0


# ---------------------------------------------------------------------------
# traces


class TestTraces:
    def test_poisson_is_deterministic_and_ordered(self):
        a = poisson_trace(qps=100, num_requests=50, models=['m'], seed=3)
        b = poisson_trace(qps=100, num_requests=50, models=['m'], seed=3)
        assert a == b
        assert all(x.arrival <= y.arrival for x, y in zip(a, a[1:]))
        assert {r.model for r in a} == {'m'}

    def test_weighted_model_mix(self):
        tr = poisson_trace(qps=100, num_requests=400,
                           models={'hot': 9.0, 'cold': 1.0}, seed=0)
        hot = sum(r.model == 'hot' for r in tr)
        assert hot > 300

    def test_bursty_alternates_rates(self):
        tr = bursty_trace(burst_qps=1000, idle_qps=0, num_requests=100,
                          models=['m'], burst_seconds=0.05, idle_seconds=0.05,
                          seed=0)
        assert len(tr) == 100
        # with idle_qps=0 every arrival lands inside a burst phase
        assert all((r.arrival % 0.1) <= 0.05 + 1e-9 for r in tr)

    def test_merge_renumbers(self):
        a = poisson_trace(qps=10, num_requests=5, models=['x'], seed=1)
        b = poisson_trace(qps=10, num_requests=5, models=['y'], seed=2)
        merged = merge_traces(a, b)
        assert [r.req_id for r in merged] == list(range(10))
        assert all(p.arrival <= q.arrival for p, q in zip(merged, merged[1:]))

    def test_request_validation(self):
        with pytest.raises(ValueError, match='size'):
            Request(req_id=0, model='m', size=0, arrival=0.0)

    def test_bursty_phase_validation(self):
        """Regression: zero-length bursts with a silent trough used to spin
        forever instead of raising."""
        with pytest.raises(ValueError, match='burst_seconds'):
            bursty_trace(burst_qps=100, idle_qps=0, num_requests=10,
                         models=['m'], burst_seconds=0.0)


# ---------------------------------------------------------------------------
# batcher


class TestBatcher:
    def test_smallest_covering_bucket(self):
        buckets = (1, 2, 4, 8)
        assert [smallest_covering_bucket(s, buckets) for s in range(1, 9)] \
            == [1, 2, 4, 4, 8, 8, 8, 8]
        with pytest.raises(ValueError, match='covers'):
            smallest_covering_bucket(9, buckets)

    def test_full_batch_dispatches_without_waiting(self):
        batcher = DynamicBatcher(BatchingPolicy(max_batch=4, max_wait=1.0),
                                 {'m': (1, 2, 4)})
        for i in range(4):
            batcher.enqueue(Request(i, 'm', 1, arrival=0.0))
        batch = batcher.pop_ready(now=0.0)
        assert batch is not None and batch.size == 4 and batch.bucket == 4

    def test_partial_batch_waits_for_deadline(self):
        batcher = DynamicBatcher(BatchingPolicy(max_batch=4, max_wait=1e-3),
                                 {'m': (1, 2, 4)})
        batcher.enqueue(Request(0, 'm', 1, arrival=0.0))
        assert batcher.pop_ready(now=0.0) is None
        assert batcher.next_deadline() == pytest.approx(1e-3)
        batch = batcher.pop_ready(now=1e-3)
        assert batch is not None and batch.size == 1 and batch.bucket == 1

    def test_fifo_across_models(self):
        batcher = DynamicBatcher(BatchingPolicy(max_batch=2, max_wait=0.0),
                                 {'a': (2,), 'b': (2,)})
        batcher.enqueue(Request(0, 'b', 1, arrival=0.0))
        batcher.enqueue(Request(1, 'a', 1, arrival=0.5))
        assert batcher.pop_ready(now=1.0).model == 'b'
        assert batcher.pop_ready(now=1.0).model == 'a'

    def test_occupancy_accounts_padding(self):
        batcher = DynamicBatcher(BatchingPolicy(max_batch=8, max_wait=0.0),
                                 {'m': (1, 2, 4, 8)})
        for i in range(3):
            batcher.enqueue(Request(i, 'm', 1, arrival=0.0))
        batch = batcher.pop_ready(now=1.0)
        assert batch.bucket == 4 and batch.occupancy == pytest.approx(0.75)

    def test_oversized_request_rejected(self):
        batcher = DynamicBatcher(BatchingPolicy(max_batch=2, max_wait=0.0),
                                 {'m': (1, 2)})
        with pytest.raises(ValueError, match='max_batch'):
            batcher.enqueue(Request(0, 'm', 3, arrival=0.0))

    def test_policy_must_fit_buckets(self):
        with pytest.raises(ValueError, match='max_batch'):
            DynamicBatcher(BatchingPolicy(max_batch=16), {'m': (1, 2, 4)})


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_bucket_ladder(self):
        assert bucket_ladder(8) == (1, 2, 4, 8)
        assert bucket_ladder(6) == (1, 2, 4, 6)
        assert bucket_ladder(1) == (1,)

    def test_register_compiles_all_buckets(self, registry):
        model = registry['tiny']
        assert model.bucket_sizes == (1, 2, 4, 8)
        for b in model.bucket_sizes:
            assert model.latency(b) > 0
        # larger buckets amortize: per-sample latency shrinks
        per_sample = [model.latency(b) / b for b in model.bucket_sizes]
        assert per_sample == sorted(per_sample, reverse=True)

    def test_requests_map_to_smallest_covering_bucket(self, registry):
        model = registry['tiny']
        assert [model.bucket_for(s) for s in range(1, 9)] \
            == [1, 2, 4, 4, 8, 8, 8, 8]

    def test_transfer_makes_ladder_cheap(self, registry):
        traffic = registry['tiny'].cache_traffic()
        assert traffic['misses'] == 4            # one exact miss per bucket
        assert traffic['transfer_hits'] == 3     # buckets 2, 4, 8 transferred

    def test_restart_with_persisted_cache_tunes_nothing(self, registry, tmp_path):
        path = str(tmp_path / 'serve_cache.json')
        registry.save_cache(path)
        restarted = ModelRegistry(cache_path=path)
        model = restarted.register('tiny', tiny_cnn, max_batch=8)
        assert model.compile_seconds == 0.0
        assert restarted.clock.events == []
        traffic = model.cache_traffic()
        assert traffic['misses'] == 0 and traffic['transfer_hits'] == 0
        # identical modeled latencies, schedule for schedule
        for b in model.bucket_sizes:
            assert model.latency(b) == registry['tiny'].latency(b)

    def test_add_bucket_warm_is_free(self, registry, tmp_path):
        path = str(tmp_path / 'serve_cache.json')
        registry.save_cache(path)
        restarted = ModelRegistry(cache_path=path)
        restarted.register('tiny', tiny_cnn, buckets=[1])
        before = restarted.clock.elapsed_seconds
        restarted.add_bucket('tiny', 2)
        assert restarted.clock.elapsed_seconds == before
        assert restarted['tiny'].bucket_sizes == (1, 2)

    def test_stale_or_corrupt_cache_file_does_not_block_boot(self, tmp_path):
        """Regression: a bad cache file must start the registry cold, not
        crash it (save() later overwrites the file)."""
        stale = tmp_path / 'stale.json'
        stale.write_text('{"version": 1, "entries": {}}')   # pre-PR-2 format
        reg = ModelRegistry(cache_path=str(stale))
        assert len(reg.cache) == 0
        corrupt = tmp_path / 'corrupt.json'
        corrupt.write_text('{not json')
        reg2 = ModelRegistry(cache_path=str(corrupt))
        assert len(reg2.cache) == 0

    def test_duplicate_and_missing_names(self, registry):
        with pytest.raises(ValueError, match='already registered'):
            registry.register('tiny', tiny_cnn)
        with pytest.raises(KeyError, match='not registered'):
            registry['nope']

    def test_cap_conflicts_with_explicit_cache(self):
        with pytest.raises(ValueError, match='not both'):
            ModelRegistry(cache=ScheduleCache(), max_cache_entries=10)

    def test_stats_shape(self, registry):
        stats = registry.stats()
        assert stats['models']['tiny']['buckets'] == [1, 2, 4, 8]
        assert 'tiny' in stats['cache_namespaces']


class TestPaddingEquivalence:
    def test_padded_batch_matches_unpadded_outputs_cnn(self, registry):
        """Dispatching one sample into a padded bucket never changes it."""
        model = registry['tiny']
        x = RNG.standard_normal((1, 4, 12, 12)).astype(np.float32)
        single = model.buckets[1].run(x)[0]
        for bucket in (2, 4, 8):
            padded = np.concatenate(
                [x, np.zeros((bucket - 1, 4, 12, 12), dtype=np.float32)])
            batched = model.buckets[bucket].run(padded)[0]
            np.testing.assert_allclose(batched[:1], single, rtol=1e-5, atol=1e-6)
            # and the graph itself agrees with the compiled artifact
            np.testing.assert_allclose(batched, tiny_cnn(bucket).run(padded)[0],
                                       rtol=1e-5, atol=1e-6)

    def test_padded_batch_matches_unpadded_outputs_bert(self):
        """Sequence stacking keeps batched sequences independent."""
        kw = dict(seq_length=8, hidden=16, layers=1, heads=2, vocab_size=50)
        ids = RNG.integers(0, 50, size=8).astype(np.int32)
        single = bert_base(**kw).run(ids)[0]
        padded = np.concatenate([ids, np.zeros(8, dtype=np.int32)])
        batched = bert_base(batch_size=2, **kw).run(padded)[0]
        np.testing.assert_allclose(batched[:8], single, rtol=1e-4, atol=1e-5)

    def test_padded_batch_matches_unpadded_outputs_gpt2(self):
        """The [seq, seq] causal mask broadcasts per sequence, not across
        the batch — padding sequences must not change the first one."""
        from repro.models import gpt2
        kw = dict(seq_length=8, hidden=16, layers=1, heads=2, vocab_size=50)
        ids = RNG.integers(0, 50, size=8).astype(np.int32)
        single = gpt2(**kw).run(ids)[0]
        other = RNG.integers(0, 50, size=8).astype(np.int32)
        batched = gpt2(batch_size=2, **kw).run(np.concatenate([ids, other]))[0]
        np.testing.assert_allclose(batched[:8], single, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(batched[8:], gpt2(**kw).run(other)[0],
                                   rtol=1e-4, atol=1e-5)


# ---------------------------------------------------------------------------
# simulator


class TestSimulator:
    def test_conservation_and_determinism(self, registry):
        sim = ServerSimulator(registry, BatchingPolicy(max_batch=8, max_wait=1e-3))
        trace_ = poisson_trace(qps=20000, num_requests=300, models=['tiny'],
                               seed=2, sizes=(1, 2, 3))
        r1, r2 = sim.run(trace_), sim.run(trace_)
        assert sorted(c.request.req_id for c in r1.completions) == list(range(300))
        assert [(c.request.req_id, c.completion) for c in r1.completions] \
            == [(c.request.req_id, c.completion) for c in r2.completions]
        assert sum(b.size for b in r1.batches) == sum(r.size for r in trace_)

    def test_latency_at_least_service_time(self, registry):
        sim = ServerSimulator(registry, BatchingPolicy(max_batch=8, max_wait=1e-3))
        result = sim.run(poisson_trace(qps=5000, num_requests=100,
                                       models=['tiny'], seed=0))
        for c in result.completions:
            assert c.latency >= registry['tiny'].latency(c.bucket)
            assert c.queueing_delay >= 0

    def test_batch1_policy_is_one_request_per_batch(self, registry):
        sim = ServerSimulator(registry, BatchingPolicy(max_batch=1, max_wait=0.0))
        result = sim.run(poisson_trace(qps=5000, num_requests=100,
                                       models=['tiny'], seed=0))
        assert len(result.batches) == 100
        assert all(b.bucket == 1 for b in result.batches)

    def test_dynamic_batching_beats_batch1_when_saturated(self, registry):
        """The acceptance claim at subsystem level: equal offered load past
        the batch=1 capacity, higher completed throughput with batching."""
        service1 = registry['tiny'].latency(1)
        qps = 2.0 / service1                   # 2x the no-batching capacity
        trace_ = poisson_trace(qps=qps, num_requests=2000, models=['tiny'],
                               seed=4)
        dyn = ServerSimulator(registry,
                              BatchingPolicy(max_batch=8, max_wait=1e-3)).run(trace_)
        one = ServerSimulator(registry,
                              BatchingPolicy(max_batch=1, max_wait=0.0)).run(trace_)
        dyn_stats, one_stats = dyn.stats(registry), one.stats(registry)
        assert dyn_stats.throughput_rps > 1.2 * one_stats.throughput_rps
        assert dyn_stats.latency_p99_ms < one_stats.latency_p99_ms
        assert dyn_stats.mean_occupancy > 0.5
        assert one.gpu_utilization > 0.95      # batch=1 is saturated

    def test_bursty_trace_runs_to_completion(self, registry):
        sim = ServerSimulator(registry, BatchingPolicy(max_batch=8, max_wait=1e-3))
        trace_ = bursty_trace(burst_qps=50000, idle_qps=100, num_requests=400,
                              models=['tiny'], seed=5)
        result = sim.run(trace_)
        assert len(result.completions) == 400
        # bursts force large buckets
        assert any(b.bucket == 8 for b in result.batches)

    def test_stats_and_report_shape(self, registry):
        sim = ServerSimulator(registry, BatchingPolicy(max_batch=8, max_wait=1e-3))
        result = sim.run(poisson_trace(qps=30000, num_requests=500,
                                       models=['tiny'], seed=6))
        stats = result.stats(registry)
        assert stats.num_requests == 500
        assert (stats.latency_p50_ms <= stats.latency_p95_ms
                <= stats.latency_p99_ms <= stats.latency_max_ms)
        assert 0 < stats.mean_occupancy <= 1
        assert stats.cache_hit_rate > 0
        assert stats.cold_start_seconds == registry.total_compile_seconds
        assert sum(stats.bucket_histogram.values()) == stats.num_batches
        text = format_serving_report(stats, 'unit test')
        for token in ('throughput', 'p99', 'occupancy', 'hit rate', 'amortized'):
            assert token in text

    def test_hit_rate_counts_transfer_served_misses_once(self, registry):
        """Regression: a transfer-served lookup is a miss that found a
        family record — it must move into the numerator, not inflate the
        denominator as a third lookup."""
        sim = ServerSimulator(registry, BatchingPolicy(max_batch=8, max_wait=1e-3))
        stats = sim.run(poisson_trace(qps=30000, num_requests=100,
                                      models=['tiny'], seed=8)).stats(registry)
        assert stats.cache_misses == 4 and stats.cache_transfer_hits == 3
        expected = (stats.cache_hits + 3) / (stats.cache_hits + 4)
        assert stats.cache_hit_rate == pytest.approx(expected)

    def test_empty_stats_rejected(self, registry):
        sim = ServerSimulator(registry, BatchingPolicy(max_batch=8))
        result = sim.run([])
        assert result.completions == []
        with pytest.raises(ValueError, match='empty'):
            result.stats()

    def test_each_bucket_priced_once_per_run(self, registry):
        class Counting(ServerSimulator):
            def service_time(self, model, bucket):
                self.asked.append((model, bucket))
                return super().service_time(model, bucket)

        sim = Counting(registry, BatchingPolicy(max_batch=8, max_wait=1e-5))
        trace_ = poisson_trace(qps=40000, num_requests=400, models=['tiny'],
                               seed=9, sizes=(1, 2, 3))
        plain = ServerSimulator(registry, sim.policy).run(trace_)
        for _ in range(2):          # the table lives for one run
            sim.asked = []
            result = sim.run(trace_)
            assert sorted(sim.asked) == sorted(
                {(b.model, b.bucket) for b in result.batches})
            assert len(sim.asked) > 1
            assert result.completions == plain.completions
            assert result.busy_seconds == plain.busy_seconds


@st.composite
def tied_traces(draw):
    """Bursts on a coarse arrival grid: many requests share an arrival,
    every batch shares a completion, and a small ``max_queue`` rejects."""
    n = draw(st.integers(1, 60))
    ticks = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    trace_ = [Request(i, 'tiny', size, tick * 5e-6)
              for i, (tick, size) in enumerate(zip(ticks, sizes))]
    order = draw(st.permutations(range(n)))
    max_queue = draw(st.sampled_from([4, 5, 8, None]))
    return [trace_[i] for i in order], max_queue


class TestCompletionOrder:
    @given(tied_traces())
    @settings(max_examples=40, deadline=None)
    def test_order_matches_tuple_key(self, registry, case):
        trace_, max_queue = case
        result = ServerSimulator(
            registry, BatchingPolicy(max_batch=4, max_wait=1e-5,
                                     max_queue=max_queue)).run(trace_)
        completions = result.completions
        assert completions == sorted(
            completions, key=lambda c: (c.completion, c.request.req_id))
        assert len(completions) + len(result.rejected) == len(trace_)
