"""The learned tuning layer: featurization, the ridge cost model, the
calibrated fallback, the parallel service, and the deployment spec fields.

The determinism tests are the contract the bench gate stands on: every
quantity in the tuning trajectory is simulated, so two runs from the same
inputs must agree *byte-for-byte* — feature vectors, candidate rankings,
and the `BENCH_tuning.json` record itself.  The adversarial test is the
safety contract: a confidently-wrong model must cost wasted ranking, never
a bad schedule.
"""
import dataclasses
import importlib
import math
import pathlib
import random
import sys

import pytest

from repro.core.space import matmul_schedule_space
from repro.core.tuning import HIDET_TUNING_COSTS, MatmulTuner
from repro.gpusim.clock import SimulatedClock
from repro.gpusim.device import RTX3090
from repro.runtime import HidetExecutor, ScheduleCache
from repro.runtime.cache import MeasurementRecord
from repro.serve import (CacheSpec, DeploymentSpec, ModelSpec,
                         SpecValidationError)
from repro.serve.deployment import BatchingSpec, ReplicaGroupSpec
from repro.tune import (DEFAULT_SEED_PROBLEMS, FEATURE_NAMES, RidgeCostModel,
                        featurize, run_tuning_service, seed_cost_model,
                        shard_problems)
from repro.tune import cost_model as cost_model_module
from repro.tune.cost_model import _solve

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / 'benchmarks'

SPACE = list(matmul_schedule_space(RTX3090))


def _seeded_cache(problems=((128, 768, 768, 1), (512, 512, 512, 1),
                            (784, 128, 1152, 1))):
    cache = ScheduleCache()
    seed_cost_model(cache, RTX3090, problems=problems, space_stride=4)
    return cache


def _tuner():
    return MatmulTuner(RTX3090, HIDET_TUNING_COSTS, SimulatedClock())


class TestFeaturization:
    def test_vector_matches_feature_names(self):
        vec = featurize(512, 512, 512, SPACE[0], device=RTX3090)
        assert len(vec) == len(FEATURE_NAMES)
        assert all(isinstance(x, float) for x in vec)

    def test_featurize_is_deterministic(self):
        args = (300, 768, 768, SPACE[3])
        a = featurize(*args, device=RTX3090, batch=2, extra_read_bytes=1e4)
        b = featurize(*args, device=RTX3090, batch=2, extra_read_bytes=1e4)
        assert a == b                    # bit-for-bit, not approximately

    def test_feature_names_are_append_only(self):
        """The layout is a contract: in-memory fitted models index by
        position, so renames/reorders of the prefix are breaking."""
        assert FEATURE_NAMES[:4] == ('log2_m', 'log2_n', 'log2_k',
                                     'log2_batch')
        assert 'occupancy' in FEATURE_NAMES
        assert FEATURE_NAMES[-1] == 'log2_roofline_plus_overhead'

    def test_fused_traffic_changes_the_vector(self):
        plain = featurize(512, 512, 512, SPACE[0], device=RTX3090)
        fused = featurize(512, 512, 512, SPACE[0], device=RTX3090,
                          extra_read_bytes=1 << 20)
        assert plain != fused


class TestCostModelDeterminism:
    def test_same_cache_contents_give_identical_ranking(self):
        cache = _seeded_cache()
        first = RidgeCostModel(RTX3090).bind(cache).rank(256, 768, 768, SPACE)
        second = RidgeCostModel(RTX3090).bind(cache).rank(256, 768, 768, SPACE)
        assert first is not None
        assert first == second           # schedules AND predicted latencies

    def test_fit_is_order_independent(self):
        """Records are sorted by canonical key before fitting, so the
        order measurements were taken in cannot leak into the weights."""
        cache = _seeded_cache()
        reversed_cache = ScheduleCache()
        for record in reversed(cache.measurements()):
            reversed_cache.record_measurement(record)
        a = RidgeCostModel(RTX3090).bind(cache)
        b = RidgeCostModel(RTX3090).bind(reversed_cache)
        assert a.rank(49, 2048, 512, SPACE) == b.rank(49, 2048, 512, SPACE)
        assert a.train_r2 == b.train_r2

    def test_underfit_model_refuses_to_rank(self):
        cold = RidgeCostModel(RTX3090).bind(ScheduleCache())
        assert cold.rank(512, 512, 512, SPACE) is None
        assert not cold.ready


def _reference_fit(model, records):
    """The cost model's fit as a plain row-major loop: featurize every
    record, accumulate the weighted normal equations row by row.  The
    production fit must reproduce its result bit for bit.  Returns
    ``(weights, mean, std, train_r2)``; weights is None while underfit."""
    usable = sorted((r for r in records
                     if r.kind == 'matmul' and r.latency > 0.0),
                    key=lambda r: (*r.problem_key,
                                   dataclasses.astuple(r.schedule)))
    if len(usable) < model.min_samples \
            or len({r.problem_key for r in usable}) < model.min_problems:
        return None, None, None, math.nan
    rows = [list(featurize(r.m, r.n, r.k, r.schedule, device=model.device,
                           batch=r.batch,
                           extra_read_bytes=r.extra_read_bytes,
                           extra_write_bytes=r.extra_write_bytes))
            for r in usable]
    targets = [math.log(r.latency) for r in usable]
    best = {}
    for r in usable:
        current = best.get(r.problem_key)
        if current is None or r.latency < current:
            best[r.problem_key] = r.latency
    sample_weights = [(best[r.problem_key] / r.latency) ** model.rank_focus
                      for r in usable]
    dim = len(FEATURE_NAMES)
    count = float(len(usable))
    mean = [sum(row[j] for row in rows) / count for j in range(dim)]
    std = []
    for j in range(dim):
        var = sum((row[j] - mean[j]) ** 2 for row in rows) / count
        std.append(math.sqrt(var) if var > 0.0 else 1.0)
    for row in rows:
        for j in range(dim):
            row[j] = (row[j] - mean[j]) / std[j]
    width = dim + 1
    gram = [[0.0] * width for _ in range(width)]
    moment = [0.0] * width
    weight_total = sum(sample_weights)
    for row, y, sw in zip(rows, targets, sample_weights):
        aug_row = [1.0] + row
        for i in range(width):
            ri = aug_row[i] * sw
            if ri == 0.0:
                continue
            moment[i] += ri * y
            for j in range(i, width):
                gram[i][j] += ri * aug_row[j]
    for i in range(width):
        for j in range(i + 1, width):
            gram[j][i] = gram[i][j]
    for i in range(1, width):
        gram[i][i] += model.alpha * weight_total
    weights = _solve(gram, moment)
    predictions = [weights[0] + sum(w * x for w, x in zip(weights[1:], row))
                   for row in rows]
    y_mean = (sum(sw * y for sw, y in zip(sample_weights, targets))
              / weight_total)
    ss_tot = sum(sw * (y - y_mean) ** 2
                 for sw, y in zip(sample_weights, targets))
    ss_res = sum(sw * (y - p) ** 2
                 for sw, y, p in zip(sample_weights, targets, predictions))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    return weights, mean, std, r2


@pytest.fixture(scope='module')
def guided_corpus():
    """Seed measurements plus one guided compile's records (the guided
    compile adds fused-epilogue problems with nonzero extra bytes)."""
    from repro.models.common import WeightFactory, linear
    from repro.graph import ops, symbol, trace
    cache = _seeded_cache(problems=DEFAULT_SEED_PROBLEMS[:4])
    x = symbol([128, 768], name='x')
    wf = WeightFactory(seed=3)
    y = ops.relu(linear(wf, x, 768, name='fc1'))
    HidetExecutor(RTX3090, cache=cache, cost_model=RidgeCostModel(RTX3090)) \
        .compile(trace(linear(wf, y, 3072, name='fc2'), name='mlp'))
    records = cache.measurements()
    assert any(r.extra_read_bytes or r.extra_write_bytes for r in records)
    return records


@pytest.fixture
def featurize_calls(monkeypatch):
    """A list that grows by one per call of the cost model's featurize."""
    calls = []
    original = cost_model_module.featurize

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(cost_model_module, 'featurize', counted)
    return calls


class TestIncrementalFit:
    def _assert_matches_reference(self, model, records):
        weights, mean, std, r2 = _reference_fit(model, records)
        assert weights is not None
        assert model._weights == weights     # bit for bit, not approximately
        assert model._mean == mean
        assert model._std == std
        assert model.train_r2 == r2

    def test_fit_is_bit_identical_to_the_row_major_reference(
            self, guided_corpus):
        """One model refits over growing prefixes and shuffled orders (so
        its memoized feature rows are reused and pruned) and must land on
        the reference loop's exact floats every time."""
        model = RidgeCostModel(RTX3090)
        rng = random.Random(12)
        total = len(guided_corpus)
        for size in (total // 3, total // 2, total, 2 * total // 3, total):
            prefix = list(guided_corpus[:size])
            model.fit(prefix)
            self._assert_matches_reference(model, prefix)
            rng.shuffle(prefix)
            model.fit(prefix)
            self._assert_matches_reference(model, prefix)

    def test_refit_featurizes_only_new_records(self, guided_corpus,
                                               featurize_calls):
        model = RidgeCostModel(RTX3090)
        base = len(guided_corpus) - 25
        model.fit(guided_corpus[:base])
        assert len(featurize_calls) == base
        for added in (1, 24):
            before = len(featurize_calls)
            records = guided_corpus[:base + added]
            model.fit(records)
            assert len(featurize_calls) - before == added
            self._assert_matches_reference(model, records)
            base += added

    def test_extra_bytes_below_rounding_are_featurized_afresh(
            self, guided_corpus, featurize_calls):
        """``record.key`` rounds the extra bytes, so a re-measurement whose
        extras differ only below ``round()`` replaces the record in the
        cache — and its features must come from the new inputs."""
        cache = ScheduleCache()
        for record in guided_corpus:
            cache.record_measurement(record)
        model = RidgeCostModel(RTX3090).bind(cache)
        model.fit(cache.measurements())
        before = len(featurize_calls)
        old = next(r for r in guided_corpus if r.extra_read_bytes > 0.0)
        new = dataclasses.replace(old,
                                  extra_read_bytes=old.extra_read_bytes + 0.25)
        assert new.key == old.key and new != old
        assert cache.record_measurement(new)
        assert cache.measurement_count == len(guided_corpus)
        model.fit(cache.measurements())
        assert len(featurize_calls) - before == 1
        self._assert_matches_reference(model, cache.measurements())

    def test_rank_tie_break_is_the_astuple_order(self):
        model = RidgeCostModel(RTX3090).bind(_seeded_cache())
        ranked = model.rank(256, 768, 768, SPACE)
        assert ranked is not None
        assert ranked == sorted(ranked, key=lambda pair: (
            pair[1], dataclasses.astuple(pair[0])))


class TestGuidedTuning:
    def test_guided_tune_measures_only_top_k(self):
        model = RidgeCostModel(RTX3090).bind(_seeded_cache())
        result = _tuner().tune(256, 768, 768, cost_model=model)
        assert result.used_cost_model
        assert result.fallback_reason is None
        assert result.num_measured == model.top_k
        assert result.num_candidates > 5 * result.num_measured

    def test_underfit_fallback_measures_everything(self):
        cold = RidgeCostModel(RTX3090).bind(ScheduleCache())
        result = _tuner().tune(256, 768, 768, cost_model=cold)
        assert not result.used_cost_model
        assert result.fallback_reason.startswith('underfit')
        assert result.num_measured == result.num_candidates

    def test_adversarial_model_trips_the_calibration_gate(self):
        """A confidently-wrong model — trained on *inverted* latencies, so
        it ranks the worst candidates first with high in-sample R² — must
        be caught by the post-measurement calibration check and land on
        the exhaustive optimum (within the 2% acceptance bound; in fact
        exactly on it, since the fallback measures every candidate)."""
        space = SPACE[::4]
        cache = ScheduleCache()
        tuner = _tuner()
        for m, n, k in ((128, 768, 768), (512, 512, 512)):
            truth = tuner.tune(m, n, k, space=space)
            for sched, latency in truth.latencies.items():
                cache.record_measurement(MeasurementRecord(
                    kind='matmul', m=m, n=n, k=k, batch=1, schedule=sched,
                    latency=1e-9 / latency))        # inverted: worst looks best
        liar = RidgeCostModel(RTX3090).bind(cache)
        assert liar.rank(256, 768, 768, space) is not None, \
            'the distortion must still be learnable (fit passes readiness)'
        assert liar.train_r2 >= liar.min_r2

        guided = _tuner().tune(256, 768, 768, space=space, cost_model=liar)
        exhaustive = _tuner().tune(256, 768, 768, space=space)
        assert guided.used_cost_model
        assert guided.fallback_reason.startswith('miscalibrated')
        assert guided.num_measured == guided.num_candidates
        assert guided.best_latency <= 1.02 * exhaustive.best_latency
        assert guided.best_schedule == exhaustive.best_schedule

    def test_executor_reports_guided_counters(self):
        cache = _seeded_cache(problems=DEFAULT_SEED_PROBLEMS[:4])
        seed_measurements = cache.measurement_count
        model = RidgeCostModel(RTX3090)
        executor = HidetExecutor(RTX3090, cache=cache, cost_model=model)
        from repro.models.common import WeightFactory, linear
        from repro.graph import ops, symbol, trace
        # transformer-projection shapes the seed corpus covers, so the
        # model calibrates and the executor takes the ranked shortcut
        x = symbol([128, 768], name='x')
        wf = WeightFactory(seed=3)
        y = ops.relu(linear(wf, x, 768, name='fc1'))
        compiled = executor.compile(trace(linear(wf, y, 3072, name='fc2'),
                                          name='mlp'))
        report = compiled.compile_report
        assert report.tuned_tasks > 0
        assert report.ranked_tasks == report.tuned_tasks
        assert report.cost_model_fallbacks == 0
        assert 0 < report.measurements_per_task <= model.top_k
        # guided executors record what they measure: later compiles train
        # on this model's measurements too
        assert cache.measurement_count > seed_measurements


class TestParallelServiceSharding:
    def test_sharding_keeps_measurement_groups_together(self):
        cache = ScheduleCache()
        executor = HidetExecutor(RTX3090, cache=cache)
        from repro.models import for_batch
        problems = list(executor.tuning_problems(for_batch('bert', 1),
                                                 namespace='bert'))
        shards = shard_problems(problems, 4)
        assert sum(len(s) for s in shards) == len(problems)
        key = lambda p: (p.m, p.n, p.k, p.batch, p.extra_read_bytes,
                         p.extra_write_bytes)
        owner = {}
        for index, shard in enumerate(shards):
            for problem in shard:
                assert owner.setdefault(key(problem), index) == index, (
                    'measurement-equivalent problems split across workers')

    def test_sharding_is_deterministic(self):
        cache = ScheduleCache()
        executor = HidetExecutor(RTX3090, cache=cache)
        from repro.models import for_batch
        problems = list(executor.tuning_problems(for_batch('gpt2', 1),
                                                 namespace='gpt2'))
        assert shard_problems(problems, 3) == \
            shard_problems(list(problems), 3)


class TestBenchRecordDeterminism:
    def test_bench_tuning_json_is_byte_identical_across_runs(self, tmp_path):
        """Two reduced trajectory runs (same inputs, pinned harness wall)
        must serialize to byte-identical BENCH_tuning.json records —
        everything in them is simulated, so any drift is nondeterminism.

        The comparison arms (tuner hours, cache reuse) are pinned
        constants here: their determinism is the bench gate's own
        concern; what this test pins is the new trajectory/service
        metrics flowing through ``_tuning_bench`` into the record."""
        sys.path.insert(0, str(BENCH_DIR))
        try:
            bench = importlib.import_module('bench_fig17_tuning_cost')
            common = importlib.import_module('common')
            from repro.experiments import (run_analysis_gate,
                                           run_cost_model_trajectory,
                                           run_parallel_tuning)
            from repro.experiments.tuning_cost import CacheReuseRow
            hours = {'hidet': 0.25, 'autotvm': 5.0, 'ansor': 2.5}
            reuse = CacheReuseRow(model='pinned', cold_seconds=100.0,
                                  warm_seconds=0.0, cold_latency_ms=1.0,
                                  warm_latency_ms=1.0, warm_hits=1,
                                  warm_misses=0, cache_entries=1)

            def one_run(tag: str) -> bytes:
                trajectory = run_cost_model_trajectory(
                    models=['gpt2'],
                    seed_problems=DEFAULT_SEED_PROBLEMS[:6])
                service = run_parallel_tuning(models=['gpt2'],
                                              num_workers=2)
                gate = run_analysis_gate()
                record = bench._tuning_bench(hours, reuse, trajectory,
                                             service, gate,
                                             wall_seconds=0.0)
                path = common.write_bench(record,
                                          str(tmp_path / f'{tag}.json'))
                return pathlib.Path(path).read_bytes()

            assert one_run('first') == one_run('second')
        finally:
            sys.path.remove(str(BENCH_DIR))


class TestDeploymentSpecFields:
    def _spec(self, **cache_kwargs):
        return DeploymentSpec(
            models=(ModelSpec('bert', max_batch=1, buckets=(1,)),),
            replicas=(ReplicaGroupSpec(device='RTX3090', count=1),),
            batching=BatchingSpec(max_batch=1),
            cache=CacheSpec(**cache_kwargs))

    def test_cache_spec_round_trips_new_fields(self):
        spec = self._spec(warm_from='warm.jsonl', cost_model=True,
                          tuning_workers=4)
        restored = DeploymentSpec.from_dict(spec.to_dict())
        assert restored.cache.cost_model is True
        assert restored.cache.tuning_workers == 4
        assert restored == spec

    def test_defaults_are_off(self):
        spec = self._spec()
        assert spec.cache.cost_model is False
        assert spec.cache.tuning_workers == 1
        spec.validate()

    def test_tuning_workers_must_be_positive(self):
        with pytest.raises(SpecValidationError, match='tuning_workers'):
            self._spec(tuning_workers=0).validate()

    def test_parallel_pretune_requires_warm_from(self):
        with pytest.raises(SpecValidationError, match='warm_from'):
            self._spec(tuning_workers=2).validate()

    def test_registry_and_fleet_thread_the_cost_model(self):
        from repro.serve import Fleet, ModelAffinePlacement
        fleet = Fleet([RTX3090], placement=ModelAffinePlacement(),
                      cost_model=True)
        from repro.models.common import WeightFactory, linear
        from repro.graph import ops, symbol, trace

        def tiny(batch):
            x = symbol([batch, 64], name='x')
            wf = WeightFactory(seed=11)
            return trace(linear(wf, ops.relu(linear(wf, x, 128, name='a')),
                                32, name='b'), name=f'tiny_b{batch}')

        fleet.register('tiny', tiny, max_batch=1)
        fleet.build()
        registry = fleet.replicas[0].registry
        assert registry.cost_model is not None
        assert registry.cost_model.source is registry.cache


class TestTuningService:
    def test_warm_service_run_is_free(self, tmp_path):
        from repro.models.common import WeightFactory, linear
        from repro.graph import ops, symbol, trace
        x = symbol([16, 128], name='x')
        wf = WeightFactory(seed=2)
        graph = trace(linear(wf, ops.relu(linear(wf, x, 256, name='a')),
                             64, name='b'), name='svc_mlp')
        log = str(tmp_path / 'svc.jsonl')
        cold = run_tuning_service([('m', graph)], device=RTX3090,
                                  num_workers=2, log_path=log)
        assert cold.total_problems > 0
        assert cold.wall_seconds > 0.0
        warm = run_tuning_service([('m', graph)], device=RTX3090,
                                  num_workers=2, log_path=log)
        assert warm.warm_hits == cold.total_problems
        assert warm.wall_seconds == 0.0
