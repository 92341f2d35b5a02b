"""The observability spine (repro.obs): span lifecycle invariants, the
metrics registry, Chrome trace export, the BENCH_* trajectory format, and
the ``python -m repro.obs.compare`` regression gate — plus reconciliation
of the span ledger against the serving stats fold.
"""
import json
import math

import numpy as np
import pytest

from repro.graph import ops, symbol, trace
from repro.gpusim.device import RTX3090
from repro.models.common import WeightFactory, conv_bn_relu, linear
from repro.obs import (LIFECYCLE_TRACK, TERMINAL_KINDS, BenchMetric,
                       BenchResult, Counter, Gauge, Histogram, Instant,
                       Measurement,
                       MetricsRegistry, Telemetry, Tracer, compare,
                       percentile, percentiles, summarize_latencies)
from repro.obs.compare import main as compare_main
from repro.obs.tracing import chrome_document, write_chrome_trace
from repro.serve import (BatchingPolicy, FailureEvent, Fleet, FleetSimulator,
                         LeastLoadedPlacement, ModelAffinePlacement,
                         ModelRegistry, Request, ServerSimulator,
                         poisson_trace)


def tiny_cnn(batch: int):
    x = symbol([batch, 4, 12, 12], name='x')
    wf = WeightFactory(5)
    y = conv_bn_relu(wf, x, 8, kernel=3, padding=1, name='c1')
    return trace(ops.global_avg_pool(y), name=f'cnn_b{batch}')


def tiny_mlp(batch: int):
    x = symbol([batch, 32], name='x')
    wf = WeightFactory(9)
    y = ops.relu(linear(wf, x, 64, name='fc1'))
    return trace(linear(wf, y, 8, name='fc2'), name=f'mlp_b{batch}')


# ---------------------------------------------------------------------------
# percentiles: the one shared implementation


class TestPercentiles:
    def test_matches_numpy(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        for q in (0, 25, 50, 90, 99, 100):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q)))

    def test_empty_is_nan_not_crash(self):
        assert math.isnan(percentile([], 99))
        summary = summarize_latencies([])
        assert all(math.isnan(v) for v in summary.values())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_percentiles_plural(self):
        p50, p99 = percentiles([1.0, 2.0, 3.0], (50, 99))
        assert p50 == pytest.approx(2.0)
        assert p99 > p50


# ---------------------------------------------------------------------------
# metrics registry


class TestMetrics:
    def test_counter_rejects_negative(self):
        c = Counter('n')
        c.add(2)
        c.add()
        assert c.value == 3
        with pytest.raises(ValueError):
            c.add(-1)

    def test_gauge_series_over_sim_time(self):
        g = Gauge('depth')
        g.set(0.0, 1.0)
        g.set(0.5, 4.0)
        g.set(1.0, 2.0)
        assert g.last == 2.0 and g.max() == 4.0 and g.num_samples == 3

    def test_histogram_measurement_round_trip(self):
        h = Histogram('lat', unit='ms')
        h.observe_many([1.0, 2.0, 3.0, 4.0])
        m = h.measurement()
        assert isinstance(m, Measurement)
        assert m.mean_ms == pytest.approx(2.5)
        assert m.repeats == 4

    def test_registry_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter('x').add()
        with pytest.raises(TypeError, match='x'):
            reg.gauge('x')

    def test_merge_keeps_existing_names(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter('shared').add(1)
        b.counter('shared').add(10)
        b.counter('only_b').add(5)
        a.merge(b)
        assert a.counter('shared').value == 1      # existing name wins
        assert a.counter('only_b').value == 5

    def test_profiler_benchmark_flows_through_histogram(self):
        """Satellite: compile-time measurement and serve-time latency share
        one histogram type."""
        from repro.runtime import HidetExecutor
        from repro.runtime.profiler import benchmark
        compiled = HidetExecutor().compile(tiny_cnn(1))
        exact = benchmark(compiled)
        assert exact.std_ms == 0.0
        noisy = benchmark(compiled, repeats=20, noise=0.05, seed=1)
        assert noisy.repeats == 20
        assert noisy.std_ms > 0.0
        assert noisy.mean_ms == pytest.approx(exact.mean_ms, rel=0.2)


# ---------------------------------------------------------------------------
# span lifecycle invariants


class TestSpanLifecycle:
    def test_every_arrival_terminates_exactly_once(self):
        tracer = Tracer()
        req = Request(0, 'm', 1, 0.0)
        tracer.arrival(req, 0.0)
        assert tracer.terminal_counts()['open'] == 1
        tracer.reject(req, 0.1)
        counts = tracer.terminal_counts()
        assert counts == {'complete': 0, 'reject': 1, 'lost': 0, 'open': 0}
        tracer.assert_invariants()

    def test_double_termination_is_a_violation(self):
        tracer = Tracer()
        req = Request(0, 'm', 1, 0.0)
        tracer.arrival(req, 0.0)
        tracer.reject(req, 0.1)
        tracer.reject(req, 0.2)
        assert any('twice' in v for v in tracer.check_invariants())
        with pytest.raises(AssertionError):
            tracer.assert_invariants()

    def test_orphan_termination_is_a_violation(self):
        tracer = Tracer()
        tracer.lost(Request(7, 'm', 1, 0.0), 1.0)
        assert tracer.check_invariants()

    def test_duplicate_arrival_is_a_violation(self):
        tracer = Tracer()
        tracer.arrival(Request(0, 'm', 1, 0.0), 0.0)
        tracer.arrival(Request(0, 'm', 1, 0.5), 0.5)
        assert any('duplicate' in v for v in tracer.check_invariants())

    def test_terminal_kinds_cover_the_ledger(self):
        assert set(TERMINAL_KINDS) == {'complete', 'reject', 'lost'}


# ---------------------------------------------------------------------------
# telemetry ↔ stats reconciliation


@pytest.fixture(scope='module')
def sim_run():
    """One single-replica run with telemetry, shared across the tests."""
    registry = ModelRegistry()
    registry.register('tiny', tiny_cnn, max_batch=4)
    sim = ServerSimulator(registry, BatchingPolicy(max_batch=4, max_wait=1e-3))
    trace_ = poisson_trace(3000, 300, ['tiny'], seed=11)
    telemetry = Telemetry()
    result = sim.run(trace_, telemetry=telemetry)
    stats = result.stats(registry, telemetry=telemetry)
    return trace_, telemetry, stats


class TestReconciliation:
    def test_span_totals_match_stats(self, sim_run):
        trace_, telemetry, stats = sim_run
        telemetry.tracer.assert_invariants()
        counts = telemetry.tracer.terminal_counts()
        assert counts['open'] == 0
        assert counts['complete'] == stats.num_requests
        assert counts['reject'] == stats.num_rejected
        assert counts['lost'] == stats.num_lost_to_failure
        assert sum(counts[k] for k in TERMINAL_KINDS) == len(trace_)

    def test_live_metrics_agree_with_fold(self, sim_run):
        _, telemetry, stats = sim_run
        live = telemetry.metrics
        assert live.counter('sim.requests.completed').value == stats.num_requests
        lat = live.histogram('sim.request.latency_ms')
        assert lat.percentile(99) == pytest.approx(stats.latency_p99_ms)
        assert lat.mean() == pytest.approx(stats.latency_mean_ms)

    def test_stats_carry_the_merged_registry(self, sim_run):
        _, _, stats = sim_run
        assert stats.metrics is not None
        assert ('serve.requests.completed' in stats.metrics
                and 'sim.requests.completed' in stats.metrics)
        assert (stats.metrics.counter('serve.requests.completed').value
                == stats.num_requests)

    def test_sim_time_ordering_within_spans(self, sim_run):
        _, telemetry, _ = sim_run
        for span in telemetry.tracer.request_spans:
            if span.dispatch_time is not None:
                assert span.arrival <= span.dispatch_time
                assert span.dispatch_time <= span.terminal_time
            if span.terminal == 'complete':
                assert span.replica is not None and span.bucket is not None


# ---------------------------------------------------------------------------
# decode: the reconciliation extends to token granularity


class TestTokenReconciliation:
    @pytest.fixture(scope='class')
    def decode_run(self):
        """One continuous-batching decode run with telemetry."""
        from repro.gpusim import DecodeCostModel
        from repro.serve import DecodePolicy, DecodeSimulator, decode_trace
        cost = DecodeCostModel(device=RTX3090, seq_length=16,
                               bucket_latency={1: 1e-4, 4: 1.6e-4},
                               weights_bytes=1_000_000)
        trace_ = decode_trace(qps=3000, num_requests=150, seed=2,
                              prompt_tokens=(2, 8), mean_output_tokens=6.0,
                              max_output_tokens=24)
        telemetry = Telemetry()
        sim = DecodeSimulator(cost, DecodePolicy(max_width=4, max_tokens=24))
        result = sim.run(trace_, telemetry=telemetry)
        return telemetry, result.stats(telemetry=telemetry)

    def test_span_tokens_match_stats(self, decode_run):
        telemetry, stats = decode_run
        telemetry.tracer.assert_invariants()
        tokens = telemetry.tracer.token_counts()
        assert tokens['open'] == 0 and tokens['reject'] == 0
        # every generated token is attributed to exactly one terminal span
        assert tokens['complete'] + tokens['lost'] == stats.num_decode_tokens
        assert stats.tokens_per_second > 0

    def test_live_token_counter_agrees_with_fold(self, decode_run):
        telemetry, stats = decode_run
        live = telemetry.metrics
        assert (live.counter('sim.tokens.generated').value
                == stats.num_decode_tokens)
        assert (live.counter('sim.decode.steps').value
                == stats.num_decode_steps)

    def test_chrome_export_carries_token_args(self, decode_run):
        telemetry, stats = decode_run
        doc = telemetry.chrome_trace()
        ends = [e for e in doc['traceEvents'] if e['ph'] == 'e']
        assert (sum(e['args'].get('tokens_out', 0) for e in ends)
                == stats.num_decode_tokens)


# ---------------------------------------------------------------------------
# fleet: failures show up as spans, the ledger still balances


class TestFleetTelemetry:
    def test_kill_revive_run_reconciles_and_traces(self):
        fleet = Fleet([RTX3090, RTX3090], placement=LeastLoadedPlacement())
        fleet.register('cnn', tiny_cnn, max_batch=4)
        fleet.register('mlp', tiny_mlp, max_batch=4)
        trace_ = poisson_trace(6000, 400, ['cnn', 'mlp'], seed=3)
        kill_at = trace_[len(trace_) // 4].arrival
        sim = FleetSimulator(
            fleet, BatchingPolicy(max_batch=4, max_wait=1e-3),
            failures=[FailureEvent(time=kill_at, replica=0,
                                   revive_at=kill_at + 0.05)])
        telemetry = Telemetry()
        result = sim.run(trace_, telemetry=telemetry)
        stats = result.stats(telemetry=telemetry)

        telemetry.tracer.assert_invariants()
        counts = telemetry.tracer.terminal_counts()
        assert counts['open'] == 0
        assert counts['complete'] == stats.num_requests
        assert counts['reject'] == stats.num_rejected
        assert counts['lost'] == stats.num_lost_to_failure
        assert sum(counts[k] for k in TERMINAL_KINDS) == len(trace_)

        # the lifecycle shows up on the instant track
        instants = {i.name for i in telemetry.tracer.instants}
        assert 'lifecycle:kill' in instants
        assert 'lifecycle:revive' in instants
        # failure-caused losses carry a failure reason, not a generic one
        lost = [s for s in telemetry.tracer.request_spans
                if s.terminal == 'lost']
        assert all(s.reason.startswith('failure') for s in lost)

    def test_gauges_track_fleet_shape(self):
        fleet = Fleet([RTX3090, RTX3090], placement=LeastLoadedPlacement())
        fleet.register('cnn', tiny_cnn, max_batch=4)
        trace_ = poisson_trace(3000, 200, ['cnn'], seed=5)
        kill_at = trace_[len(trace_) // 2].arrival
        sim = FleetSimulator(
            fleet, BatchingPolicy(max_batch=4, max_wait=1e-3),
            failures=[FailureEvent(time=kill_at, replica=1)])
        telemetry = Telemetry()
        sim.run(trace_, telemetry=telemetry)
        serving = telemetry.metrics.gauge('sim.replicas.serving')
        values = [v for _, v in serving.series()]
        assert 2.0 in values and 1.0 in values     # the kill is visible


# ---------------------------------------------------------------------------
# Chrome trace export


class TestChromeTrace:
    def test_export_is_valid_and_balanced(self, sim_run, tmp_path):
        _, telemetry, stats = sim_run
        path = tmp_path / 'trace.json'
        telemetry.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        events = doc['traceEvents']
        assert events, 'empty trace'
        for ev in events:
            assert ev['ph'] in ('b', 'e', 'X', 'i', 'C', 'M')
            if ev['ph'] != 'M':
                assert ev['ts'] >= 0

        begins = [e for e in events if e['ph'] == 'b']
        ends = [e for e in events if e['ph'] == 'e']
        # one terminal span per admitted request, b/e ids match 1:1
        assert len(begins) == len(ends)
        assert {e['id'] for e in begins} == {e['id'] for e in ends}
        terminals = [e['args']['terminal'] for e in ends]
        assert terminals.count('complete') == stats.num_requests

        # batch execution intervals are X events with positive duration
        batches = [e for e in events if e['ph'] == 'X']
        assert len(batches) == stats.num_batches
        assert all(e['dur'] > 0 for e in batches)

        # gauge series export as counter events for Perfetto step charts
        assert any(e['ph'] == 'C' for e in events)

    def test_sim_seconds_become_microseconds(self, sim_run):
        _, telemetry, _ = sim_run
        doc = telemetry.chrome_trace()
        by_id = {s.req_id: s for s in telemetry.tracer.request_spans}
        begin = next(e for e in doc['traceEvents'] if e['ph'] == 'b')
        assert begin['ts'] == pytest.approx(by_id[begin['id']].arrival * 1e6)


# ---------------------------------------------------------------------------
# Chrome trace byte identity: the streamed writer against the dict builders
# and ``json.dump(doc, f, indent=1)`` writers it replaced, kept verbatim


def _reference_tracer_trace(self) -> dict:
    events: list[dict] = [{
        'name': 'process_name', 'ph': 'M', 'pid': 0,
        'args': {'name': 'repro.serve simulation'},
    }]
    names = dict(self._thread_names)
    names.setdefault(LIFECYCLE_TRACK, 'lifecycle')
    for replica, name in sorted(names.items()):
        events.append({'name': 'thread_name', 'ph': 'M', 'pid': 0,
                       'tid': self._tid(replica), 'args': {'name': name}})
    for span in self.request_spans:
        tid = self._tid(span.replica)
        events.append({
            'name': f'request:{span.model}', 'cat': 'request',
            'ph': 'b', 'id': span.req_id,
            'ts': self._us(span.arrival), 'pid': 0, 'tid': tid,
            'args': {'req_id': span.req_id, 'model': span.model,
                     'size': span.size},
        })
        if not span.is_terminated:
            continue
        args = {'terminal': span.terminal, 'req_id': span.req_id,
                'latency_ms': (span.terminal_time - span.arrival) * 1e3}
        if span.reason:
            args['reason'] = span.reason
        if span.dispatch_time is not None:
            args['dispatch_ts_us'] = self._us(span.dispatch_time)
            args['bucket'] = span.bucket
        if span.requeued:
            args['requeued'] = span.requeued
        if span.prompt_tokens or span.tokens_emitted:
            args['prompt_tokens'] = span.prompt_tokens
            args['tokens_out'] = span.tokens_emitted
        events.append({
            'name': f'request:{span.model}', 'cat': 'request',
            'ph': 'e', 'id': span.req_id,
            'ts': self._us(span.terminal_time), 'pid': 0, 'tid': tid,
            'args': args,
        })
    for batch in self.batch_spans:
        events.append({
            'name': f'{batch.model}[b{batch.bucket}]', 'cat': 'batch',
            'ph': 'X', 'ts': self._us(batch.start),
            'dur': self._us(batch.end - batch.start),
            'pid': 0, 'tid': self._tid(batch.replica),
            'args': {'model': batch.model, 'bucket': batch.bucket,
                     'size': batch.size,
                     'num_requests': batch.num_requests,
                     'occupancy': round(batch.occupancy, 4)},
        })
    for inst in self.instants:
        events.append({
            'name': inst.name, 'cat': 'event', 'ph': 'i', 's': 't',
            'ts': self._us(inst.time), 'pid': 0,
            'tid': self._tid(inst.replica), 'args': dict(inst.args),
        })
    return {'traceEvents': events, 'displayTimeUnit': 'ms'}


def _reference_telemetry_trace(self) -> dict:
    if self.tracer is None:
        doc = {'traceEvents': [], 'displayTimeUnit': 'ms'}
    else:
        doc = _reference_tracer_trace(self.tracer)
    for name in self.metrics.names():
        metric = self.metrics[name]
        snap = metric.snapshot()
        if snap['type'] != 'gauge':
            continue
        for t, value in metric.series():
            doc['traceEvents'].append({
                'name': name, 'cat': 'metric', 'ph': 'C',
                'ts': t * 1e6, 'pid': 0,
                'args': {'value': value},
            })
    return doc


def _reference_write(doc: dict, path) -> None:
    with open(path, 'w') as f:
        json.dump(doc, f, indent=1)


def _fleet_kill_telemetry(placement=LeastLoadedPlacement) -> Telemetry:
    """A kill and revive mid-trace: least-loaded placement requeues the
    dead replica's queue, model-affine re-homes its models (``detail``)."""
    fleet = Fleet([RTX3090, RTX3090], placement=placement())
    fleet.register('cnn', tiny_cnn, max_batch=4)
    fleet.register('mlp', tiny_mlp, max_batch=4)
    trace_ = poisson_trace(6000, 400, ['cnn', 'mlp'], seed=3)
    kill_at = trace_[len(trace_) // 4].arrival
    sim = FleetSimulator(
        fleet, BatchingPolicy(max_batch=4, max_wait=1e-3),
        failures=[FailureEvent(time=kill_at, replica=0,
                               revive_at=kill_at + 0.05)])
    telemetry = Telemetry()
    sim.run(trace_, telemetry=telemetry)
    return telemetry


def _decode_telemetry() -> Telemetry:
    from repro.gpusim import DecodeCostModel
    from repro.serve import DecodePolicy, DecodeSimulator, decode_trace
    cost = DecodeCostModel(device=RTX3090, seq_length=16,
                           bucket_latency={1: 1e-4, 4: 1.6e-4},
                           weights_bytes=1_000_000)
    trace_ = decode_trace(qps=3000, num_requests=150, seed=2,
                          prompt_tokens=(2, 8), mean_output_tokens=6.0,
                          max_output_tokens=24)
    telemetry = Telemetry()
    DecodeSimulator(cost, DecodePolicy(max_width=4, max_tokens=24)).run(
        trace_, telemetry=telemetry)
    return telemetry


def _awkward_instants() -> Telemetry:
    """Hand-made instants whose args exercise every JSON escape and
    constant, plus an open span and an empty-args instant."""
    telemetry = Telemetry()
    tracer = telemetry.tracer
    tracer.set_track_name(3, 'r3:caf\u00e9 "quoted"')
    tracer.arrival(Request(0, 'm\u00fcnchen', 1, 0.25), 0.25)   # never ends
    tracer.instant('odd', 0.5, track=3,
                   text='h\u00e9llo \u2713 \U0001f600 "q" back\\slash '
                        'new\nline\ttab \x00',
                   nan=float('nan'), inf=float('inf'), ninf=float('-inf'),
                   none=None, yes=True, no=False, empty={}, zero=0,
                   neg=-1.5e-300, big=10 ** 30)
    tracer.instant('bare', 0.75)
    tracer.instant('nested', 1.0, track=0, items=[1, [2, {}], {'k': 'v'}],
                   pair=(1, 'a'), deep={'a': {'b': [None, float('nan')]}},
                   np_float=np.float64(2.5), empty_list=[])
    tracer.instants.append(Instant(name='int-keys', time=1.25,
                                   args={1: 'one', 'x': 2}))
    telemetry.queue_depth(0.5, 3)
    telemetry.metrics.gauge('sim.odd').set(1.0, float('inf'))
    telemetry.metrics.histogram('sim.unused').observe(1.0)
    return telemetry


class TestChromeTraceOracle:
    CASES = {'fleet_kill': _fleet_kill_telemetry,
             'fleet_rehome': lambda: _fleet_kill_telemetry(
                 ModelAffinePlacement),
             'decode': _decode_telemetry, 'awkward': _awkward_instants,
             'empty': Telemetry}

    def _assert_identical(self, owner, reference, tmp_path):
        doc = reference(owner)
        assert owner.chrome_trace() == doc
        ref_path, path = tmp_path / 'reference.json', tmp_path / 'trace.json'
        _reference_write(doc, ref_path)
        assert owner.write_chrome_trace(str(path)) == str(path)
        assert path.read_bytes() == ref_path.read_bytes()

    def test_server_run_matches_reference(self, sim_run, tmp_path):
        _, telemetry, _ = sim_run
        self._assert_identical(telemetry, _reference_telemetry_trace,
                               tmp_path)
        self._assert_identical(telemetry.tracer, _reference_tracer_trace,
                               tmp_path)

    @pytest.mark.parametrize('case', sorted(CASES))
    def test_case_matches_reference(self, case, tmp_path):
        telemetry = self.CASES[case]()
        self._assert_identical(telemetry, _reference_telemetry_trace,
                               tmp_path)
        self._assert_identical(telemetry.tracer, _reference_tracer_trace,
                               tmp_path)

    def test_cases_cover_the_rare_fields(self):
        fleet = _fleet_kill_telemetry().chrome_trace()['traceEvents']
        assert any(e['name'] == 'requeue' for e in fleet)
        assert any(e['args'].get('requeued') for e in fleet if e['ph'] == 'e')
        rehome = self.CASES['fleet_rehome']().chrome_trace()['traceEvents']
        assert any(e['name'].startswith('lifecycle:') and 'detail' in e['args']
                   and e['tid'] == 999_999 for e in rehome)
        decode = _decode_telemetry().chrome_trace()['traceEvents']
        assert any('prompt_tokens' in e['args'] and 'tokens_out' in e['args']
                   for e in decode if e['ph'] == 'e')

    def test_empty_stream(self, tmp_path):
        path = tmp_path / 'trace.json'
        write_chrome_trace(str(path), iter(()))
        assert path.read_text() == json.dumps(chrome_document(()), indent=1)

    def test_export_reads_no_metric_snapshots(self, sim_run, monkeypatch):
        _, telemetry, _ = sim_run
        for kind in (Counter, Gauge, Histogram):
            monkeypatch.setattr(kind, 'snapshot', None)
        events = telemetry.chrome_trace()['traceEvents']
        assert any(e['ph'] == 'C' for e in events)


class TestChromeExportFailure:
    def test_unencodable_arg_names_the_event_and_writes_nothing(self,
                                                                tmp_path):
        telemetry = Telemetry()
        telemetry.tracer.instant('tagged', 2.0, tags={'a', 'b'})
        path = tmp_path / 'trace.json'
        with pytest.raises(TypeError, match="'tagged'.*set"):
            telemetry.write_chrome_trace(str(path))
        assert not path.exists()
        with pytest.raises(TypeError, match="'tagged'"):
            telemetry.tracer.write_chrome_trace(str(path))
        assert not path.exists()

    def test_telemetry_always_traces(self):
        assert isinstance(Telemetry(tracer=None).tracer, Tracer)


# ---------------------------------------------------------------------------
# bench format + the compare gate


def _result(area='serving', **values):
    res = BenchResult(area=area, mode='smoke')
    for name, value in values.items():
        res.add(name, value)
    return res


class TestBenchFormat:
    def test_write_is_byte_stable(self, tmp_path):
        res = _result(p99_ms=3.25, p50_ms=1.5)
        a, b = tmp_path / 'a.json', tmp_path / 'b.json'
        res.write(str(a))
        BenchResult.load(str(a)).write(str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / 'v.json'
        doc = _result(x=1.0).to_dict()
        doc['format_version'] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match='format_version'):
            BenchResult.load(str(path))

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            BenchMetric(value=1.0, direction='sideways')


class TestCompareGate:
    def test_identical_passes(self):
        base = _result(p99_ms=3.0)
        assert compare(base, base).ok

    def test_injected_latency_regression_fails_named(self, tmp_path, capsys):
        """The acceptance criterion: a >=10% latency bump must gate."""
        base = _result(latency_p99_ms=3.0)
        cand = _result(latency_p99_ms=3.0 * 1.12)       # +12% > 10% band
        cmp_ = compare(base, cand)
        assert not cmp_.ok
        assert [d.name for d in cmp_.regressions] == ['latency_p99_ms']

        # and through the CLI: exit code 1, metric named on stdout
        base_path, cand_path = tmp_path / 'b.json', tmp_path / 'c.json'
        base.write(str(base_path))
        cand.write(str(cand_path))
        assert compare_main([str(base_path), str(cand_path)]) == 1
        assert 'latency_p99_ms' in capsys.readouterr().out

    def test_within_noise_band_passes(self):
        base = _result(latency_p99_ms=3.0)
        cand = _result(latency_p99_ms=3.0 * 1.05)       # +5% < 10% band
        assert compare(base, cand).ok

    def test_higher_is_better_mirrors(self):
        base = BenchResult(area='a')
        base.add('throughput', 100.0, direction='higher')
        worse = BenchResult(area='a')
        worse.add('throughput', 80.0, direction='higher')
        assert not compare(base, worse).ok
        better = BenchResult(area='a')
        better.add('throughput', 130.0, direction='higher')
        cmp_ = compare(base, better)
        assert cmp_.ok
        assert cmp_.deltas[0].status == 'improved'

    def test_zero_baseline_is_strict(self):
        """warm_*_seconds baselines are 0: any adverse move gates."""
        base = _result(warm_seconds=0.0)
        cand = _result(warm_seconds=0.001)
        assert not compare(base, cand).ok

    def test_info_metrics_never_gate(self):
        base = BenchResult(area='a')
        base.add('wall_seconds', 5.0, direction='info')
        cand = BenchResult(area='a')
        cand.add('wall_seconds', 50.0, direction='info')
        assert compare(base, cand).ok

    def test_missing_gated_metric_is_a_regression(self):
        base = _result(p99_ms=3.0, p50_ms=1.0)
        cand = _result(p99_ms=3.0)
        cmp_ = compare(base, cand)
        assert not cmp_.ok
        assert cmp_.regressions[0].name == 'p50_ms'

    def test_nan_candidate_is_a_regression(self):
        base = _result(p99_ms=3.0)
        cand = _result(p99_ms=float('nan'))
        assert not compare(base, cand).ok

    def test_area_mismatch_is_exit_2(self, tmp_path):
        a, b = tmp_path / 'a.json', tmp_path / 'b.json'
        _result(area='serving', x=1.0).write(str(a))
        _result(area='tuning', x=1.0).write(str(b))
        assert compare_main([str(a), str(b)]) == 2

    def test_unreadable_file_is_exit_2(self, tmp_path):
        a = tmp_path / 'a.json'
        _result(x=1.0).write(str(a))
        assert compare_main([str(a), str(tmp_path / 'missing.json')]) == 2


# ---------------------------------------------------------------------------
# committed baselines: the gate must hold on an unchanged tree


class TestCommittedBaselines:
    @pytest.mark.parametrize('name', ['BENCH_serving.json', 'BENCH_tuning.json'])
    def test_baseline_loads(self, name):
        import pathlib
        path = pathlib.Path(__file__).resolve().parent.parent / name
        assert path.is_file(), f'{name} baseline missing from repo root'
        res = BenchResult.load(str(path))
        assert res.names()
        assert compare(res, res).ok
